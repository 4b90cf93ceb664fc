//go:build !race

package storage

import (
	"testing"

	"viewupdate/internal/update"
)

// TestFirstWriteAfterCloneSharedIndependentOfChildren pins what the
// per-edge, per-parent-key copy-on-write of the reference index buys:
// the first write after a publish copies the touched edge's outer map
// and the touched parent's referencer set, not the referencer sets of
// the other 199 parents. Allocations stand in for work, as in
// TestVerifyCostIndependentOfViewSize. The touched relation's extension
// is still cloned whole (ROADMAP item 6), and a map's allocation
// count grows with its size, so that clone is measured by itself and
// taken out of both sides. (The race detector inflates allocation
// counts: the file is built without it.)
func TestFirstWriteAfterCloneSharedIndependentOfChildren(t *testing.T) {
	const parents = 200
	// Children 1..5 reference parent 1 and 6..10 parent 2 at both sizes;
	// the rest spread over the other 198 parents.
	parentOf := func(k int64) int64 {
		if k <= 10 {
			return (k-1)/5 + 1
		}
		return 3 + k%(parents-2)
	}
	type cost struct{ insertDelete, retarget, parentReplace float64 }
	measure := func(children int64) cost {
		ch := chainSchema(t, 4, parents, children+1)
		db := ch.open(t, parents, children, parentOf)
		// there and back leaves the state as it found it, so every run
		// does the same work: two publishes, each followed by its first
		// write, net of the two clones of rel's extension.
		thereAndBack := func(rel string, there, back update.Op) float64 {
			trs := [2]*update.Translation{update.NewTranslation(there), update.NewTranslation(back)}
			total := testing.AllocsPerRun(10, func() {
				for _, tr := range trs {
					db.CloneShared()
					if err := db.Apply(tr); err != nil {
						t.Fatal(err)
					}
				}
			})
			return total - 2*testing.AllocsPerRun(10, func() { db.SnapshotRelation(rel) })
		}
		extra := ch.C(children+1, 1)
		return cost{
			insertDelete:  thereAndBack("C", update.NewInsert(extra), update.NewDelete(extra)),
			retarget:      thereAndBack("C", update.NewReplace(ch.C(1, 1), ch.C(1, 2)), update.NewReplace(ch.C(1, 2), ch.C(1, 1))),
			parentReplace: thereAndBack("P", update.NewReplace(ch.P(1, 2, "u"), ch.P(1, 2, "v")), update.NewReplace(ch.P(1, 2, "v"), ch.P(1, 2, "u"))),
		}
	}
	small, large := measure(1000), measure(50000)
	t.Logf("allocs net of the extension clone, 1,000 children: %+v; 50,000 children: %+v", small, large)
	if large != small {
		t.Fatalf("the first write after CloneShared allocates %+v over 50,000 children, %+v over 1,000: it scales with the child relation", large, small)
	}
}

// TestReferencersAllocs pins the cost of one referencer walk: it reads
// the dependency list the reference index was built for, held beside
// the index, instead of copying the schema's list on every call. What
// is left is the parent key's encoding, the result and its sort: 18
// allocations for two referencers, where copying the list made 19.
func TestReferencersAllocs(t *testing.T) {
	ch := chainSchema(t, 4, 10, 20)
	db := ch.open(t, 10, 20, func(k int64) int64 { return (k-1)/2 + 1 })
	parent := ch.P(1, 2, "u")
	for _, src := range []Source{db, NewOverlay(db)} {
		got := testing.AllocsPerRun(50, func() {
			if n := len(src.Referencers(depCP, parent)); n != 2 {
				t.Fatalf("%d referencers, want 2", n)
			}
		})
		if got > 18 {
			t.Errorf("%T: Referencers allocates %.0f times, want at most 18", src, got)
		}
	}
}
