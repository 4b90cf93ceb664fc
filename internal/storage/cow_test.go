package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"viewupdate/internal/faultinject"
	"viewupdate/internal/schema"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/vuerr"
)

// A chain is the two-edge reference chain G ← P ← C (the shape of
// DIV ← DEPT ← EMP): P[PG] ⊆ G[GK] is dependency depPG and
// C[CP] ⊆ P[PK] is dependency depCP.
type chain struct {
	sch        *schema.Database
	g, p, c    *schema.Relation
	nG, nP, nC int64
}

const (
	depPG = 0
	depCP = 1
)

// chainSchema builds a chain whose key domains are 1..nG, 1..nP, 1..nC.
func chainSchema(t testing.TB, nG, nP, nC int64) chain {
	t.Helper()
	dom := func(name string, n int64) *schema.Domain {
		d, err := schema.IntRangeDomain(name, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	gd, pd, cd := dom("GD", nG), dom("PD", nP), dom("CD", nC)
	vd := schema.MustDomain("VD", value.NewString("u"), value.NewString("v"))
	ch := chain{sch: schema.NewDatabase(), nG: nG, nP: nP, nC: nC}
	ch.g = schema.MustRelation("G", []schema.Attribute{{Name: "GK", Domain: gd}, {Name: "GV", Domain: vd}}, []string{"GK"})
	ch.p = schema.MustRelation("P", []schema.Attribute{{Name: "PK", Domain: pd}, {Name: "PG", Domain: gd}, {Name: "PV", Domain: vd}}, []string{"PK"})
	ch.c = schema.MustRelation("C", []schema.Attribute{{Name: "CK", Domain: cd}, {Name: "CP", Domain: pd}}, []string{"CK"})
	for _, r := range []*schema.Relation{ch.g, ch.p, ch.c} {
		if err := ch.sch.AddRelation(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []schema.InclusionDependency{
		depPG: {Child: "P", ChildAttrs: []string{"PG"}, Parent: "G"},
		depCP: {Child: "C", ChildAttrs: []string{"CP"}, Parent: "P"},
	} {
		if err := ch.sch.AddInclusion(d); err != nil {
			t.Fatal(err)
		}
	}
	return ch
}

func (ch chain) G(k int64, v string) tuple.T {
	return tuple.MustNew(ch.g, value.NewInt(k), value.NewString(v))
}

func (ch chain) P(k, g int64, v string) tuple.T {
	return tuple.MustNew(ch.p, value.NewInt(k), value.NewInt(g), value.NewString(v))
}

func (ch chain) C(k, p int64) tuple.T {
	return tuple.MustNew(ch.c, value.NewInt(k), value.NewInt(p))
}

// open loads every G key, parents 1..nP (parent k under G key
// k mod nG + 1) and children 1..nC, child k under parent parentOf(k).
func (ch chain) open(t testing.TB, nP, nC int64, parentOf func(k int64) int64) *Database {
	t.Helper()
	ts := make([]tuple.T, 0, ch.nG+nP+nC)
	for k := int64(1); k <= ch.nG; k++ {
		ts = append(ts, ch.G(k, "u"))
	}
	for k := int64(1); k <= nP; k++ {
		ts = append(ts, ch.P(k, k%ch.nG+1, "u"))
	}
	for k := int64(1); k <= nC; k++ {
		ts = append(ts, ch.C(k, parentOf(k)))
	}
	db := Open(ch.sch)
	if err := db.LoadAll(ts...); err != nil {
		t.Fatal(err)
	}
	return db
}

// randTranslation draws one to three ops over the chain against the
// state cur: inserts that may collide or dangle, deletes that may
// strand referencers, FK retargets on both edges and key-preserving
// parent replaces.
func (ch chain) randTranslation(rng *rand.Rand, cur *Database) *update.Translation {
	uv := func() string { return []string{"u", "v"}[rng.Intn(2)] }
	existing := func(rel string, fresh tuple.T) tuple.T {
		if ts := cur.Tuples(rel); len(ts) > 0 {
			return ts[rng.Intn(len(ts))]
		}
		return fresh
	}
	randG := func() tuple.T { return ch.G(1+rng.Int63n(ch.nG), uv()) }
	randP := func() tuple.T { return ch.P(1+rng.Int63n(ch.nP), 1+rng.Int63n(ch.nG), uv()) }
	randC := func() tuple.T { return ch.C(1+rng.Int63n(ch.nC), 1+rng.Int63n(ch.nP)) }
	tr := update.NewTranslation()
	for n := 1 + rng.Intn(3); n > 0; n-- {
		switch rng.Intn(9) {
		case 0, 1:
			tr.Add(update.NewInsert(randC()))
		case 2:
			tr.Add(update.NewDelete(existing("C", randC())))
		case 3: // FK retarget C → another parent key, present or not
			old := existing("C", randC())
			tr.Add(update.NewReplace(old, ch.C(old.MustGet("CK").Int(), 1+rng.Int63n(ch.nP))))
		case 4:
			tr.Add(update.NewInsert(randP()))
		case 5:
			tr.Add(update.NewDelete(existing("P", randP())))
		case 6: // key-preserving parent replace: payload, sometimes its own FK
			old := existing("P", randP())
			g := old.MustGet("PG").Int()
			if rng.Intn(3) == 0 {
				g = 1 + rng.Int63n(ch.nG)
			}
			tr.Add(update.NewReplace(old, ch.P(old.MustGet("PK").Int(), g, uv())))
		case 7:
			if rng.Intn(2) == 0 {
				tr.Add(update.NewInsert(randG()))
			} else {
				tr.Add(update.NewDelete(existing("G", randG())))
			}
		case 8:
			old := existing("G", randG())
			tr.Add(update.NewReplace(old, ch.G(old.MustGet("GK").Int(), uv())))
		}
	}
	return tr
}

// indexDiff compares two reverse reference indexes set by set.
func indexDiff(a, b *Database) error {
	if len(a.refs) != len(b.refs) {
		return fmt.Errorf("%d edges vs %d", len(a.refs), len(b.refs))
	}
	for i := range a.refs {
		am, bm := a.refs[i].byParent, b.refs[i].byParent
		if len(am) != len(bm) {
			return fmt.Errorf("edge %d: %d parent keys vs %d", i, len(am), len(bm))
		}
		for k, as := range am {
			bs := bm[k]
			if bs == nil || len(as.byChild) == 0 || len(as.byChild) != len(bs.byChild) {
				return fmt.Errorf("edge %d parent %q: sets differ (or empty set kept)", i, k)
			}
			for ck, at := range as.byChild {
				if bt, ok := bs.byChild[ck]; !ok || !bt.Equal(at) {
					return fmt.Errorf("edge %d parent %q: child %q differs", i, k, ck)
				}
			}
		}
	}
	return nil
}

// checkAgainst holds a copy-on-write instance to the deep clone that
// was taken with it and carried through the same applies.
func (ch chain) checkAgainst(t *testing.T, at string, cow, ref *Database) {
	t.Helper()
	if !cow.Equal(ref) {
		t.Fatalf("%s: tuples diverge from the deep clone", at)
	}
	for dep, probes := range ch.probes() {
		for _, parent := range probes {
			got, want := refKeys(cow, dep, parent), refKeys(ref, dep, parent)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Referencers(%d, %s) = %v, deep clone has %v", at, dep, parent, got, want)
			}
		}
	}
	if err := cow.CheckAllInclusions(); err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	rebuilt := cow.Clone()
	if err := rebuilt.SyncSchema(); err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	if err := indexDiff(cow, rebuilt); err != nil {
		t.Fatalf("%s: index is not the one SyncSchema rebuilds: %v", at, err)
	}
}

// probes returns, per dependency, a probe tuple for every key of the
// parent domain.
func (ch chain) probes() [][]tuple.T {
	out := make([][]tuple.T, 2)
	for k := int64(1); k <= ch.nG; k++ {
		out[depPG] = append(out[depPG], ch.G(k, "u"))
	}
	for k := int64(1); k <= ch.nP; k++ {
		out[depCP] = append(out[depCP], ch.P(k, 1, "u"))
	}
	return out
}

// TestCloneSharedRandomizedIndependence is the safety net under the
// per-edge, per-parent-key copy-on-write of the reference index: no
// instance ever observes a write made through another one, however the
// CloneShared calls and the applies interleave.
func TestCloneSharedRandomizedIndependence(t *testing.T) {
	ch := chainSchema(t, 3, 5, 12)
	parentOf := func(k int64) int64 { return k%4 + 1 }

	// A seeded stream of CloneShared calls and applies over a handful of
	// live instances (originals, clones, clones of clones), each paired
	// with the deep Clone taken at the same moment.
	t.Run("interleaved", func(t *testing.T) {
		type pair struct{ cow, ref *Database }
		db := ch.open(t, 4, 8, parentOf)
		pairs := []pair{{db, db.Clone()}}
		rng := rand.New(rand.NewSource(23))
		share := func(from pair) pair {
			p := pair{from.cow.CloneShared(), from.ref.Clone()}
			if len(pairs) < 6 {
				pairs = append(pairs, p)
			} else {
				pairs[rng.Intn(len(pairs))] = p
			}
			return p
		}
		applied, dangling, faulted := 0, 0, 0
		for step := 0; step < 2000; step++ {
			at := fmt.Sprintf("step %d", step)
			p := pairs[rng.Intn(len(pairs))]
			switch r := rng.Intn(10); {
			case r < 2:
				share(p)
			case r == 2:
				// A fault between the phases of a retarget, right after
				// a clone: the delete has copied the edge and a set by
				// then, and the rollback writes them again.
				cs := p.ref.Tuples("C")
				if len(cs) == 0 || p.ref.Len("P") < 2 {
					continue
				}
				old := cs[rng.Intn(len(cs))]
				to := p.ref.Tuples("P")[rng.Intn(p.ref.Len("P"))]
				if to.MustGet("PK") == old.MustGet("CP") {
					continue
				}
				tr := update.NewTranslation(update.NewReplace(old, ch.C(old.MustGet("CK").Int(), to.MustGet("PK").Int())))
				if rng.Intn(2) == 0 {
					p = share(p)
				} else {
					share(p)
				}
				faultinject.Enable(faultinject.NewPlan(1).FailNth(faultinject.SiteApplyInsert, 1, vuerr.ErrTransient))
				err := p.cow.Apply(tr)
				faultinject.Disable()
				if !vuerr.IsTransient(err) || p.cow.Poisoned() {
					t.Fatalf("%s: faulted apply: err %v, poisoned %v", at, err, p.cow.Poisoned())
				}
				faulted++
			default:
				tr := ch.randTranslation(rng, p.ref)
				err, refErr := p.cow.Apply(tr), p.ref.Apply(tr)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("%s: %s: copy-on-write side says %v, deep clone %v", at, tr, err, refErr)
				}
				switch {
				case err == nil:
					applied++
				case errors.Is(err, ErrInclusion):
					dangling++
				}
			}
			for i, q := range pairs {
				ch.checkAgainst(t, fmt.Sprintf("%s, instance %d", at, i), q.cow, q.ref)
			}
		}
		if applied < 100 || dangling < 100 || faulted < 20 {
			t.Fatalf("stream too tame: %d applied, %d rolled back in phase 3, %d faulted", applied, dangling, faulted)
		}
	})

	// Four readers walk held snapshots while the live side commits. The
	// two sides take different locks, so under -race an in-place write
	// to anything a snapshot can reach is reported.
	t.Run("readers", func(t *testing.T) {
		type held struct {
			snap *Database
			refs [][][]string // per dep, per probe: the referencer keys at the snapshot
			rows []tuple.T    // per depCP probe: the stored parent, zero when absent
		}
		db := ch.open(t, 4, 8, parentOf)
		ref := db.Clone()
		probes := ch.probes()
		hold := func() held {
			h := held{snap: db.CloneShared(), refs: make([][][]string, len(probes))}
			for dep, ps := range probes {
				for _, parent := range ps {
					h.refs[dep] = append(h.refs[dep], refKeys(ref, dep, parent))
				}
			}
			for _, parent := range probes[depCP] {
				row, _ := ref.LookupKey(parent)
				h.rows = append(h.rows, row)
			}
			return h
		}
		read := func(h held) error {
			for dep, ps := range probes {
				for i, parent := range ps {
					if got := refKeys(h.snap, dep, parent); !slices.Equal(got, h.refs[dep][i]) {
						return fmt.Errorf("snapshot Referencers(%d, %s) = %v, was %v", dep, parent, got, h.refs[dep][i])
					}
				}
			}
			for i, parent := range probes[depCP] {
				if got, _ := h.snap.LookupKey(parent); !got.Equal(h.rows[i]) {
					return fmt.Errorf("snapshot LookupKey(%s) = %s, was %s", parent, got, h.rows[i])
				}
			}
			return nil
		}
		rng := rand.New(rand.NewSource(29))
		var snaps []held
		for round := 0; round < 25; round++ {
			snaps = append(snaps, hold())
			if len(snaps) > 3 {
				snaps = snaps[1:]
			}
			stop := make(chan struct{})
			var started, done sync.WaitGroup
			for r := 0; r < 4; r++ {
				started.Add(1)
				done.Add(1)
				go func() {
					defer done.Done()
					for first := true; ; first = false {
						for _, h := range snaps {
							if err := read(h); err != nil {
								t.Error(err)
							}
						}
						if first {
							started.Done()
						}
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
			}
			started.Wait()
			for i := 0; i < 40; i++ {
				tr := ch.randTranslation(rng, ref)
				if err, refErr := db.Apply(tr), ref.Apply(tr); (err == nil) != (refErr == nil) {
					t.Errorf("round %d: %s: live side says %v, deep clone %v", round, tr, err, refErr)
				}
			}
			close(stop)
			done.Wait()
			ch.checkAgainst(t, fmt.Sprintf("round %d", round), db, ref)
			if t.Failed() {
				return
			}
		}
	})
}

// BenchmarkApplyAfterCloneShared is the first write after a publish on
// the spj_mid_mem shape (25 ← 250 ← 5,000) and at ten times the
// children: one child insert or delete right after a CloneShared. The
// child extension's own clone is part of it at both commits; what the
// before/after row in docs/PERFORMANCE.md shows is the index's share.
func BenchmarkApplyAfterCloneShared(b *testing.B) {
	for _, nC := range []int64{5000, 50000} {
		b.Run(fmt.Sprintf("children=%d", nC), func(b *testing.B) {
			ch := chainSchema(b, 25, 250, nC+1)
			db := ch.open(b, 250, nC, func(k int64) int64 { return k%250 + 1 })
			extra := ch.C(nC+1, 1)
			trs := [2]*update.Translation{
				update.NewTranslation(update.NewInsert(extra)),
				update.NewTranslation(update.NewDelete(extra)),
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.CloneShared()
				if err := db.Apply(trs[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
