package bruteforce

import (
	"errors"
	"fmt"
	"testing"

	"viewupdate/internal/core"
	"viewupdate/internal/fixtures"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/workload"
)

// checkSPJTheorem is the executable form of §5's theorem on the tree a
// seed names: for one request of each kind, the translations that are
// valid and satisfy the five criteria are exactly those SPJ-D, SPJ-I
// and SPJ-R generate.
func checkSPJTheorem(t *testing.T, seed int64) {
	w, err := workload.SmallTree(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []update.Kind{update.Insert, update.Delete, update.Replace} {
		r, ok := w.RandomRequest(kind)
		if !ok {
			continue
		}
		onlyOracle, onlyGenerated, err := DiffGenerators(w.DB, w.View, r)
		if err != nil {
			t.Fatalf("seed %d, %s: %v", seed, r, err)
		}
		if len(onlyOracle)+len(onlyGenerated) > 0 {
			t.Errorf("seed %d, %s on\n%s\noracle only: %q\ngenerators only: %q",
				seed, r, describeState(w), onlyOracle, onlyGenerated)
		}
	}
}

// describeState renders a tree instance's base tuples for a failure
// message.
func describeState(w *workload.TreeWorkload) string {
	out := ""
	for _, rel := range w.Relations {
		out += fmt.Sprintf("  %s: %v\n", rel.Name(), w.DB.Tuples(rel.Name()))
	}
	return out
}

// FuzzSPJTheorem diffs the oracle against the SPJ generators, in both
// directions, on random depth-1 and depth-2 trees with node selections
// and hidden attributes and a request of each kind. The committed seeds
// run in tier 1; make soak fuzzes further.
func FuzzSPJTheorem(f *testing.F) {
	for seed := int64(0); seed < 90; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkSPJTheorem)
}

// TestSPJTheoremFigureShapes diffs the oracle against the generators on
// the §5-1 figure with selections (fixtures.SelABCXD), with the parent
// selected and not: 18 request shapes over four instances — a parent
// one root row uses, a parent two rows share, a parent its selection
// hides, and root and parent tuples a request conflicts with.
func TestSPJTheoremFigureShapes(t *testing.T) {
	for _, parentSelected := range []bool{false, true} {
		f := fixtures.NewSelABCXD(parentSelected)
		row := f.ViewTuple
		ins, del := core.InsertRequest, core.DeleteRequest
		rep := core.ReplaceRequest
		instances := []struct {
			name  string
			state []tuple.T
			reqs  []core.Request
		}{
			{"one referrer", []tuple.T{f.ABTuple("a", 1, "h1"), f.ABTuple("a2", 1, "h2"), f.CXDTuple("c1", "a", 1)},
				[]core.Request{
					ins(row("c2", "a", 2, 1)),
					ins(row("c2", "a2", 1, 1)),
					del(row("c1", "a", 1, 1)),
					rep(row("c1", "a", 1, 1), row("c1", "a", 2, 1)),
					rep(row("c1", "a", 1, 1), row("c1", "a", 1, 2)),
				}},
			{"shared parent", []tuple.T{f.ABTuple("a", 1, "h1"), f.CXDTuple("c1", "a", 1), f.CXDTuple("c2", "a", 2)},
				[]core.Request{
					ins(row("c3", "a", 1, 2)),
					del(row("c1", "a", 1, 1)),
					rep(row("c1", "a", 1, 1), row("c3", "a", 1, 2)),
					rep(row("c1", "a", 1, 1), row("c1", "a", 1, 2)),
					rep(row("c1", "a", 1, 1), row("c3", "a", 1, 1)),
				}},
			{"hidden parent", []tuple.T{f.ABTuple("a", 1, "h1"), f.ABTuple("a2", 2, "h1"), f.CXDTuple("c1", "a", 1), f.CXDTuple("c2", "a2", 2)},
				[]core.Request{
					ins(row("c3", "a2", 1, 1)),
					rep(row("c1", "a", 1, 1), row("c1", "a2", 1, 1)),
					del(row("c1", "a", 1, 1)),
					ins(row("c3", "a", 2, 1)),
				}},
			{"conflicts", []tuple.T{f.ABTuple("a", 1, "h1"), f.ABTuple("a2", 2, "h2"), f.CXDTuple("c1", "a", 1), f.CXDTuple("c3", "a2", 3)},
				[]core.Request{
					ins(row("c3", "a", 1, 1)),
					rep(row("c1", "a", 1, 1), row("c3", "a", 1, 1)),
					ins(row("c2", "a2", 1, 1)),
					rep(row("c1", "a", 1, 1), row("c1", "a", 2, 2)),
				}},
		}
		for _, in := range instances {
			db := f.Load(in.state...)
			for _, r := range in.reqs {
				onlyOracle, onlyGenerated, err := DiffGenerators(db, f.View, r)
				if err != nil {
					t.Fatalf("parent selected %v, %s, %s: %v", parentSelected, in.name, r, err)
				}
				if len(onlyOracle)+len(onlyGenerated) > 0 {
					t.Errorf("parent selected %v, %s, %s:\noracle only: %q\ngenerators only: %q",
						parentSelected, in.name, r, onlyOracle, onlyGenerated)
				}
			}
		}
	}
}

// TestDiamondOffersOnlyAcceptableTranslations: on the rooted-DAG
// diamond over keys {1,2}, for every valid request E16 draws, every
// candidate Enumerate offers is in the oracle's acceptable set, and a
// request whose generated candidates all have a view side effect is
// refused rather than translated: four insertions, whose SPJ-I
// candidates replace a shared A or B tuple in place and so drop another
// row from the view, and four key-moving replaces, whose SPJ-R
// candidates all delete ROOT 1. The oracle accepts translations of
// three of those replaces that SPJ-R does not generate; E16 reports
// them.
func TestDiamondOffersOnlyAcceptableTranslations(t *testing.T) {
	d := fixtures.NewDiamondOver(2, 2)
	db := d.Load()
	rows := d.View.Materialize(db).Slice()
	var reqs []core.Request
	for _, u := range AllTuples(d.View.Schema()) {
		reqs = append(reqs, core.InsertRequest(u))
		for _, old := range rows {
			reqs = append(reqs, core.ReplaceRequest(old, u))
		}
	}
	for _, old := range rows {
		reqs = append(reqs, core.DeleteRequest(old))
	}
	valid, refused := 0, 0
	for _, r := range reqs {
		if core.ValidateRequest(db, d.View, r) != nil {
			continue
		}
		valid++
		_, onlyGenerated, err := DiffGenerators(db, d.View, r)
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		if len(onlyGenerated) > 0 {
			t.Errorf("%s: offers translations the oracle rejects: %q", r, onlyGenerated)
		}
		if _, err := core.NewTranslator(d.View, nil).Translate(db, r); err != nil {
			if !errors.Is(err, core.ErrNoCandidates) {
				t.Fatalf("%s: %v", r, err)
			}
			refused++
		}
	}
	if valid != 48 || refused != 8 {
		t.Fatalf("%d valid requests, %d refused; want 48 and 8", valid, refused)
	}
}
