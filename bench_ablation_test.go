package viewupdate

// Ablation benchmarks for the design decisions called out in DESIGN.md:
// the incremental inclusion-dependency index vs full rescans, the cost
// of each of the five criteria checkers, enumeration vs policy-driven
// translation, and validity checking (clone + materialize) vs pure
// translation.

import (
	"fmt"
	"testing"

	"viewupdate/internal/core"
	"viewupdate/internal/fixtures"
	"viewupdate/internal/update"
	"viewupdate/internal/workload"
)

// BenchmarkAblationInclusionIndex compares the delta-checked apply path
// (incremental reference index) against a full inclusion rescan, at
// growing child-relation sizes.
func BenchmarkAblationInclusionIndex(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		w := workload.MustNewTree(workload.TreeConfig{
			Depth: 1, Fanout: 1, Keys: int64(n * 2), TuplesPerRelation: n, Seed: 21,
		})
		child := w.Relations[0]
		// A key-preserving payload replacement on a child tuple.
		t0 := w.DB.Tuples(child.Name())[0]
		alt := t0.MustWith("P0", pickOther(t0, child, "P0"))
		fwd := update.NewTranslation(update.NewReplace(t0, alt))
		rev := update.NewTranslation(update.NewReplace(alt, t0))
		b.Run(fmt.Sprintf("delta-index/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := w.DB.Apply(fwd); err != nil {
					b.Fatal(err)
				}
				if err := w.DB.Apply(rev); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("full-rescan/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := w.DB.Apply(fwd); err != nil {
					b.Fatal(err)
				}
				if err := w.DB.CheckAllInclusions(); err != nil {
					b.Fatal(err)
				}
				if err := w.DB.Apply(rev); err != nil {
					b.Fatal(err)
				}
				if err := w.DB.CheckAllInclusions(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func pickOther(t interface{ MustGet(string) Value }, rel *Relation, attr string) Value {
	cur := t.MustGet(attr)
	a, _ := rel.Attribute(attr)
	for _, v := range a.Domain.Values() {
		if v != cur {
			return v
		}
	}
	return cur
}

// BenchmarkAblationCriteria measures each criterion checker separately
// on a two-op R-4 translation (the most expensive shape the classes
// produce).
func BenchmarkAblationCriteria(b *testing.B) {
	f := fixtures.NewEmp(20)
	db := f.PaperInstance()
	old := f.ViewTuple(f.ViewP, 17, "Susan", "New York", true)
	new := f.ViewTuple(f.ViewP, 11, "Susan", "New York", true)
	r := core.ReplaceRequest(old, new)
	cands, err := core.Enumerate(db, f.ViewP, r)
	if err != nil {
		b.Fatal(err)
	}
	var tr *Translation
	for _, c := range cands {
		if c.Translation.Len() == 2 {
			tr = c.Translation
			break
		}
	}
	if tr == nil {
		b.Fatal("no two-op candidate")
	}
	validFn := func(t *Translation) bool { return core.Valid(db, f.ViewP, r, t) }
	// The full check (all five criteria).
	b.Run("all-five", func(b *testing.B) {
		opts := core.CheckOptions{Valid: validFn}
		for i := 0; i < b.N; i++ {
			if v := core.CheckCriteria(db, f.ViewP, r, tr, opts); len(v) != 0 {
				b.Fatal("unexpected violation")
			}
		}
	})
	// Criteria 3 and 4 dominate (they quantify over alternatives); the
	// structural criteria alone are near-free. Approximate the split by
	// checking with a constant-false validity (criteria 3/4 short out).
	b.Run("structural-only", func(b *testing.B) {
		opts := core.CheckOptions{Valid: func(*Translation) bool { return false }}
		for i := 0; i < b.N; i++ {
			if v := core.CheckCriteria(db, f.ViewP, r, tr, opts); len(v) != 0 {
				b.Fatal("unexpected violation")
			}
		}
	})
}

// BenchmarkAblationTranslateVsVerify separates the cost of enumerating
// translations from the cost of verifying one (clone + apply +
// materialize + compare), which grows with the database.
func BenchmarkAblationTranslateVsVerify(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		w := workload.MustNewSP(workload.SPConfig{
			Keys: int64(n * 2), Attrs: 3, DomainSize: 4,
			SelectingAttrs: 1, HiddenAttrs: 1, Tuples: n, Seed: 33,
		})
		r, ok := w.NextRequest(update.Delete)
		if !ok {
			b.Fatal("no request")
		}
		cands, err := core.Enumerate(w.DB, w.View, r)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("translate/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Enumerate(w.DB, w.View, r); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("verify/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !core.Valid(w.DB, w.View, r, cands[0].Translation) {
					b.Fatal("invalid")
				}
			}
		})
	}
}

// BenchmarkAblationSecondaryIndex compares view materialization with
// and without a secondary index on the selecting attribute, across
// database sizes and selectivities.
func BenchmarkAblationSecondaryIndex(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		for _, frac := range []float64{0.5, 0.05} {
			w := workload.MustNewSP(workload.SPConfig{
				Keys: int64(n * 2), Attrs: 3, DomainSize: 4,
				SelectingAttrs: 1, HiddenAttrs: 0, Tuples: n,
				VisibleFraction: frac, Seed: 77,
			})
			b.Run(fmt.Sprintf("scan/n=%d/vis=%.2f", n, frac), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w.View.Materialize(w.DB)
				}
			})
			if err := w.DB.CreateIndex("R", "A0"); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("index/n=%d/vis=%.2f", n, frac), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w.View.Materialize(w.DB)
				}
			})
		}
	}
}

// BenchmarkAblationPolicyOverhead compares raw enumeration with
// policy-driven translation (enumerate + choose) for the three
// policies.
func BenchmarkAblationPolicyOverhead(b *testing.B) {
	f := fixtures.NewEmp(20)
	db := f.PaperInstance()
	u := f.ViewTuple(f.ViewP, 17, "Susan", "New York", true)
	r := core.DeleteRequest(u)
	policies := []core.Policy{
		core.Simplest{},
		core.PreferClasses{Order: []string{"D-2", "D-1"}},
		core.WithDefaults{Base: core.Simplest{}, Defaults: map[string]Value{"Location": Str("San Francisco")}},
	}
	b.Run("enumerate-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Enumerate(db, f.ViewP, r); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, p := range policies {
		b.Run(p.Name(), func(b *testing.B) {
			tr := core.NewTranslator(f.ViewP, p)
			for i := 0; i < b.N; i++ {
				if _, err := tr.Translate(db, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
