package viewupdate

// One benchmark per experiment of DESIGN.md §3 (E1..E15). Each bench
// regenerates the measured portion of its experiment; the experiment
// harness (cmd/experiments) prints the corresponding tables.

import (
	"fmt"
	"testing"

	"viewupdate/internal/algebra"
	"viewupdate/internal/bruteforce"
	"viewupdate/internal/core"
	"viewupdate/internal/fixtures"
	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/workload"
)

// BenchmarkE1Commutativity measures translate-apply-verify round trips
// (the §1 diagram) on SP views across database sizes.
func BenchmarkE1Commutativity(b *testing.B) {
	for _, size := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("db=%d", size), func(b *testing.B) {
			w := workload.MustNewSP(workload.SPConfig{
				Keys: int64(size * 2), Attrs: 4, DomainSize: 6,
				SelectingAttrs: 2, HiddenAttrs: 2, Tuples: size, Seed: 42,
			})
			r, ok := w.NextRequest(update.Delete)
			if !ok {
				b.Fatal("no request")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cands, err := core.Enumerate(w.DB, w.View, r)
				if err != nil {
					b.Fatal(err)
				}
				chosen, err := (core.Simplest{}).Choose(r, cands)
				if err != nil {
					b.Fatal(err)
				}
				if !core.Valid(w.DB, w.View, r, chosen.Translation) {
					b.Fatal("not exactly valid")
				}
			}
		})
	}
}

// BenchmarkE2PersonnelExample measures the §4-1 worked example: both
// policy-driven deletions on a fresh instance per iteration.
func BenchmarkE2PersonnelExample(b *testing.B) {
	f := fixtures.NewEmp(20)
	susan := core.NewTranslator(f.ViewP, core.PreferClasses{Order: []string{"D-1"}})
	frank := core.NewTranslator(f.ViewB, core.PreferClasses{Order: []string{"D-2"}})
	base := f.PaperInstance()
	emp17 := f.ViewTuple(f.ViewP, 17, "Susan", "New York", true)
	emp14 := f.ViewTuple(f.ViewB, 14, "Frank", "San Francisco", true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := base.Clone()
		if _, err := susan.Apply(db, core.DeleteRequest(emp17)); err != nil {
			b.Fatal(err)
		}
		if _, err := frank.Apply(db, core.DeleteRequest(emp14)); err != nil {
			b.Fatal(err)
		}
	}
}

// e3DB rebuilds the §4-5 chart fixture.
func e3DB(b *testing.B) (*core.Translator, *storage.Database, tuple.T, tuple.T, tuple.T) {
	b.Helper()
	kDom, _ := schema.IntRangeDomain("K", 1, 3)
	bDom, _ := schema.StringDomain("B", "b1", "b2")
	sDom, _ := schema.StringDomain("S", "s1", "s2", "s3")
	rel := schema.MustRelation("R", []schema.Attribute{
		{Name: "K", Domain: kDom}, {Name: "B", Domain: bDom}, {Name: "S", Domain: sDom},
	}, []string{"K"})
	sch := schema.NewDatabase()
	if err := sch.AddRelation(rel); err != nil {
		b.Fatal(err)
	}
	sel := algebra.NewSelection(rel).MustAddTerm("S", value.NewString("s1"), value.NewString("s2"))
	v, err := NewSPView("V", sel, []string{"K", "B"})
	if err != nil {
		b.Fatal(err)
	}
	db := Open(sch)
	if err := db.Load("R",
		tuple.MustNew(rel, value.NewInt(1), value.NewString("b1"), value.NewString("s1")),
		tuple.MustNew(rel, value.NewInt(2), value.NewString("b2"), value.NewString("s3")),
	); err != nil {
		b.Fatal(err)
	}
	vt := func(k int64, s string) tuple.T {
		return tuple.MustNew(v.Schema(), value.NewInt(k), value.NewString(s))
	}
	return core.NewTranslator(v, nil), db, vt(1, "b1"), vt(3, "b1"), vt(2, "b1")
}

// BenchmarkE3ReplacementChart measures replacement enumeration in the
// chart's three conditions.
func BenchmarkE3ReplacementChart(b *testing.B) {
	tr, db, old, freshKey, hiddenKey := e3DB(b)
	sp := tr.View.(*SPView)
	cases := []struct {
		name     string
		old, new tuple.T
	}{
		{"same-key", old, old.MustWith("B", value.NewString("b2"))},
		{"key-fresh", old, freshKey},
		{"key-hidden", old, hiddenKey},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.EnumerateSPReplace(db, sp, c.old, c.new); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4ReferenceConnection measures materialization and SPJ
// translation on the §5-1 figure.
func BenchmarkE4ReferenceConnection(b *testing.B) {
	f := fixtures.NewABCXD()
	db := f.PaperInstance()
	row := f.ViewTuple("c1", "a", 3, 1)
	b.Run("materialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.View.Materialize(db)
		}
	})
	b.Run("spj-delete", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.EnumerateJoinDelete(db, f.View, row); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("spj-insert", func(b *testing.B) {
		u := f.ViewTuple("c3", "a1", 5, 7)
		for i := 0; i < b.N; i++ {
			if _, err := core.EnumerateJoinInsert(db, f.View, u); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// oracleBenchInstance builds the tiny completeness instance.
func oracleBenchInstance(b *testing.B) (*SPView, *storage.Database, tuple.T) {
	b.Helper()
	kDom, _ := schema.IntRangeDomain("K", 1, 3)
	aDom, _ := schema.StringDomain("A", "x", "y")
	sDom, _ := schema.StringDomain("S", "s1", "s2", "s3")
	hDom, _ := schema.StringDomain("H", "h1", "h2")
	rel := schema.MustRelation("R", []schema.Attribute{
		{Name: "K", Domain: kDom}, {Name: "A", Domain: aDom},
		{Name: "S", Domain: sDom}, {Name: "H", Domain: hDom},
	}, []string{"K"})
	sch := schema.NewDatabase()
	if err := sch.AddRelation(rel); err != nil {
		b.Fatal(err)
	}
	sel := algebra.NewSelection(rel).
		MustAddTerm("A", value.NewString("x")).
		MustAddTerm("S", value.NewString("s1"), value.NewString("s2"))
	v, err := NewSPView("V", sel, []string{"K", "A"})
	if err != nil {
		b.Fatal(err)
	}
	db := Open(sch)
	if err := db.Load("R",
		tuple.MustNew(rel, value.NewInt(1), value.NewString("x"), value.NewString("s1"), value.NewString("h1")),
		tuple.MustNew(rel, value.NewInt(2), value.NewString("y"), value.NewString("s3"), value.NewString("h2")),
	); err != nil {
		b.Fatal(err)
	}
	u := tuple.MustNew(v.Schema(), value.NewInt(3), value.NewString("x"))
	return v, db, u
}

// benchOracleVsGenerator runs both sides of a completeness experiment.
func benchOracleVsGenerator(b *testing.B, mk func(v *SPView, u tuple.T) core.Request) {
	v, db, u := oracleBenchInstance(b)
	r := mk(v, u)
	b.Run("generator", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Enumerate(db, v, r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bruteforce.Search(db, v, r, bruteforce.Config{MaxOps: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE5InsertCompleteness measures generator vs oracle for the
// insertion theorem.
func BenchmarkE5InsertCompleteness(b *testing.B) {
	benchOracleVsGenerator(b, func(v *SPView, u tuple.T) core.Request {
		return core.InsertRequest(u)
	})
}

// BenchmarkE6DeleteCompleteness measures generator vs oracle for the
// deletion theorem.
func BenchmarkE6DeleteCompleteness(b *testing.B) {
	benchOracleVsGenerator(b, func(v *SPView, u tuple.T) core.Request {
		return core.DeleteRequest(tuple.MustNew(v.Schema(), value.NewInt(1), value.NewString("x")))
	})
}

// BenchmarkE7ReplaceCompleteness measures generator vs oracle for the
// replacement theorem.
func BenchmarkE7ReplaceCompleteness(b *testing.B) {
	benchOracleVsGenerator(b, func(v *SPView, u tuple.T) core.Request {
		return core.ReplaceRequest(
			tuple.MustNew(v.Schema(), value.NewInt(1), value.NewString("x")), u)
	})
}

// BenchmarkE8CriteriaIndependence measures the five-criteria check on a
// two-op translation.
func BenchmarkE8CriteriaIndependence(b *testing.B) {
	f := fixtures.NewEmp(20)
	db := f.PaperInstance()
	old := f.ViewTuple(f.ViewP, 17, "Susan", "New York", true)
	new := f.ViewTuple(f.ViewP, 11, "Susan", "New York", true)
	r := core.ReplaceRequest(old, new)
	cands, err := core.Enumerate(db, f.ViewP, r)
	if err != nil {
		b.Fatal(err)
	}
	var biggest *Translation
	for _, c := range cands {
		if biggest == nil || c.Translation.Len() > biggest.Len() {
			biggest = c.Translation
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if viols := core.CheckCriteria(db, f.ViewP, r, biggest, core.CheckOptions{}); len(viols) != 0 {
			b.Fatalf("unexpected violations: %v", viols)
		}
	}
}

// BenchmarkE9SPJUniqueness measures join-view translation across tree
// depths.
func BenchmarkE9SPJUniqueness(b *testing.B) {
	for _, depth := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			w := workload.MustNewTree(workload.TreeConfig{
				Depth: depth, Fanout: 1, Keys: 100, TuplesPerRelation: 20, Seed: 13,
			})
			r, ok := w.InsertRequestForFreshRoot()
			if !ok {
				b.Fatal("no request")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cands, err := core.Enumerate(w.DB, w.View, r)
				if err != nil {
					b.Fatal(err)
				}
				if len(cands) != 1 {
					b.Fatalf("want unique candidate, got %d", len(cands))
				}
			}
		})
	}
}

// BenchmarkE10SPJNF measures normalization plus evaluation of the
// figure's join expression.
func BenchmarkE10SPJNF(b *testing.B) {
	f := fixtures.NewABCXD()
	db := f.PaperInstance()
	expr := algebra.Select{
		Input: algebra.Join{
			Left: algebra.Rel{Name: "CXD"}, Right: algebra.Rel{Name: "AB"},
			LeftAttrs: []string{"X"}, RightAttrs: []string{"A"},
		},
		Attr: "B", Vals: []value.Value{value.NewInt(1)},
	}
	b.Run("normalize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algebra.Normalize(expr, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("eval-normalized", func(b *testing.B) {
		n, err := algebra.Normalize(expr, db)
		if err != nil {
			b.Fatal(err)
		}
		e := n.Expr()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Eval(db); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11Composition measures union-apply of two disjoint-view
// translations.
func BenchmarkE11Composition(b *testing.B) {
	f := fixtures.NewABCXD()
	base := Open(f.Schema)
	if err := base.LoadAll(f.ABTuple("a", 1), f.ABTuple("a2", 2), f.CXDTuple("c1", "a", 3)); err != nil {
		b.Fatal(err)
	}
	v1 := IdentityView("V1", f.CXD)
	v2 := IdentityView("V2", f.AB)
	u1 := tuple.MustNew(v1.Schema(), value.NewString("c1"), value.NewString("a"), value.NewInt(3))
	old2 := tuple.MustNew(v2.Schema(), value.NewString("a2"), value.NewInt(2))
	new2 := tuple.MustNew(v2.Schema(), value.NewString("a2"), value.NewInt(1))
	c1s, err := core.EnumerateSP(base, v1, core.DeleteRequest(u1))
	if err != nil {
		b.Fatal(err)
	}
	c2s, err := core.EnumerateSP(base, v2, core.ReplaceRequest(old2, new2))
	if err != nil {
		b.Fatal(err)
	}
	union := c1s[0].Translation.Clone()
	union.AddAll(c2s[0].Translation)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := base.Clone()
		if err := db.Apply(union); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12Scaling measures insert translation across database
// sizes (flat) and hidden-attribute choice spaces (multiplicative).
func BenchmarkE12Scaling(b *testing.B) {
	for _, size := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("db=%d", size), func(b *testing.B) {
			w := workload.MustNewSP(workload.SPConfig{
				Keys: int64(size * 2), Attrs: 3, DomainSize: 4,
				SelectingAttrs: 1, HiddenAttrs: 1, Tuples: size, Seed: 5,
			})
			r, ok := w.NextRequest(update.Insert)
			if !ok {
				b.Fatal("no request")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Enumerate(w.DB, w.View, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, hidden := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("hidden=%d", hidden), func(b *testing.B) {
			w := workload.MustNewSP(workload.SPConfig{
				Keys: 2000, Attrs: 4, DomainSize: 4,
				SelectingAttrs: 0, HiddenAttrs: hidden, Tuples: 500, Seed: 6,
			})
			r, ok := w.NextRequest(update.Insert)
			if !ok {
				b.Fatal("no request")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Enumerate(w.DB, w.View, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE14Simplification measures the simplification-theorem
// check: exhaustive valid-set search plus dominance testing under the
// combined order.
func BenchmarkE14Simplification(b *testing.B) {
	v, db, u := oracleBenchInstance(b)
	r := core.InsertRequest(u)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bruteforce.CheckSimplification(db, v, r, bruteforce.Config{MaxOps: 2})
		if err != nil {
			b.Fatal(err)
		}
		if res.ChainFailures != 0 {
			b.Fatal("simplification theorem failed")
		}
	}
}

// BenchmarkE13EnumVsBrute contrasts generator and oracle costs as the
// domain grows.
func BenchmarkE13EnumVsBrute(b *testing.B) {
	v, db, u := oracleBenchInstance(b)
	r := core.InsertRequest(u)
	b.Run("generator", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Enumerate(db, v, r); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, maxOps := range []int{1, 2} {
		b.Run(fmt.Sprintf("oracle-ops=%d", maxOps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bruteforce.Search(db, v, r, bruteforce.Config{MaxOps: maxOps}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE15DAG measures materialization and SPJ translation over
// the diamond DAG of the §5-1 footnote extension.
func BenchmarkE15DAG(b *testing.B) {
	d := fixtures.NewDiamond()
	db := d.ConvergentInstance()
	b.Run("materialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.View.Materialize(db)
		}
	})
	b.Run("spj-insert", func(b *testing.B) {
		u := d.ViewTuple(3, 7, 8, 9, 2)
		for i := 0; i < b.N; i++ {
			if _, err := core.EnumerateJoinInsert(db, d.View, u); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("spj-replace", func(b *testing.B) {
		old := d.ViewTuple(1, 1, 2, 5, 0)
		new := d.ViewTuple(1, 1, 2, 5, 3)
		for i := 0; i < b.N; i++ {
			if _, err := core.EnumerateJoinReplace(db, d.View, old, new); err != nil {
				b.Fatal(err)
			}
		}
	})
}
