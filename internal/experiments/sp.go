package experiments

import (
	"fmt"

	"viewupdate/internal/core"
	"viewupdate/internal/fixtures"
	"viewupdate/internal/report"
	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/workload"
)

// E1Commutativity reproduces the §1 diagram: for SP views, the chosen
// translation must make the square commute — V(T(U)(DB)) = U(V(DB)),
// i.e. no view side effects — across database sizes and update kinds.
func E1Commutativity() Experiment {
	return Experiment{
		ID:      "E1",
		Title:   "Commutativity of translation (no view side effects)",
		Exhibit: "§1 diagram: V(DB') = U(V(DB))",
		Run: func() (*report.Table, bool, error) {
			t := report.New("E1 — exact view-update commutativity on SP views",
				"db_tuples", "kind", "requests", "exact", "mean_candidates")
			allOK := true
			const perKind = 25
			for _, size := range []int{100, 1000, 10000} {
				w, err := workload.NewSP(workload.SPConfig{
					Keys: int64(size * 2), Attrs: 4, DomainSize: 6,
					SelectingAttrs: 2, HiddenAttrs: 2, Tuples: size, Seed: 42,
				})
				if err != nil {
					return nil, false, err
				}
				for _, kind := range []update.Kind{update.Insert, update.Delete, update.Replace} {
					exact, total, cands := 0, 0, 0
					for i := 0; i < perKind; i++ {
						r, ok := w.NextRequest(kind)
						if !ok {
							continue
						}
						cs, err := core.Enumerate(w.DB, w.View, r)
						if err != nil {
							return nil, false, fmt.Errorf("E1 enumerate: %w", err)
						}
						chosen, err := (core.Simplest{}).Choose(r, cs)
						if err != nil {
							return nil, false, err
						}
						total++
						cands += len(cs)
						if core.Valid(w.DB, w.View, r, chosen.Translation) {
							exact++
						}
					}
					if exact != total {
						allOK = false
					}
					mean := 0.0
					if total > 0 {
						mean = float64(cands) / float64(total)
					}
					t.AddRow(size, kind.String(), total, fmt.Sprintf("%d/%d", exact, total), mean)
				}
			}
			t.Note = "exact = translations with V(DB') exactly U(V(DB)); the paper requires all of them for SP views"
			return t, allOK, nil
		},
	}
}

// E2Personnel reproduces the §4-1 worked example: Susan's and Frank's
// deletions of employees #17 and #14 under their respective policies.
func E2Personnel() Experiment {
	return Experiment{
		ID:      "E2",
		Title:   "Personnel example (Susan and Frank)",
		Exhibit: "§4-1 EMP worked example",
		Run: func() (*report.Table, bool, error) {
			t := report.New("E2 — §4-1 view deletions under DBA policies",
				"actor", "view", "request", "class", "database effect")
			f := fixtures.NewEmp(20)
			ok := true

			// Susan deletes #17 from View P; policy: real deletion.
			db := f.PaperInstance()
			susan := core.NewTranslator(f.ViewP, core.PreferClasses{Label: "susan", Order: []string{"D-1"}})
			emp17 := f.ViewTuple(f.ViewP, 17, "Susan", "New York", true)
			c, err := susan.Apply(db, core.DeleteRequest(emp17))
			if err != nil {
				return nil, false, err
			}
			gone := !db.Contains(f.Tuple(17, "Susan", "New York", true))
			offTeam := !f.ViewB.Materialize(db).Contains(f.ViewTuple(f.ViewB, 17, "Susan", "New York", true))
			ok = ok && c.Class == "D-1" && gone && offTeam
			t.AddRow("Susan", "ViewP (Location='New York')", "delete #17", c.Class,
				fmt.Sprintf("record deleted; off baseball view too: %v", offTeam))

			// Frank deletes #14 from View B; policy: flip the attribute.
			db = f.PaperInstance()
			frank := core.NewTranslator(f.ViewB, core.PreferClasses{Label: "frank", Order: []string{"D-2"}})
			emp14 := f.ViewTuple(f.ViewB, 14, "Frank", "San Francisco", true)
			c, err = frank.Apply(db, core.DeleteRequest(emp14))
			if err != nil {
				return nil, false, err
			}
			kept := db.Contains(f.Tuple(14, "Frank", "San Francisco", false))
			ok = ok && c.Class == "D-2" && kept
			t.AddRow("Frank", "ViewB (Baseball=true)", "delete #14", c.Class,
				fmt.Sprintf("employee kept, Baseball := false: %v", kept))

			// The discouraged translation exists as a candidate: moving
			// #17 to San Francisco (D-2 on ViewP).
			db = f.PaperInstance()
			cands, err := core.EnumerateSPDelete(db, f.ViewP, emp17)
			if err != nil {
				return nil, false, err
			}
			var d2 string
			for _, cand := range cands {
				if cand.Class == "D-2" {
					d2 = cand.Translation.String()
				}
			}
			ok = ok && d2 != ""
			t.AddRow("(candidate)", "ViewP", "delete #17", "D-2",
				"\"move to California\" alternative enumerated, policy-rejected")
			t.Note = "the paper: a view deletion is sometimes best a database deletion, sometimes a replacement; policy picks"
			return t, ok, nil
		},
	}
}

// E3ReplacementChart reproduces the §4-5 chart: the replacement
// algorithm classes applicable under (key change?) × (hidden key
// conflict?) are exactly {R-1}, {R-2, R-4}, {R-3, R-5}.
func E3ReplacementChart() Experiment {
	return Experiment{
		ID:      "E3",
		Title:   "Replacement algorithm chart",
		Exhibit: "§4-5 chart (R-1 … R-5)",
		Run: func() (*report.Table, bool, error) {
			t := report.New("E3 — §4-5 replacement classes by condition",
				"key_change", "hidden_conflict", "classes", "candidates", "expected")
			sch, rel, v, db := chartFixture()
			_ = sch
			vt := func(k int64, b string) tuple.T {
				return tuple.MustNew(v.Schema(), value.NewInt(k), value.NewString(b))
			}
			_ = rel
			cases := []struct {
				name     string
				old, new tuple.T
				want     map[string]bool
				keyChg   string
				conflict string
			}{
				{"same-key", vt(1, "b1"), vt(1, "b2"), map[string]bool{"R-1": true}, "no", "—"},
				{"key-fresh", vt(1, "b1"), vt(3, "b1"), map[string]bool{"R-2": true, "R-4": true}, "yes", "no"},
				{"key-hidden", vt(1, "b1"), vt(2, "b1"), map[string]bool{"R-3": true, "R-5": true}, "yes", "yes"},
			}
			allOK := true
			for _, c := range cases {
				cands, err := core.EnumerateSPReplace(db, v, c.old, c.new)
				if err != nil {
					return nil, false, err
				}
				got := map[string]bool{}
				for _, cand := range cands {
					got[cand.Class] = true
				}
				match := len(got) == len(c.want)
				for cls := range c.want {
					if !got[cls] {
						match = false
					}
				}
				allOK = allOK && match
				t.AddRow(c.keyChg, c.conflict, classSet(got), len(cands), classSet(c.want))
			}
			t.Note = "chart rows: no key change -> R-1; key change x no conflict -> {R-2,R-4}; key change x conflict -> {R-3,R-5}"
			return t, allOK, nil
		},
	}
}

// chartFixture builds R(K*, B, S) with a selection on hidden S, one
// visible tuple (key 1) and one hidden tuple (key 2).
func chartFixture() (*schema.Database, *schema.Relation, *viewSP, *storage.Database) {
	kDom, err := schema.IntRangeDomain("K", 1, 3)
	if err != nil {
		panic(err)
	}
	bDom, err := schema.StringDomain("B", "b1", "b2")
	if err != nil {
		panic(err)
	}
	sDom, err := schema.StringDomain("S", "s1", "s2", "s3")
	if err != nil {
		panic(err)
	}
	rel := schema.MustRelation("R", []schema.Attribute{
		{Name: "K", Domain: kDom},
		{Name: "B", Domain: bDom},
		{Name: "S", Domain: sDom},
	}, []string{"K"})
	sch := schema.NewDatabase()
	if err := sch.AddRelation(rel); err != nil {
		panic(err)
	}
	sel := newSelection(rel, "S", value.NewString("s1"), value.NewString("s2"))
	v := mustSP("V", sel, []string{"K", "B"})
	db := storage.Open(sch)
	if err := db.Load("R",
		tuple.MustNew(rel, value.NewInt(1), value.NewString("b1"), value.NewString("s1")),
		tuple.MustNew(rel, value.NewInt(2), value.NewString("b2"), value.NewString("s3")),
	); err != nil {
		panic(err)
	}
	return sch, rel, v, db
}

func classSet(m map[string]bool) string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	if len(names) == 0 {
		return "{}"
	}
	// Small fixed-order render.
	order := []string{"R-1", "R-2", "R-3", "R-4", "R-5"}
	out := ""
	for _, o := range order {
		if m[o] {
			if out != "" {
				out += ","
			}
			out += o
		}
	}
	if out == "" {
		for _, n := range names {
			if out != "" {
				out += ","
			}
			out += n
		}
	}
	return "{" + out + "}"
}
