package core_test

import (
	"strings"
	"testing"

	"viewupdate/internal/core"
	"viewupdate/internal/fixtures"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/workload"
)

func TestMakeRow(t *testing.T) {
	f := fixtures.NewEmp(20)
	row, err := core.MakeRow(f.Rel, 1, "Alice", "New York", true)
	if err != nil {
		t.Fatal(err)
	}
	if row.MustGet("Name") != value.NewString("Alice") {
		t.Fatal("core.MakeRow values wrong")
	}
	// int64 and value.Value also accepted.
	if _, err := core.MakeRow(f.Rel, int64(2), "Bob", value.NewString("New York"), false); err != nil {
		t.Fatal(err)
	}
	// Errors: arity, unsupported type, domain violation.
	if _, err := core.MakeRow(f.Rel, 1, "Alice"); err == nil {
		t.Fatal("arity should fail")
	}
	if _, err := core.MakeRow(f.Rel, 1.5, "Alice", "New York", true); err == nil {
		t.Fatal("float should fail")
	}
	if _, err := core.MakeRow(f.Rel, 1, "NotAName", "New York", true); err == nil {
		t.Fatal("domain violation should fail")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("core.MustRow should panic on error")
			}
		}()
		core.MustRow(f.Rel, 1)
	}()
}

func TestTranslatorRow(t *testing.T) {
	f := fixtures.NewEmp(20)
	tr := core.NewTranslator(f.ViewP, nil) // nil policy defaults to core.Simplest
	row, err := tr.Row(1, "Alice", "New York", true)
	if err != nil {
		t.Fatal(err)
	}
	if row.Relation() != f.ViewP.Schema() {
		t.Fatal("Row should build view-schema tuples")
	}
	if tr.Policy == nil {
		t.Fatal("nil policy should default")
	}
}

func TestTranslatorApplyRejectsInvalid(t *testing.T) {
	f := fixtures.NewEmp(20)
	db := f.PaperInstance()
	tr := core.NewTranslator(f.ViewP, core.Simplest{})
	// Deleting a row that is not in the view fails at validation.
	ghost := f.ViewTuple(f.ViewP, 19, "Judy", "New York", false)
	if _, err := tr.Apply(db, core.DeleteRequest(ghost)); err == nil {
		t.Fatal("invalid request should fail")
	}
	if db.Len("EMP") != 5 {
		t.Fatal("failed request must not change the database")
	}
}

func TestCheckCandidatesRelaxedMode(t *testing.T) {
	f := fixtures.NewABCXD()
	db := f.PaperInstance()
	// A side-effecting join insert: the side effect is the one §5
	// admits, so the candidates pass.
	u := f.ViewTuple("c4", "a", 6, 9) // parent (a,1) conflicts -> Case 3
	r := core.InsertRequest(u)
	cands, err := core.EnumerateJoinInsert(db, f.View, u)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.CheckCandidates(db, f.View, r, cands, false); err != nil {
		t.Fatalf("Case 3 candidates should pass: %v", err)
	}
}

func TestCandidateString(t *testing.T) {
	f := fixtures.NewEmp(20)
	db := f.PaperInstance()
	u := f.ViewTuple(f.ViewP, 17, "Susan", "New York", true)
	cands, err := core.EnumerateSPDelete(db, f.ViewP, u)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		s := c.String()
		if !strings.Contains(s, c.Class) {
			t.Fatalf("String misses class: %q", s)
		}
		if c.Class == "D-2" && !strings.Contains(s, "Location=") {
			t.Fatalf("D-2 String misses choices: %q", s)
		}
	}
	if core.DescribeCandidates(cands) == "" {
		t.Fatal("core.DescribeCandidates empty")
	}
}

func TestRequestStringAndSets(t *testing.T) {
	f := fixtures.NewEmp(20)
	u1 := f.ViewTuple(f.ViewP, 1, "Alice", "New York", false)
	u2 := f.ViewTuple(f.ViewP, 2, "Bob", "New York", false)
	cases := []struct {
		r       core.Request
		kind    string
		added   int
		removed int
	}{
		{core.InsertRequest(u1), "view-insert", 1, 0},
		{core.DeleteRequest(u1), "view-delete", 0, 1},
		{core.ReplaceRequest(u1, u2), "view-replace", 1, 1},
	}
	for _, c := range cases {
		if !strings.HasPrefix(c.r.String(), c.kind) {
			t.Fatalf("String = %q", c.r.String())
		}
		if len(c.r.AddedTuples()) != c.added || len(c.r.RemovedTuples()) != c.removed {
			t.Fatalf("sets wrong for %s", c.r)
		}
		if len(c.r.Mentioned()) != c.added+c.removed {
			t.Fatalf("Mentioned wrong for %s", c.r)
		}
	}
}

// TestPropertyAllCandidatesSatisfyTheorems sweeps seeded random SP
// workloads and checks, for every request kind, that the generated
// candidate set is non-empty, every candidate is exactly valid, and
// every candidate passes the five criteria — the completeness
// theorems' soundness half on larger instances than the oracle can
// reach.
func TestPropertyAllCandidatesSatisfyTheorems(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in -short mode")
	}
	configs := []workload.SPConfig{
		{Keys: 40, Attrs: 2, DomainSize: 3, SelectingAttrs: 1, HiddenAttrs: 0, Tuples: 15},
		{Keys: 40, Attrs: 3, DomainSize: 3, SelectingAttrs: 2, HiddenAttrs: 1, Tuples: 15},
		{Keys: 40, Attrs: 4, DomainSize: 4, SelectingAttrs: 2, HiddenAttrs: 2, Tuples: 20},
		{Keys: 60, Attrs: 5, DomainSize: 3, SelectingAttrs: 3, HiddenAttrs: 3, Tuples: 25},
	}
	kinds := []update.Kind{update.Insert, update.Delete, update.Replace}
	for ci, cfg := range configs {
		for seed := int64(0); seed < 3; seed++ {
			cfg.Seed = 100*int64(ci) + seed
			w, err := workload.NewSP(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range kinds {
				for i := 0; i < 4; i++ {
					r, ok := w.NextRequest(kind)
					if !ok {
						continue
					}
					cands, err := core.Enumerate(w.DB, w.View, r)
					if err != nil {
						t.Fatalf("cfg %d seed %d: enumerate %s: %v", ci, seed, r, err)
					}
					if len(cands) == 0 {
						t.Fatalf("cfg %d seed %d: no candidates for %s", ci, seed, r)
					}
					if err := core.CheckCandidates(w.DB, w.View, r, cands, true); err != nil {
						t.Fatalf("cfg %d seed %d: %v", ci, seed, err)
					}
					// SP views never have view side effects.
					for _, c := range cands {
						eff, err := core.SideEffects(w.DB, w.View, r, c.Translation)
						if err != nil {
							t.Fatalf("cfg %d seed %d: side effects: %v", ci, seed, err)
						}
						if !eff.None() {
							t.Fatalf("cfg %d seed %d: SP candidate %s has side effects %s", ci, seed, c, eff)
						}
					}
				}
			}
		}
	}
}

// TestPropertyJoinCandidatesApplyCleanly sweeps random trees and
// verifies join-view candidates apply and realize the requested change.
func TestPropertyJoinCandidatesApplyCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep skipped in -short mode")
	}
	shapes := []workload.TreeConfig{
		{Depth: 1, Fanout: 1, Keys: 40, TuplesPerRelation: 10},
		{Depth: 2, Fanout: 2, Keys: 40, TuplesPerRelation: 8},
		{Depth: 3, Fanout: 1, Keys: 40, TuplesPerRelation: 8},
	}
	for si, shape := range shapes {
		for seed := int64(0); seed < 3; seed++ {
			shape.Seed = 10*int64(si) + seed
			w, err := workload.NewTree(shape)
			if err != nil {
				t.Fatal(err)
			}
			// Delete.
			row, ok := w.RandomRow()
			if !ok {
				t.Fatal("empty view")
			}
			r := core.DeleteRequest(row)
			cands, err := core.Enumerate(w.DB, w.View, r)
			if err != nil {
				t.Fatal(err)
			}
			if len(cands) != 1 {
				t.Fatalf("identity tree wants 1 candidate, got %d", len(cands))
			}
			if !core.Valid(w.DB, w.View, r, cands[0].Translation) {
				t.Fatalf("shape %d seed %d: delete candidate not valid", si, seed)
			}
			// Insert.
			if r, ok := w.InsertRequestForFreshRoot(); ok {
				cands, err := core.Enumerate(w.DB, w.View, r)
				if err != nil {
					t.Fatal(err)
				}
				if !core.Valid(w.DB, w.View, r, cands[0].Translation) {
					t.Fatalf("shape %d seed %d: insert candidate not valid", si, seed)
				}
				if err := w.DB.Apply(cands[0].Translation); err != nil {
					t.Fatalf("shape %d seed %d: apply: %v", si, seed, err)
				}
			}
		}
	}
}
