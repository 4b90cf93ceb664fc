package core

import (
	"testing"

	"viewupdate/internal/algebra"
	"viewupdate/internal/fixtures"
	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
)

func TestValidateSPRequestEdgeCases(t *testing.T) {
	f := fixtures.NewEmp(20)
	db := f.PaperInstance()

	// Wrong schema tuple.
	base := f.Tuple(1, "Alice", "New York", false)
	if err := ValidateRequest(db, f.ViewP, InsertRequest(base)); err == nil {
		t.Fatal("base-schema tuple should be rejected")
	}
	// Insert violating the visible selection.
	sf := f.ViewTuple(f.ViewP, 9, "Ivan", "San Francisco", false)
	if err := ValidateRequest(db, f.ViewP, InsertRequest(sf)); err == nil {
		t.Fatal("selection-violating insert should be rejected")
	}
	// Replace with old == new.
	u := f.ViewTuple(f.ViewP, 17, "Susan", "New York", true)
	if err := ValidateRequest(db, f.ViewP, ReplaceRequest(u, u)); err == nil {
		t.Fatal("no-op replacement should be rejected")
	}
	// Replace whose new tuple violates the selection.
	bad := f.ViewTuple(f.ViewP, 17, "Susan", "San Francisco", true)
	if err := ValidateRequest(db, f.ViewP, ReplaceRequest(u, bad)); err == nil {
		t.Fatal("selection-violating replacement should be rejected")
	}
	// Replace onto a key held by another VISIBLE row.
	carol := f.ViewTuple(f.ViewP, 8, "Susan", "New York", true)
	if err := ValidateRequest(db, f.ViewP, ReplaceRequest(u, carol)); err == nil {
		t.Fatal("replacement onto a visible conflicting key should be rejected")
	}
	// Replace of a row not in the view.
	ghost := f.ViewTuple(f.ViewP, 19, "Judy", "New York", false)
	if err := ValidateRequest(db, f.ViewP, ReplaceRequest(ghost, u)); err == nil {
		t.Fatal("replacing an absent row should be rejected")
	}
	// Invalid request kind.
	if err := ValidateRequest(db, f.ViewP, Request{}); err == nil {
		t.Fatal("zero request should be rejected")
	}
}

func TestApplyToViewSetErrors(t *testing.T) {
	f := fixtures.NewEmp(20)
	u1 := f.ViewTuple(f.ViewP, 1, "Alice", "New York", false)
	u2 := f.ViewTuple(f.ViewP, 2, "Bob", "New York", false)
	s := tuple.NewSet(u1)
	if _, err := InsertRequest(u1).ApplyToViewSet(s); err == nil {
		t.Fatal("inserting a present tuple should fail")
	}
	if _, err := DeleteRequest(u2).ApplyToViewSet(s); err == nil {
		t.Fatal("deleting an absent tuple should fail")
	}
	if _, err := ReplaceRequest(u2, u1).ApplyToViewSet(s); err == nil {
		t.Fatal("replacing an absent tuple should fail")
	}
	if _, err := (Request{}).ApplyToViewSet(s); err == nil {
		t.Fatal("zero request should fail")
	}
	out, err := ReplaceRequest(u1, u2).ApplyToViewSet(s)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Contains(u2) || out.Contains(u1) || s.Contains(u2) {
		t.Fatal("ApplyToViewSet should not mutate the input")
	}
}

// TestJoinCartesianProductCount pins the §5-3 composition count: the
// join-view candidate set is the product of the per-node SP candidate
// sets.
func TestJoinCartesianProductCount(t *testing.T) {
	f := fixtures.NewABCXD()
	// Both nodes carry selections with excluding values, and CXD hides
	// nothing; give AB a hidden selecting attribute via projection of
	// the join view's parent? Simpler: parent SP selects B ∈ {1,2} of
	// 1..9 (excluding 7 values) — D-2-style choices appear on inserts
	// via I-2 only; for inserts the product shows through extend-insert.
	// Use hidden attributes instead: parent view hides B with selection
	// B ∈ {1,2} -> extend-insert has 2 choices; root hides D with D ∈
	// {3,4,5} -> 3 choices. Insert of a fresh row inserting both nodes:
	// 3 × 2 = 6 candidates.
	selCXD := algebra.NewSelection(f.CXD).MustAddTerm("D",
		value.NewInt(3), value.NewInt(4), value.NewInt(5))
	rootSP := view.MustNewSP("CXDh", selCXD, []string{"C", "X"})
	selAB := algebra.NewSelection(f.AB).MustAddTerm("B", value.NewInt(1), value.NewInt(2))
	parentSP := view.MustNewSP("ABh", selAB, []string{"A"})
	parent := &view.Node{SP: parentSP}
	root := &view.Node{SP: rootSP, Refs: []view.Ref{{Attrs: []string{"X"}, Target: parent}}}
	jv, err := view.NewJoin("H", f.Schema, root)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.Open(f.Schema)
	if err := db.LoadAll(f.ABTuple("a", 1), f.CXDTuple("c1", "a", 3)); err != nil {
		t.Fatal(err)
	}
	// Insert (c2, a1, a1): fresh root, fresh parent.
	u, err := MakeRow(jv.Schema(), "c2", "a1", "a1")
	if err != nil {
		t.Fatal(err)
	}
	cands, err := EnumerateJoinInsert(db, jv, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 6 {
		t.Fatalf("want 3 x 2 = 6 candidates, got %d:\n%s", len(cands), DescribeCandidates(cands))
	}
	// Every candidate is distinct and applies cleanly.
	seen := map[string]bool{}
	for _, c := range cands {
		enc := c.Translation.Encode()
		if seen[enc] {
			t.Fatalf("duplicate candidate %s", c)
		}
		seen[enc] = true
		clone := db.Clone()
		if err := clone.Apply(c.Translation); err != nil {
			t.Fatalf("candidate %s failed to apply: %v", c, err)
		}
		if !jv.Materialize(clone).Contains(u) {
			t.Fatalf("candidate %s did not realize the insert", c)
		}
	}
}

// TestCriterion4CapSkipsHugeEnumeration verifies the alternative-space
// cap: on a relation whose non-key space (100 × 100) exceeds
// maxAlternativeSpace, the key-change clause of criterion 4 skips
// enumeration instead of exploding, and the check still passes on a
// legitimate candidate.
func TestCriterion4CapSkipsHugeEnumeration(t *testing.T) {
	kDom, err := schema.IntRangeDomain("K", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	big, err := schema.IntRangeDomain("Big", 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	rel := schema.MustRelation("R", []schema.Attribute{
		{Name: "K", Domain: kDom}, {Name: "A", Domain: big}, {Name: "B", Domain: big},
	}, []string{"K"})
	sch := schema.NewDatabase()
	if err := sch.AddRelation(rel); err != nil {
		t.Fatal(err)
	}
	v := view.Identity("V", rel)
	db := storage.Open(sch)
	if err := db.Load("R", tuple.MustNew(rel, value.NewInt(1), value.NewInt(7), value.NewInt(9))); err != nil {
		t.Fatal(err)
	}
	old := tuple.MustNew(v.Schema(), value.NewInt(1), value.NewInt(7), value.NewInt(9))
	new := tuple.MustNew(v.Schema(), value.NewInt(2), value.NewInt(7), value.NewInt(9))
	r := ReplaceRequest(old, new)
	cands, err := Enumerate(db, v, r)
	if err != nil || len(cands) != 1 {
		t.Fatalf("want the one R-2 candidate, got %v (err %v)", cands, err)
	}
	if alts := SimplerReplacements(cands[0].Translation.Ops()[0]); len(alts) != 0 {
		t.Fatalf("a 10,000-tuple non-key space should be skipped, got %d alternatives", len(alts))
	}
	if viols := CheckCriteria(db, v, r, cands[0].Translation, CheckOptions{}); len(viols) != 0 {
		t.Fatalf("capped check should still pass: %v", viols)
	}
}

// TestSimplerReplacementsExported pins the exported helper's behavior.
func TestSimplerReplacementsExported(t *testing.T) {
	f := fixtures.NewEmp(20)
	old := f.Tuple(1, "Alice", "New York", false)
	// Key-preserving, two changed attributes: one proper subset each.
	new := f.Tuple(1, "Bob", "San Francisco", false)
	alts := SimplerReplacements(update.NewReplace(old, new))
	if len(alts) != 2 {
		t.Fatalf("want 2 same-changes subsets, got %d", len(alts))
	}
	// Key-changing: subsets plus all key-preserving rewrites.
	moved := f.Tuple(2, "Alice", "New York", false)
	alts = SimplerReplacements(update.NewReplace(old, moved))
	// Changed = {EmpNo} only: no proper subsets; key-preserving space =
	// 11 names × 2 locations × 2 bools − 1 (identity) = 43.
	if len(alts) != 43 {
		t.Fatalf("want 43 key-preserving alternatives, got %d", len(alts))
	}
	for _, a := range alts {
		if a.Old.Key() != a.New.Key() {
			t.Fatalf("alternative %s should preserve the key", a)
		}
	}
}
