package core

import (
	"testing"

	"viewupdate/internal/fixtures"
	"viewupdate/internal/storage"
)

// verifyAllocs loads rows New York employees (all of them rows of
// ViewP) and returns the allocations of judging one candidate of a
// replace of employee #1's name: Valid plus SideEffects.
func verifyAllocs(t *testing.T, rows int64) float64 {
	t.Helper()
	e := fixtures.NewEmp(rows)
	db := storage.Open(e.Schema)
	for no := int64(1); no <= rows; no++ {
		if err := db.Load("EMP", e.Tuple(no, "Alice", "New York", no%2 == 0)); err != nil {
			t.Fatal(err)
		}
	}
	r := ReplaceRequest(
		e.ViewTuple(e.ViewP, 1, "Alice", "New York", false),
		e.ViewTuple(e.ViewP, 1, "Bob", "New York", false))
	cands, err := Enumerate(db, e.ViewP, r)
	if err != nil || len(cands) == 0 {
		t.Fatalf("enumerate over %d rows: %d candidates, err %v", rows, len(cands), err)
	}
	tr := cands[0].Translation
	vf := NewVerifier(db, e.ViewP, r)
	if !vf.Valid(tr) {
		t.Fatalf("generator candidate %s judged invalid over %d rows", tr, rows)
	}
	return testing.AllocsPerRun(20, func() {
		vf.Valid(tr)
		if _, err := vf.SideEffects(tr); err != nil {
			t.Fatal(err)
		}
	})
}

// TestVerifyCostIndependentOfViewSize pins what judging by row delta
// buys: the work of Valid and SideEffects depends on the candidate, not
// on how many rows the view holds. Allocations stand in for work — a
// verifier that copies, compares or sorts the extension allocates in
// proportion to it.
func TestVerifyCostIndependentOfViewSize(t *testing.T) {
	small, large := verifyAllocs(t, 100), verifyAllocs(t, 10000)
	t.Logf("allocs per Valid+SideEffects: %.0f over 100 rows, %.0f over 10000 rows", small, large)
	if large > small+8 {
		t.Fatalf("verifying over a 100x larger view allocates %.0f vs %.0f: cost scales with the view", large, small)
	}
}
