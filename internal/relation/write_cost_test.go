//go:build !race

package relation

import (
	"runtime"
	"testing"

	"viewupdate/internal/schema"
	"viewupdate/internal/tuple"
	"viewupdate/internal/value"
)

// writeBytes fills an extension with rows tuples, reads it once in key
// order, and returns the mean bytes one insert, one key-moving replace
// and one delete allocate together. The three leave the extension as
// they found it, so every run does the same work.
func writeBytes(t *testing.T, rows int) float64 {
	t.Helper()
	const runs = 200
	kd, err := schema.IntRangeDomain("KeyDom", 1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	ld := schema.MustDomain("LocDom", value.NewString("NY"), value.NewString("SF"))
	rel := schema.MustRelation("EMP", []schema.Attribute{
		{Name: "EmpNo", Domain: kd},
		{Name: "Location", Domain: ld},
	}, []string{"EmpNo"})
	row := func(k int64) tuple.T { return tuple.MustNew(rel, value.NewInt(k), value.NewString("NY")) }
	e := NewExtension(rel)
	for k := 1; k <= rows; k++ {
		if err := e.Insert(row(int64(k))); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(e.Tuples()); got != rows {
		t.Fatalf("Tuples = %d rows, want %d", got, rows)
	}
	extra, moved := row(90001), row(90002)
	cycle := func() {
		if err := e.Insert(extra); err != nil {
			t.Fatal(err)
		}
		if err := e.Replace(extra, moved); err != nil {
			t.Fatal(err)
		}
		if err := e.Delete(moved); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cycle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestWritesCostTheSameAtAnySize pins that a write costs its own key
// and index entries, not a copy of the relation, even once a scan has
// read the extension in key order: no write maintains an ordering (a
// write splicing a cached ordering would add 32 bytes per stored row).
// The 64 bytes of slack absorb the process's other allocations, which
// the counter includes. (The race detector inflates allocations: the
// file is built without it.)
func TestWritesCostTheSameAtAnySize(t *testing.T) {
	small, large := writeBytes(t, 1000), writeBytes(t, 50000)
	t.Logf("insert + key-moving replace + delete: %.0f bytes beside 1,000 rows, %.0f beside 50,000", small, large)
	if large > small+64 {
		t.Errorf("writes allocate %.0f bytes beside 50,000 rows vs %.0f beside 1,000: cost scales with the relation", large, small)
	}
}
