//go:build !race

package storage

import (
	"runtime"
	"testing"

	"viewupdate/internal/update"
)

// TestFreshOverlayApplyAllocs pins the cost of the verifier's pattern:
// one fresh overlay per candidate and one Apply on it, accepted or not.
// Writing the overlay's deltas in place must not cost a fresh overlay
// more than staging into scratch copies did. (The race detector
// inflates allocation counts: the file is built without it.)
func TestFreshOverlayApplyAllocs(t *testing.T) {
	ch := chainSchema(t, 4, 12, 40)
	db := ch.open(t, 10, 20, func(k int64) int64 { return (k-1)/2 + 1 })
	for _, tc := range []struct {
		name   string
		tr     *update.Translation
		ok     bool
		allocs float64
	}{
		{"child insert", update.NewTranslation(update.NewInsert(ch.C(21, 1))), true, 44},
		{"child retarget", update.NewTranslation(update.NewReplace(ch.C(1, 1), ch.C(1, 2))), true, 65},
		{"parent payload replace", update.NewTranslation(update.NewReplace(ch.P(1, 2, "u"), ch.P(1, 2, "v"))), true, 76},
		{"dangling child insert", update.NewTranslation(update.NewInsert(ch.C(21, 11))), false, 56},
	} {
		got := testing.AllocsPerRun(100, func() {
			if err := NewOverlay(db).Apply(tc.tr); (err == nil) != tc.ok {
				t.Fatalf("%s: Apply = %v, want ok %v", tc.name, err, tc.ok)
			}
		})
		t.Logf("%s: %.0f allocations, at most %.0f", tc.name, got, tc.allocs)
		if got > tc.allocs {
			t.Errorf("%s: a fresh overlay's Apply allocates %.0f times, want at most %.0f", tc.name, got, tc.allocs)
		}
	}
}

// stagedInsertBytes stages from single-tuple inserts on one overlay —
// parents spread over four grandparents, so the reference delta grows
// with them — and returns the mean bytes each of the next n allocates.
func stagedInsertBytes(t *testing.T, from, n int) float64 {
	t.Helper()
	ch := chainSchema(t, 4, int64(from+n), 1)
	ov := NewOverlay(Open(ch.sch))
	trs := make([]*update.Translation, 0, 4+from+n)
	for g := int64(1); g <= 4; g++ {
		trs = append(trs, update.NewTranslation(update.NewInsert(ch.G(g, "u"))))
	}
	for k := int64(1); k <= int64(from+n); k++ {
		trs = append(trs, update.NewTranslation(update.NewInsert(ch.P(k, k%4+1, "u"))))
	}
	for _, tr := range trs[:4+from] {
		if err := ov.Apply(tr); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, tr := range trs[4+from:] {
		if err := ov.Apply(tr); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestStagingCostIndependentOfStagedSize pins that a transaction stages
// a statement in O(statement): Apply writes the overlay's own deltas
// and keeps an undo log, where copying the whole staged delta (and each
// touched dependency's whole reference delta) on every call made N
// staged statements cost O(N²). Each side is averaged over a thousand
// inserts, long enough that map growth is amortized on both.
func TestStagingCostIndependentOfStagedSize(t *testing.T) {
	small, large := stagedInsertBytes(t, 100, 1000), stagedInsertBytes(t, 10000, 1000)
	t.Logf("bytes per staged insert: %.0f after 100, %.0f after 10,000", small, large)
	if large > 2*small {
		t.Errorf("the 10,000th staged insert allocates %.0f bytes, the 100th %.0f: staging grows with what is staged", large, small)
	}
}
