//go:build !race

package server

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
)

// publishAllocs seeds rows New York employees, warms NY's memo with a
// full read, and returns the mean allocations publish makes to land a
// one-row commit: an insert of one more NY row, then its delete, so
// every pair of commits leaves the state as it found it. Only publish
// is counted; the apply to the live database before it is not (its
// copy of the touched extension is ROADMAP item 6).
func publishAllocs(t *testing.T, rows int) float64 {
	t.Helper()
	const commits = 20
	e, err := NewEngine(Config{MaxInFlight: 16, MaxBatch: 8, RequestTimeout: 5 * time.Second},
		strings.Replace(testScript, "1 TO 10000", "1 TO 60000", 1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	var seed strings.Builder
	for k := 1; k <= rows; k++ {
		fmt.Fprintf(&seed, "INSERT INTO EMP VALUES (%d, 'NY');\n", k)
	}
	if _, err := e.ExecScript(seed.String()); err != nil {
		t.Fatal(err)
	}
	if set, _, err := e.ReadView("NY"); err != nil || set.Len() != rows {
		t.Fatalf("warming NY: %v rows, %v", set.Len(), err)
	}
	extra := tuple.MustNew(e.db.Schema().Relation("EMP"), value.NewInt(int64(rows+1)), value.NewString("NY"))
	trs := [2]*update.Translation{
		update.NewTranslation(update.NewInsert(extra)),
		update.NewTranslation(update.NewDelete(extra)),
	}

	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	var total uint64
	for i := 0; i < commits; i++ {
		tr := trs[i%2]
		if err := e.db.Apply(tr); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		e.publish([]*update.Translation{tr})
		runtime.ReadMemStats(&ms)
		total += ms.Mallocs - before
	}
	v, _, err := e.lookupView("NY", nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := e.snap.Load()
	snap.mu.Lock()
	memo := snap.views[v]
	snap.mu.Unlock()
	if memo.Len() != rows {
		t.Fatalf("after %d commits the memo holds %d rows, want %d (warm and patched)", commits, memo.Len(), rows)
	}
	return float64(total) / commits
}

// TestCommitCostsTheSameAtAnyWarmViewSize pins what a paged row set
// buys publish: carrying a warm view's memo into the next snapshot
// costs the commit's delta, not the view's rows. Copying the memo
// instead allocates in proportion to it. It is the commit-side sibling
// of TestResolvingARowCostsTheSameAtAnyViewSize. (The race detector
// inflates allocation counts: the file is built without it.)
func TestCommitCostsTheSameAtAnyWarmViewSize(t *testing.T) {
	small, large := publishAllocs(t, 1000), publishAllocs(t, 50000)
	t.Logf("publish: %.1f allocs per commit beside a warm view of 1,000 rows, %.1f beside 50,000", small, large)
	if large != small {
		t.Errorf("publish allocates %.1f per commit beside 50,000 warm rows vs %.1f beside 1,000: cost scales with the view", large, small)
	}
}
