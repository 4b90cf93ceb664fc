package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"viewupdate/internal/update"
)

// frontDoors names what frontDoorAllocs measures, in order.
var frontDoors = [4]string{
	"GET /views/NY?EmpNo=7",
	"building a keyed delete and a keyed replace on the published snapshot",
	"the same two builds on a transaction's staged overlay",
	"GET /tx/{token}/views/NY?EmpNo=7",
}

// frontDoorAllocs seeds rows New York employees and returns the
// allocations of resolving one of them by key through each of
// frontDoors, the transaction having staged an insert, a delete and a
// replace. The view's memo starts cold and must end cold: nothing here
// may materialize NY.
func frontDoorAllocs(t *testing.T, rows int) (allocs [4]float64) {
	t.Helper()
	sink := metricsSink(t)
	e, err := NewEngine(Config{MaxInFlight: 16, MaxBatch: 8, RequestTimeout: 5 * time.Second},
		strings.Replace(testScript, "1 TO 10000", "1 TO 20000", 1))
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
	h := NewHandler(e)
	get := func(path string) func() {
		return func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"count": 1`) {
				t.Fatalf("GET %s = %d %s", path, rec.Code, rec.Body)
			}
		}
	}
	v, _, err := e.lookupView("NY", nil)
	if err != nil {
		t.Fatal(err)
	}
	where := map[string]string{"EmpNo": "7"}
	del := e.buildRequest(update.Delete, updateBody{Where: where})
	rep := e.buildRequest(update.Replace, updateBody{Where: where, Set: map[string]string{"EmpNo": "20000"}})
	allocs[0] = testing.AllocsPerRun(20, get("/views/NY?EmpNo=7"))
	snap := e.snap.Load()
	allocs[1] = testing.AllocsPerRun(20, func() {
		if _, err := del(v, snap); err != nil {
			t.Fatal(err)
		}
		if _, err := rep(v, snap); err != nil {
			t.Fatal(err)
		}
	})

	tok, err := e.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []struct {
		kind update.Kind
		body updateBody
	}{
		{update.Insert, updateBody{Values: []string{"19999", "NY"}}},
		{update.Delete, updateBody{Where: map[string]string{"EmpNo": "1"}}},
		{update.Replace, updateBody{Where: map[string]string{"EmpNo": "2"}, Set: map[string]string{"EmpNo": "19998"}}},
	} {
		if _, _, err := e.TxUpdate(context.Background(), tok, "NY", nil, e.buildRequest(st.kind, st.body)); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := e.txs.get(tok)
	if err != nil {
		t.Fatal(err)
	}
	allocs[2] = testing.AllocsPerRun(20, func() {
		if _, err := del(v, tx.staged); err != nil {
			t.Fatal(err)
		}
		if _, err := rep(v, tx.staged); err != nil {
			t.Fatal(err)
		}
	})
	allocs[3] = testing.AllocsPerRun(20, get("/tx/"+tok+"/views/NY?EmpNo=7"))

	m := sink.Metrics().Snapshot().Counters
	if m["server.viewcache.miss"] != 0 || m["server.ivm.rebuild"] != 0 {
		t.Errorf("%d rows: resolving rows by key materialized the view (%d misses, %d rebuilds)",
			rows, m["server.viewcache.miss"], m["server.ivm.rebuild"])
	}
	return allocs
}

// TestResolvingARowCostsTheSameAtAnyViewSize pins what answering a
// keyed where from the state buys: the work of a keyed read and of
// building a keyed delete or replace — live or inside a transaction —
// depends on the request, not on how many rows the view holds.
// Allocations stand in for work, as in core's
// TestVerifyCostIndependentOfViewSize: anything that sorts, scans or
// copies the view allocates in proportion to it.
func TestResolvingARowCostsTheSameAtAnyViewSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	small, large := frontDoorAllocs(t, 100), frontDoorAllocs(t, 10000)
	for i, door := range frontDoors {
		t.Logf("%s: %.0f allocs over 100 rows, %.0f over 10000", door, small[i], large[i])
		if large[i] > small[i]+2 {
			t.Errorf("%s allocates %.0f over 10000 rows vs %.0f over 100: cost scales with the view", door, large[i], small[i])
		}
	}
}
