package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"viewupdate/internal/faultinject"
	"viewupdate/internal/persist"
	"viewupdate/internal/vuerr"
	"viewupdate/internal/wal"
)

// keyedInsert posts an insert with an Idempotency-Key and returns the
// status and decoded reply.
func keyedInsert(t *testing.T, url, key string, emp int) (int, updateReply) {
	t.Helper()
	body := map[string]any{"values": []string{strconv.Itoa(emp), "NY"}}
	var buf []byte
	{
		var err error
		buf, err = json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(http.MethodPost, url+"/views/NY/insert", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var up updateReply
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatalf("decoding reply: %v", err)
	}
	return resp.StatusCode, up
}

// TestIdempotentRetryReturnsOriginalOutcome: retransmitting a keyed
// insert answers the original version with duplicate set, and applies
// nothing.
func TestIdempotentRetryReturnsOriginalOutcome(t *testing.T) {
	e, srv := newTestServer(t, nil)

	code, first := keyedInsert(t, srv.URL, "req-1", 7)
	if code != http.StatusOK || first.Duplicate {
		t.Fatalf("first send = %d %+v", code, first)
	}
	code, second := keyedInsert(t, srv.URL, "req-1", 7)
	if code != http.StatusOK {
		t.Fatalf("retry status %d", code)
	}
	if !second.Duplicate {
		t.Fatalf("retry not marked duplicate: %+v", second)
	}
	if second.Version != first.Version {
		t.Fatalf("retry version %d != original %d", second.Version, first.Version)
	}
	if second.Class != first.Class {
		t.Fatalf("retry class %q != original %q", second.Class, first.Class)
	}
	snap, version := e.Snapshot()
	if snap.Len("EMP") != 1 || version != first.Version {
		t.Fatalf("retry changed state: %d rows at version %d", snap.Len("EMP"), version)
	}
}

// TestIdempotencyKeyReplayedFromWAL: a crash-restart (no checkpoint)
// rebuilds the dedup table from the WAL, so a retry of a commit whose
// ack the crash made ambiguous dedups instead of double-applying.
func TestIdempotencyKeyReplayedFromWAL(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, dir, nil)
	srv := httptest.NewServer(NewHandler(e))
	if code, up := keyedInsert(t, srv.URL, "req-crash", 3); code != http.StatusOK || !up.OK {
		t.Fatalf("insert = %d %+v", code, up)
	}
	srv.Close()
	e.Kill() // crash: WAL keeps its tail, no checkpoint

	e2 := newTestEngine(t, dir, nil)
	srv2 := httptest.NewServer(NewHandler(e2))
	defer srv2.Close()
	code, up := keyedInsert(t, srv2.URL, "req-crash", 3)
	if code != http.StatusOK {
		t.Fatalf("post-restart retry status %d: %+v", code, up)
	}
	if !up.Duplicate || !up.Replayed {
		t.Fatalf("post-restart retry should dedup via WAL replay: %+v", up)
	}
	snap, _ := e2.Snapshot()
	if snap.Len("EMP") != 1 {
		t.Fatalf("recovered %d rows, want 1", snap.Len("EMP"))
	}
}

// TestIdempotencyReleaseOnCleanFailure: a keyed request that fails
// cleanly frees its key, so a later request reusing the key executes
// fresh instead of replaying the failure.
func TestIdempotencyReleaseOnCleanFailure(t *testing.T) {
	_, srv := newTestServer(t, nil)

	// Domain violation: translate fails, nothing commits, key released.
	code, _ := keyedInsert(t, srv.URL, "req-x", 99999)
	if code != http.StatusBadRequest {
		t.Fatalf("bad insert status %d, want 400", code)
	}
	code, up := keyedInsert(t, srv.URL, "req-x", 5)
	if code != http.StatusOK || up.Duplicate {
		t.Fatalf("reused key after clean failure = %d %+v, want fresh 200", code, up)
	}
}

// TestBreakerBrownoutAndRecovery walks the full degradation state
// machine over the wire: a terminal durability failure trips the
// breaker (writes 503 "degraded" with Retry-After, reads still served,
// /readyz unready, healthz "degraded"), and after the cooldown a probe
// write closes it again (readyz back to 200).
func TestBreakerBrownoutAndRecovery(t *testing.T) {
	_, srv := newTestServer(t, func(c *Config) {
		c.BreakerCooldown = 150 * time.Millisecond
	})

	// Seed a row so reads have something to serve.
	if code, _ := keyedInsert(t, srv.URL, "", 1); code != http.StatusOK {
		t.Fatal("seed insert failed")
	}

	// One sealed-log failure at the batch head: terminal, trips at once.
	faultinject.Enable(faultinject.NewPlan(1).FailNth(faultinject.SiteServerCommit, 1, wal.ErrSealed))
	t.Cleanup(faultinject.Disable)
	code, up := keyedInsert(t, srv.URL, "", 2)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("sealed commit = %d %+v, want 503", code, up)
	}

	// Brownout: writes fail fast with 503 degraded + Retry-After.
	body, _ := json.Marshal(map[string]any{"values": []string{"3", "NY"}})
	resp, err := http.Post(srv.URL+"/views/NY/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var er errorReply
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || er.Code != "degraded" {
		t.Fatalf("browned-out write = %d %q, want 503 degraded", resp.StatusCode, er.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded write without Retry-After")
	}

	// Reads still work during the brownout.
	var rows rowsReply
	if code := doJSON(t, "GET", srv.URL+"/views/NY", nil, &rows); code != http.StatusOK || rows.Count != 1 {
		t.Fatalf("brownout read = %d %+v", code, rows)
	}

	// Health surfaces the state; readyz flips unready.
	var h Healthz
	if code := doJSON(t, "GET", srv.URL+"/healthz", nil, &h); code != http.StatusOK || h.Status != "degraded" || !h.Degraded {
		t.Fatalf("healthz during brownout = %d %+v", code, h)
	}
	if h.Breaker != "open" {
		t.Fatalf("breaker state %q, want open", h.Breaker)
	}
	if code := doJSON(t, "GET", srv.URL+"/readyz", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during brownout = %d, want 503", code)
	}

	// After the cooldown one probe write goes through (the fault plan is
	// exhausted), the breaker closes, readyz recovers.
	time.Sleep(200 * time.Millisecond)
	if code, up := keyedInsert(t, srv.URL, "", 4); code != http.StatusOK {
		t.Fatalf("probe write after cooldown = %d %+v", code, up)
	}
	if code := doJSON(t, "GET", srv.URL+"/readyz", nil, nil); code != http.StatusOK {
		t.Fatalf("readyz after recovery = %d, want 200", code)
	}
	if code := doJSON(t, "GET", srv.URL+"/healthz", nil, &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz after recovery = %d %+v", code, h)
	}
}

// TestHTTPErrorTaxonomyDegraded pins the robustness additions to the
// taxonomy: corrupt-class and sealed-log failures reaching the commit
// pipeline surface as 503 "degraded" with Retry-After — a brownout to
// retry elsewhere — never as 500.
func TestHTTPErrorTaxonomyDegraded(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"corrupt", vuerr.ErrCorrupt},
		{"sealed", wal.ErrSealed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, srv := newTestServer(t, nil)
			faultinject.Enable(faultinject.NewPlan(1).FailNth(faultinject.SiteServerCommit, 1, tc.err))
			t.Cleanup(faultinject.Disable)
			body, _ := json.Marshal(map[string]any{"values": []string{"1", "NY"}})
			resp, err := http.Post(srv.URL+"/views/NY/insert", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var er errorReply
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusServiceUnavailable || er.Code != "degraded" {
				t.Fatalf("%s failure = %d %q, want 503 degraded (%s)", tc.name, resp.StatusCode, er.Code, er.Error)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("%s failure without Retry-After", tc.name)
			}
		})
	}
}

// TestDrainRacesInFlightCommits is the graceful-drain soak: shutdown
// starts while the queue is non-empty and a failpoint kills one WAL
// append mid-drain. Every commit that was acked must be durable after
// reopening the store; every commit that failed must be absent.
func TestDrainRacesInFlightCommits(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, dir, func(c *Config) {
		c.MaxInFlight = 32
		c.MaxBatch = 4 // several batches per drain, so the failpoint hits mid-drain
	})

	// One WAL append fails mid-drain: that batch rolls back cleanly
	// (ErrNotDurable), later batches proceed.
	// SiteWALAppend fires once per AppendBatchStats call: hit 1 is the
	// stalled head batch, hits 2..5 the drained batches of 4. Hit 3
	// lands on the second drained batch — genuinely mid-drain.
	faultinject.Enable(faultinject.NewPlan(1).FailNth(faultinject.SiteWALAppend, 3, vuerr.ErrTransient))
	t.Cleanup(faultinject.Disable)

	// Stall the committer, pile up commits, then race Close against the
	// queued work.
	e.stateMu.Lock()
	if err := submitAsync(e, 999); err != nil {
		t.Fatal(err)
	}
	waitForPickup(t, e)

	const n = 16
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = insertKey(e, i+1)
		}(i)
	}
	waitForDepth(t, e, n)
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	e.stateMu.Unlock() // release the committer into the racing drain
	wg.Wait()
	if err := <-closed; err != nil {
		t.Fatalf("drain close: %v", err)
	}

	// Reopen: acked implies present, failed implies absent.
	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	acked, failed := 0, 0
	for i := 0; i < n; i++ {
		k := i + 1
		has := rowPresent(t, st, k)
		if errs[i] == nil {
			acked++
			if !has {
				t.Errorf("commit %d was acked during drain but is absent after reopen", k)
			}
		} else {
			failed++
			if has {
				t.Errorf("commit %d failed (%v) but is present after reopen", k, errs[i])
			}
		}
	}
	if acked == 0 {
		t.Fatal("no commit was acked; the drain race tested nothing")
	}
	if failed == 0 {
		t.Fatal("no commit failed; the mid-drain failpoint never fired")
	}
	t.Logf("drain race: %d acked (all durable), %d failed cleanly (all absent)", acked, failed)
}

// rowPresent reports whether EMP holds a row with the given EmpNo in
// the recovered store.
func rowPresent(t *testing.T, st *persist.Store, emp int) bool {
	t.Helper()
	want := strconv.Itoa(emp)
	for _, tup := range st.DB().Tuples("EMP") {
		v, ok := tup.Get("EmpNo")
		if !ok {
			t.Fatal("EMP tuple without EmpNo")
		}
		if v.String() == want {
			return true
		}
	}
	return false
}
