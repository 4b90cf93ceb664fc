package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"viewupdate/internal/faultinject"
	"viewupdate/internal/obs"
	"viewupdate/internal/persist"
	"viewupdate/internal/update"
	"viewupdate/internal/wal"
)

// testScript is the serving test schema: one table, one selection view.
const testScript = `
CREATE DOMAIN KeyDom AS INT RANGE 1 TO 10000;
CREATE DOMAIN LocDom AS STRING ('NY', 'SF');
CREATE TABLE EMP (EmpNo KeyDom, Location LocDom, PRIMARY KEY (EmpNo));
CREATE VIEW NY AS SELECT * FROM EMP WHERE Location = 'NY';
`

// newTestEngine builds an engine over dir ("" = memory-only) with small
// limits, closing it at test end.
func newTestEngine(t *testing.T, dir string, mut func(*Config)) *Engine {
	t.Helper()
	cfg := Config{Dir: dir, MaxInFlight: 16, MaxBatch: 8, RequestTimeout: 5 * time.Second}
	if mut != nil {
		mut(&cfg)
	}
	e, err := NewEngine(cfg, testScript)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// insertKey runs one single-shot insert of key k through the full
// translate-then-group-commit path.
func insertKey(e *Engine, k int) error {
	body := updateBody{Values: []string{strconv.Itoa(k), "NY"}}
	cand, _, _, base, err := e.Translate(context.Background(), "NY", nil, e.buildRequest(update.Insert, body))
	if err != nil {
		return err
	}
	_, err = e.Commit(context.Background(), cand.Translation, false, base)
	return err
}

// metricsSink installs a fresh obs registry for the test and returns
// it. Counter deltas against it prove pipeline behavior.
func metricsSink(t *testing.T) *obs.Sink {
	t.Helper()
	s := obs.NewSink(nil)
	obs.Enable(s)
	t.Cleanup(obs.Disable)
	return s
}

// TestParallelDisjointCommitsAndRecovery is acceptance (a): N parallel
// single-shot updates on disjoint keys all land, and reopening the
// store after shutdown replays exactly the committed state.
func TestParallelDisjointCommitsAndRecovery(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, dir, func(c *Config) { c.MaxInFlight = 64 })
	const n = 32
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = insertKey(e, i+1)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("disjoint commit %d failed: %v", i, err)
		}
	}
	snap, version := e.Snapshot()
	if snap.Len("EMP") != n {
		t.Fatalf("snapshot has %d rows, want %d", snap.Len("EMP"), n)
	}
	if version != n {
		t.Fatalf("version %d, want %d (one bump per landed commit)", version, n)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the store must hold exactly the committed rows.
	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.DB().Len("EMP") != n {
		t.Fatalf("recovered %d rows, want %d", st.DB().Len("EMP"), n)
	}
}

// TestGroupCommitBatches proves the group-commit property end to end
// with obs counters: 1+k commits land in exactly 2 batches and 2 WAL
// syncs — the k queued commits share one append+fsync.
func TestGroupCommitBatches(t *testing.T) {
	sink := metricsSink(t)
	e := newTestEngine(t, t.TempDir(), nil)

	// Stall the committer so commits pile up in the queue: the first
	// submission is taken solo, then blocks on stateMu; the next k wait
	// in the channel and must come out as ONE batch.
	e.stateMu.Lock()
	if err := submitAsync(e, 1); err != nil {
		t.Fatal(err)
	}
	waitForPickup(t, e)
	const k = 5
	done := make([]chan error, k)
	for i := 0; i < k; i++ {
		done[i] = make(chan error, 1)
		i := i
		go func() {
			done[i] <- insertKey(e, 100+i)
		}()
	}
	waitForDepth(t, e, k)
	before := sink.Metrics().Snapshot()
	e.stateMu.Unlock()

	for i := 0; i < k; i++ {
		if err := <-done[i]; err != nil {
			t.Fatalf("queued commit %d: %v", i, err)
		}
	}
	after := sink.Metrics().Snapshot()
	batches := after.Counters["server.commit.batches"] - before.Counters["server.commit.batches"]
	syncs := after.Counters["wal.sync"] - before.Counters["wal.sync"]
	committed := after.Counters["server.commit.committed"] - before.Counters["server.commit.committed"]
	// Two batches drain after the unlock: the stalled solo commit, then
	// the k queued ones together.
	if batches != 2 {
		t.Fatalf("%d batches, want 2 (solo + grouped)", batches)
	}
	if committed != k+1 {
		t.Fatalf("%d commits landed, want %d", committed, k+1)
	}
	if syncs != 2 {
		t.Fatalf("%d fsyncs for %d commits, want 2 — group commit did not batch", syncs, k+1)
	}
	if bs := after.Histograms["server.commit.batch_size"]; bs.Max < int64(k) {
		t.Fatalf("max batch size %d, want >= %d", bs.Max, k)
	}
}

// submitAsync fires one insert without waiting for its fate.
func submitAsync(e *Engine, k int) error {
	body := updateBody{Values: []string{strconv.Itoa(k), "NY"}}
	cand, _, _, _, err := e.Translate(context.Background(), "NY", nil, e.buildRequest(update.Insert, body))
	if err != nil {
		return err
	}
	return e.submit(&commitReq{tr: cand.Translation, done: make(chan commitRes, 1)})
}

// waitForPickup waits until the committer has taken the queued request
// (and is therefore stalled inside commitBatch on stateMu).
func waitForPickup(t *testing.T, e *Engine) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for e.QueueDepth() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("committer never picked up the stall commit")
		}
		time.Sleep(time.Millisecond)
	}
	// Give the gather loop a beat to pass its non-blocking poll.
	time.Sleep(10 * time.Millisecond)
}

func waitForDepth(t *testing.T, e *Engine, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for e.QueueDepth() < want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d never reached %d", e.QueueDepth(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConflictingTransactions is acceptance (b): two wire transactions
// replace the same row concurrently; exactly one commits, the other
// gets a clean ErrConflict, and the surviving state is consistent.
func TestConflictingTransactions(t *testing.T) {
	e := newTestEngine(t, t.TempDir(), nil)
	if err := insertKey(e, 1); err != nil {
		t.Fatal(err)
	}

	tok1, err := e.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	tok2, err := e.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	move := func(tok string, to int) error {
		body := updateBody{
			Where: map[string]string{"EmpNo": "1"},
			Set:   map[string]string{"EmpNo": strconv.Itoa(to)},
		}
		_, _, err := e.TxUpdate(context.Background(), tok, "NY", nil, e.buildRequest(update.Replace, body))
		return err
	}
	if err := move(tok1, 2); err != nil {
		t.Fatal(err)
	}
	if err := move(tok2, 3); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	outcomes := make([]error, 2)
	for i, tok := range []string{tok1, tok2} {
		wg.Add(1)
		go func(i int, tok string) {
			defer wg.Done()
			_, _, outcomes[i] = e.TxCommit(context.Background(), tok)
		}(i, tok)
	}
	wg.Wait()

	var oks, conflicts int
	for _, err := range outcomes {
		switch {
		case err == nil:
			oks++
		case errors.Is(err, ErrConflict):
			conflicts++
		default:
			t.Fatalf("unexpected outcome: %v", err)
		}
	}
	if oks != 1 || conflicts != 1 {
		t.Fatalf("oks=%d conflicts=%d, want exactly one of each", oks, conflicts)
	}
	// Exactly one replacement landed: the view holds one row and it is
	// not the original key (the chosen translator may keep the displaced
	// base row outside the selection, so we assert on the view).
	v, _, err := e.lookupView("NY", nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := e.Snapshot()
	rows := v.Materialize(snap).Slice()
	if len(rows) != 1 {
		t.Fatalf("after the race NY has %d rows, want 1", len(rows))
	}
	if k, _ := rows[0].Get("EmpNo"); k.Int() == 1 {
		t.Fatal("winning replacement did not change the view row")
	}
}

// TestSingleShotConflict: two single-shot deletes of the same row
// translated against the same snapshot — the second fails op-level
// validation at apply time as ErrConflict.
func TestSingleShotConflict(t *testing.T) {
	e := newTestEngine(t, t.TempDir(), nil)
	if err := insertKey(e, 7); err != nil {
		t.Fatal(err)
	}
	body := updateBody{Where: map[string]string{"EmpNo": "7"}}
	c1, _, _, b1, err := e.Translate(context.Background(), "NY", nil, e.buildRequest(update.Delete, body))
	if err != nil {
		t.Fatal(err)
	}
	c2, _, _, b2, err := e.Translate(context.Background(), "NY", nil, e.buildRequest(update.Delete, body))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Commit(context.Background(), c1.Translation, false, b1); err != nil {
		t.Fatal(err)
	}
	_, err = e.Commit(context.Background(), c2.Translation, false, b2)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("stale delete = %v, want ErrConflict chain", err)
	}
}

// TestCrashMidBatchRecovery is acceptance (c): the WAL media dies mid
// group-commit; restart recovers to a state containing every
// acknowledged commit — acked implies durable, with no acked commit
// lost — and the torn batch never surfaces partially.
func TestCrashMidBatchRecovery(t *testing.T) {
	dir := t.TempDir()
	var crash *faultinject.CrashWriter
	e := newTestEngine(t, dir, func(c *Config) {
		c.WrapWAL = func(_ int, f wal.File) wal.File {
			crash = &faultinject.CrashWriter{W: f, Limit: 700}
			return crash
		}
	})

	acked := map[int]bool{}
	// Land one commit synchronously so at least one ack precedes the
	// crash regardless of how the concurrent storm below batches up.
	if err := insertKey(e, 1); err != nil {
		t.Fatalf("pre-crash commit failed: %v", err)
	}
	acked[1] = true
	var ackMu sync.Mutex
	var wg sync.WaitGroup
	for i := 2; i <= 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := insertKey(e, i); err == nil {
				ackMu.Lock()
				acked[i] = true
				ackMu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if !crash.Crashed() {
		t.Fatal("crash writer never hit its limit; raise the workload")
	}
	if len(acked) == 0 {
		t.Fatal("no commit was acked before the crash; lower the limit")
	}
	// No drain — the process "died". Reopen from disk.
	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer st.Close()
	db := st.DB()
	for k := range acked {
		found := false
		for _, tp := range db.Tuples("EMP") {
			if v, ok := tp.Get("EmpNo"); ok && v.Int() == int64(k) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("acked commit of key %d lost after crash recovery", k)
		}
	}
	if err := db.CheckAllInclusions(); err != nil {
		t.Fatalf("recovered state invalid: %v", err)
	}
}

// TestCommitPipelineFailpoint: the server.commit failpoint fails a
// whole batch cleanly — every waiter gets the error, nothing lands, and
// the pipeline keeps serving afterwards.
func TestCommitPipelineFailpoint(t *testing.T) {
	e := newTestEngine(t, t.TempDir(), nil)
	boom := errors.New("boom")
	faultinject.Enable(faultinject.NewPlan(1).
		FailNth(faultinject.SiteServerCommit, 1, boom))
	defer faultinject.Disable()

	if err := insertKey(e, 1); !errors.Is(err, boom) {
		t.Fatalf("failpoint batch = %v, want boom", err)
	}
	snap, _ := e.Snapshot()
	if snap.Len("EMP") != 0 {
		t.Fatal("failed batch left rows behind")
	}
	if err := insertKey(e, 1); err != nil {
		t.Fatalf("pipeline dead after failpoint: %v", err)
	}
}

// TestAdmissionControl: with the committer stalled, submissions beyond
// MaxInFlight fail fast with ErrOverloaded and succeed again once the
// queue drains.
func TestAdmissionControl(t *testing.T) {
	e := newTestEngine(t, t.TempDir(), func(c *Config) {
		c.MaxInFlight = 2
		c.MaxBatch = 2
	})
	e.stateMu.Lock()
	if err := submitAsync(e, 1); err != nil {
		t.Fatal(err)
	}
	waitForPickup(t, e)
	if err := submitAsync(e, 2); err != nil {
		t.Fatal(err)
	}
	if err := submitAsync(e, 3); err != nil {
		t.Fatal(err)
	}
	if err := submitAsync(e, 4); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overfull queue = %v, want ErrOverloaded", err)
	}
	e.stateMu.Unlock()
	// Once the pipeline drains, admission recovers.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := insertKey(e, 5); err == nil {
			break
		} else if !errors.Is(err, ErrOverloaded) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("admission never recovered")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCommitDeadline: a caller whose context expires while its commit
// is queued gets a deadline error that wraps context.DeadlineExceeded —
// the commit's fate is unknown, and it may still land.
func TestCommitDeadline(t *testing.T) {
	e := newTestEngine(t, t.TempDir(), nil)
	e.stateMu.Lock()
	if err := submitAsync(e, 1); err != nil {
		t.Fatal(err)
	}
	waitForPickup(t, e)
	body := updateBody{Values: []string{"2", "NY"}}
	cand, _, _, base, err := e.Translate(context.Background(), "NY", nil, e.buildRequest(update.Insert, body))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = e.Commit(ctx, cand.Translation, false, base)
	e.stateMu.Unlock()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline commit = %v, want DeadlineExceeded chain", err)
	}
}

// TestDrainFlushesQueuedCommits: Close stops admission, but every
// commit already queued still lands and is durable after the drain
// checkpoint.
func TestDrainFlushesQueuedCommits(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, MaxInFlight: 16, MaxBatch: 8}
	e, err := NewEngine(cfg, testScript)
	if err != nil {
		t.Fatal(err)
	}
	e.stateMu.Lock()
	if err := submitAsync(e, 1); err != nil {
		t.Fatal(err)
	}
	waitForPickup(t, e)
	const k = 4
	done := make([]chan error, k)
	for i := 0; i < k; i++ {
		done[i] = make(chan error, 1)
		i := i
		go func() { done[i] <- insertKey(e, 10+i) }()
	}
	waitForDepth(t, e, k)

	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	e.stateMu.Unlock()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if err := <-done[i]; err != nil {
			t.Fatalf("queued commit %d lost in drain: %v", i, err)
		}
	}
	if err := insertKey(e, 99); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain commit = %v, want ErrDraining", err)
	}

	// The drain checkpointed: recovery needs no replay.
	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.DB().Len("EMP") != k+1 {
		t.Fatalf("recovered %d rows, want %d", st.DB().Len("EMP"), k+1)
	}
	if rep := st.Report(); rep.Replayed != 0 {
		t.Fatalf("drain did not checkpoint: %d records replayed", rep.Replayed)
	}
}

// TestTxLifecycle: staged reads see uncommitted writes, rollback
// discards them, expiry reaps idle tokens.
func TestTxLifecycle(t *testing.T) {
	e := newTestEngine(t, t.TempDir(), nil)
	e.txs.ttl = 50 * time.Millisecond
	if err := insertKey(e, 1); err != nil {
		t.Fatal(err)
	}

	tok, err := e.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	body := updateBody{Values: []string{"2", "NY"}}
	if _, _, err := e.TxUpdate(context.Background(), tok, "NY", nil, e.buildRequest(update.Insert, body)); err != nil {
		t.Fatal(err)
	}
	staged, err := e.TxView(tok)
	if err != nil {
		t.Fatal(err)
	}
	if staged.Len("EMP") != 2 {
		t.Fatalf("staged read sees %d rows, want 2", staged.Len("EMP"))
	}
	snap, _ := e.Snapshot()
	if snap.Len("EMP") != 1 {
		t.Fatal("uncommitted write leaked into the published snapshot")
	}
	if err := e.TxRollback(tok); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.TxCommit(context.Background(), tok); !errors.Is(err, ErrNoTx) {
		t.Fatalf("commit after rollback = %v, want ErrNoTx", err)
	}

	// Expiry: an idle token is reaped after its TTL.
	tok2, err := e.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)
	if _, err := e.TxView(tok2); !errors.Is(err, ErrNoTx) {
		t.Fatalf("expired tx read = %v, want ErrNoTx", err)
	}
}

// TestConcurrentTxTokens: statements on two tokens run concurrently.
// Each one refreshes its own transaction's deadline while the other
// one's lookup sweeps every deadline in the table; under -race this
// catches a deadline written outside the table lock.
func TestConcurrentTxTokens(t *testing.T) {
	e := newTestEngine(t, "", nil)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		tok, err := e.BeginTx()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, tok string) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				body := updateBody{Values: []string{strconv.Itoa(1 + g*100 + i), "NY"}}
				if _, _, err := e.TxUpdate(context.Background(), tok, "NY", nil, e.buildRequest(update.Insert, body)); err != nil {
					errs <- err
					return
				}
			}
			staged, err := e.TxView(tok)
			if err != nil {
				errs <- err
				return
			}
			if n := staged.Len("EMP"); n != 50 {
				errs <- fmt.Errorf("token %d stages %d rows, want 50", g, n)
			}
		}(g, tok)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEmptyTxCommit: a transaction with no net change commits cleanly
// without entering the pipeline.
func TestEmptyTxCommit(t *testing.T) {
	e := newTestEngine(t, t.TempDir(), nil)
	tok, err := e.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := e.TxCommit(context.Background(), tok)
	if err != nil || n != 0 {
		t.Fatalf("empty commit = (%d, %v), want (0, nil)", n, err)
	}
}

// TestHealth reflects engine state transitions.
func TestHealth(t *testing.T) {
	e := newTestEngine(t, t.TempDir(), nil)
	h := e.Health()
	if h.Status != "ok" || !h.Durable || len(h.Views) != 1 || h.Views[0] != "NY" {
		t.Fatalf("health = %+v", h)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if h := e.Health(); h.Status != "draining" {
		t.Fatalf("post-close status %q, want draining", h.Status)
	}
}

// TestMemoryOnlyEngine: with no data dir the pipeline works without a
// store.
// TestRestartWithSameInitScript: booting a second engine over the
// recovered store with the identical init script must succeed — the
// snapshot already holds the DDL, so the script's CREATEs are skipped
// rather than fatal, and the view is redefined (views are not durable).
func TestRestartWithSameInitScript(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, dir, nil)
	if err := insertKey(e, 7); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := NewEngine(Config{Dir: dir, RequestTimeout: time.Second}, testScript)
	if err != nil {
		t.Fatalf("restart with same init script: %v", err)
	}
	defer e2.Close()
	v, _, err := e2.lookupView("NY", nil)
	if err != nil {
		t.Fatalf("view NY must exist after restart: %v", err)
	}
	snap, _ := e2.Snapshot()
	if rows := v.Materialize(snap).Slice(); len(rows) != 1 {
		t.Fatalf("view NY has %d rows after restart, want 1", len(rows))
	}
	// The engine stays writable: the next commit lands normally.
	if err := insertKey(e2, 8); err != nil {
		t.Fatalf("insert after restart: %v", err)
	}
}

func TestMemoryOnlyEngine(t *testing.T) {
	e := newTestEngine(t, "", nil)
	if err := insertKey(e, 1); err != nil {
		t.Fatal(err)
	}
	if h := e.Health(); h.Durable {
		t.Fatal("memory-only engine claims durability")
	}
	snap, _ := e.Snapshot()
	if snap.Len("EMP") != 1 {
		t.Fatal("memory commit did not land")
	}
}

// TestCloseIdempotent: double Close is safe.
func TestCloseIdempotent(t *testing.T) {
	e := newTestEngine(t, t.TempDir(), nil)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
