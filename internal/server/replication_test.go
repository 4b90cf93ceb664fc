package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// waitUntil polls cond until it holds or the deadline expires.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// newFollowerEngine opens a follower of the source URL, closing it at
// test end.
func newFollowerEngine(t *testing.T, dir, source string, mut func(*Config)) *Engine {
	t.Helper()
	cfg := Config{Dir: dir, Follow: source, MaxInFlight: 16, RequestTimeout: 5 * time.Second}
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

// followerRows counts the follower's NY view rows.
func followerRows(t *testing.T, f *Engine) int {
	t.Helper()
	set, _, err := f.ReadView("NY")
	if err != nil {
		t.Fatal(err)
	}
	return set.Len()
}

// TestFollowerEndToEnd: a durable follower bootstraps from the
// primary's snapshot, replays its live commits into the same view
// state, refuses writes, reports follower health, and maintains its
// warm view cache by O(delta) patching rather than rebuilds.
func TestFollowerEndToEnd(t *testing.T) {
	sink := metricsSink(t)
	p := newTestEngine(t, t.TempDir(), nil)
	srv := httptest.NewServer(NewHandler(p))
	t.Cleanup(srv.Close)

	for k := 1; k <= 10; k++ {
		if err := insertKey(p, k); err != nil {
			t.Fatal(err)
		}
	}
	f := newFollowerEngine(t, t.TempDir(), srv.URL, nil)
	fsrv := httptest.NewServer(NewHandler(f))
	t.Cleanup(fsrv.Close)
	waitUntil(t, 5*time.Second, "follower catch-up", func() bool { return followerRows(t, f) == 10 })

	// Writes are refused at every entry point.
	var errReply errorReply
	if code := doJSON(t, "POST", fsrv.URL+"/views/NY/insert",
		map[string]any{"values": []string{"99", "NY"}}, &errReply); code != http.StatusForbidden {
		t.Fatalf("follower insert status = %d (%+v), want 403", code, errReply)
	}
	if errReply.Code != "read_only" {
		t.Fatalf("follower insert code = %q, want read_only", errReply.Code)
	}
	if _, err := f.BeginTx(); err == nil {
		t.Fatal("follower BeginTx succeeded, want ErrReadOnly")
	}

	// Health: roles on both sides, replica block on the follower.
	h := f.Health()
	if h.Role != "follower" || h.Replica == nil || !h.Replica.Durable {
		t.Fatalf("follower health = %+v", h)
	}
	if h.Replica.AppliedSeq == 0 || h.Replica.Primary != srv.URL {
		t.Fatalf("follower replica block = %+v", h.Replica)
	}
	waitUntil(t, 5*time.Second, "follower readiness", func() bool { return f.Ready() })
	ph := p.Health()
	if ph.Role != "primary" || ph.WalStreamTails != 1 {
		t.Fatalf("primary health role=%q tails=%d, want primary/1", ph.Role, ph.WalStreamTails)
	}

	// Steady state: the follower's warm rows are patched per replicated
	// commit, never rebuilt. (The primary shares the sink; nothing reads
	// its view, so it neither fills nor patches — rebuilds staying flat
	// while patches grow is the follower-side O(delta) signal.)
	snap := sink.Metrics().Snapshot()
	rebuildBefore, patchBefore := snap.Counters["server.ivm.rebuild"], snap.Counters["server.ivm.patch"]
	for k := 11; k <= 30; k++ {
		if err := insertKey(p, k); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 5*time.Second, "follower second catch-up", func() bool { return followerRows(t, f) == 30 })
	snap = sink.Metrics().Snapshot()
	if d := snap.Counters["server.ivm.rebuild"] - rebuildBefore; d != 0 {
		t.Fatalf("steady-state rebuilds = %d, want 0", d)
	}
	if d := snap.Counters["server.ivm.patch"] - patchBefore; d < 20 {
		t.Fatalf("steady-state patches = %d, want >= 20", d)
	}
}

// TestFollowerResumeAndGapFill: a durable follower that stopped
// resumes from its recovered watermark — across a primary crash —
// without re-bootstrapping or double-applying; the commits its resume
// point trails the restarted primary's in-memory backlog by are served
// from the WAL on disk (the stream feed's starting seq + gap-fill path).
func TestFollowerResumeAndGapFill(t *testing.T) {
	sink := metricsSink(t)
	dirP, dirF := t.TempDir(), t.TempDir()

	// The follower must find the restarted primary at the same URL:
	// serve through a swappable handler.
	var cur atomic.Pointer[Engine]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		NewHandler(cur.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	p1 := newTestEngine(t, dirP, nil)
	cur.Store(p1)
	for k := 1; k <= 3; k++ {
		if err := insertKey(p1, k); err != nil {
			t.Fatal(err)
		}
	}
	f1 := newFollowerEngine(t, dirF, srv.URL, nil)
	waitUntil(t, 5*time.Second, "first catch-up", func() bool { return followerRows(t, f1) == 3 })
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}

	// Commits the stopped follower misses, then a primary crash: the
	// WAL keeps its tail, the restarted feed starts empty above them.
	for k := 4; k <= 5; k++ {
		if err := insertKey(p1, k); err != nil {
			t.Fatal(err)
		}
	}
	p1.Kill()
	p2 := newTestEngine(t, dirP, nil)
	cur.Store(p2)

	// The follower recovers watermark 3 from its own store, not a fresh
	// bootstrap, and resumes; 4 and 5 are below the restarted feed's
	// starting seq and must gap-fill from the primary's WAL. Then a live
	// commit streams on top. The live AppliedSeq may already have moved
	// past 3 by the time it is read; the recovery report cannot.
	bootstraps := sink.Metrics().Snapshot().Counters["replica.bootstrap"]
	f2 := newFollowerEngine(t, dirF, srv.URL, nil)
	if rep := f2.fol.Store().Report(); max(rep.SnapshotSeq, rep.MaxSeq) != 3 {
		t.Fatalf("recovered watermark = %d (%s), want 3", max(rep.SnapshotSeq, rep.MaxSeq), rep)
	}
	if got := sink.Metrics().Snapshot().Counters["replica.bootstrap"]; got != bootstraps {
		t.Fatalf("the restarted follower bootstrapped from a snapshot (replica.bootstrap %d -> %d)", bootstraps, got)
	}
	if err := insertKey(p2, 6); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "resume catch-up", func() bool { return followerRows(t, f2) == 6 })
	if got := f2.Health().Replica.AppliedSeq; got != 6 {
		t.Fatalf("final applied seq = %d, want 6", got)
	}
}

// TestShardedFollowerRecoversAndGapFills is TestFollowerResumeAndGapFill
// on a 4-shard primary: the commits the stopped follower misses — a
// cross-shard wire transaction among them — sit in the shard WALs when
// the primary is killed, and the restarted primary's feed starts above
// them. The follower resumes from its own watermark without
// bootstrapping, gap-fills them through wal.Reassemble (the cross-shard
// prepares folded into one record), streams a live commit on top, and
// ends equal to the primary.
func TestShardedFollowerRecoversAndGapFills(t *testing.T) {
	sink := metricsSink(t)
	dirP, dirF := t.TempDir(), t.TempDir()
	var cur atomic.Pointer[Engine]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		NewHandler(cur.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	sharded := func(c *Config) { c.Shards = 4 }

	p1 := newTestEngine(t, dirP, sharded)
	cur.Store(p1)
	for k := 1; k <= 3; k++ {
		if err := insertKey(p1, k); err != nil {
			t.Fatal(err)
		}
	}
	f1 := newFollowerEngine(t, dirF, srv.URL, nil)
	waitUntil(t, 5*time.Second, "first catch-up", func() bool { return followerRows(t, f1) == 3 })
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}

	// Missed: two single-shard commits, then a wire transaction over
	// two root keys — seqs 4, 5 and 6.
	for k := 4; k <= 5; k++ {
		if err := insertKey(p1, k); err != nil {
			t.Fatal(err)
		}
	}
	cross := sink.Metrics().Snapshot().Counters["server.cross.commits"]
	var tx txReply
	if code := doJSON(t, "POST", srv.URL+"/tx/begin", nil, &tx); code != http.StatusOK {
		t.Fatalf("tx begin = %d", code)
	}
	for _, k := range []string{"101", "102"} {
		var up updateReply
		if code := doJSON(t, "POST", fmt.Sprintf("%s/tx/%s/views/NY/insert", srv.URL, tx.Token),
			map[string]any{"values": []string{k, "NY"}}, &up); code != http.StatusOK {
			t.Fatalf("tx insert %s = %d", k, code)
		}
	}
	if code := doJSON(t, "POST", fmt.Sprintf("%s/tx/%s/commit", srv.URL, tx.Token), nil, &tx); code != http.StatusOK {
		t.Fatalf("tx commit = %d", code)
	}
	if sink.Metrics().Snapshot().Counters["server.cross.commits"] == cross {
		t.Fatal("the missed transaction did not take the two-phase route")
	}
	p1.Kill()
	p2 := newTestEngine(t, dirP, sharded)
	cur.Store(p2)

	bootstraps := sink.Metrics().Snapshot().Counters["replica.bootstrap"]
	f2 := newFollowerEngine(t, dirF, srv.URL, nil)
	if rep := f2.fol.Store().Report(); max(rep.SnapshotSeq, rep.MaxSeq) != 3 {
		t.Fatalf("recovered watermark = %d (%s), want 3", max(rep.SnapshotSeq, rep.MaxSeq), rep)
	}
	if got := sink.Metrics().Snapshot().Counters["replica.bootstrap"]; got != bootstraps {
		t.Fatalf("the restarted follower bootstrapped from a snapshot (replica.bootstrap %d -> %d)", bootstraps, got)
	}
	if err := insertKey(p2, 6); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "resume catch-up", func() bool { return followerRows(t, f2) == 8 })
	if got := f2.Health().Replica.AppliedSeq; got != 7 {
		t.Fatalf("final applied seq = %d, want 7", got)
	}
	pset, _, err := p2.ReadView("NY")
	if err != nil {
		t.Fatal(err)
	}
	fset, _, err := f2.ReadView("NY")
	if err != nil {
		t.Fatal(err)
	}
	if !pset.Equal(fset) {
		t.Fatalf("follower view diverged:\nprimary  %v\nfollower %v", pset.Slice(), fset.Slice())
	}
}

// TestShardedPrimaryFollower: a follower of a sharded primary sees the
// same view state — single-shard commits and a cross-shard transaction
// (whose prepare records must be reassembled into one streamed commit)
// alike.
func TestShardedPrimaryFollower(t *testing.T) {
	p := newTestEngine(t, t.TempDir(), func(c *Config) { c.Shards = 4 })
	srv := httptest.NewServer(NewHandler(p))
	t.Cleanup(srv.Close)

	for k := 1; k <= 8; k++ {
		if err := insertKey(p, k); err != nil {
			t.Fatal(err)
		}
	}
	// A wire transaction staging two inserts commits as one translation
	// over two root keys — a cross-shard two-phase commit.
	var tx txReply
	if code := doJSON(t, "POST", srv.URL+"/tx/begin", nil, &tx); code != http.StatusOK {
		t.Fatalf("tx begin = %d", code)
	}
	for _, k := range []string{"101", "102"} {
		var up updateReply
		if code := doJSON(t, "POST", fmt.Sprintf("%s/tx/%s/views/NY/insert", srv.URL, tx.Token),
			map[string]any{"values": []string{k, "NY"}}, &up); code != http.StatusOK {
			t.Fatalf("tx insert %s = %d", k, code)
		}
	}
	if code := doJSON(t, "POST", fmt.Sprintf("%s/tx/%s/commit", srv.URL, tx.Token), nil, &tx); code != http.StatusOK {
		t.Fatalf("tx commit = %d", code)
	}

	f := newFollowerEngine(t, t.TempDir(), srv.URL, nil)
	waitUntil(t, 5*time.Second, "sharded catch-up", func() bool { return followerRows(t, f) == 10 })

	pset, _, err := p.ReadView("NY")
	if err != nil {
		t.Fatal(err)
	}
	fset, _, err := f.ReadView("NY")
	if err != nil {
		t.Fatal(err)
	}
	if !pset.Equal(fset) {
		t.Fatalf("follower view diverged:\nprimary  %v\nfollower %v", pset.Slice(), fset.Slice())
	}
}

// TestFollowerMemoryOnly: an ephemeral follower (no Dir) bootstraps
// from the snapshot, follows live, and is not itself a replication
// source.
func TestFollowerMemoryOnly(t *testing.T) {
	p := newTestEngine(t, t.TempDir(), nil)
	srv := httptest.NewServer(NewHandler(p))
	t.Cleanup(srv.Close)
	for k := 1; k <= 4; k++ {
		if err := insertKey(p, k); err != nil {
			t.Fatal(err)
		}
	}
	f := newFollowerEngine(t, "", srv.URL, nil)
	fsrv := httptest.NewServer(NewHandler(f))
	t.Cleanup(fsrv.Close)
	if err := insertKey(p, 5); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "memory follower catch-up", func() bool { return followerRows(t, f) == 5 })
	if h := f.Health(); h.Replica == nil || h.Replica.Durable {
		t.Fatalf("memory follower health = %+v", h.Replica)
	}
	resp, err := http.Get(fsrv.URL + "/wal/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("memory follower /wal/stream = %d, want 404", resp.StatusCode)
	}
}

// TestFollowerCascade: a follower of a durable follower — the stream
// protocol composes, since a durable follower's store feeds its own
// stream exactly like a primary's.
func TestFollowerCascade(t *testing.T) {
	p := newTestEngine(t, t.TempDir(), nil)
	srv := httptest.NewServer(NewHandler(p))
	t.Cleanup(srv.Close)

	mid := newFollowerEngine(t, t.TempDir(), srv.URL, nil)
	midSrv := httptest.NewServer(NewHandler(mid))
	t.Cleanup(midSrv.Close)
	leaf := newFollowerEngine(t, t.TempDir(), midSrv.URL, nil)

	for k := 1; k <= 6; k++ {
		if err := insertKey(p, k); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 5*time.Second, "cascade catch-up", func() bool { return followerRows(t, leaf) == 6 })
}
