package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"viewupdate/internal/faultinject"
	"viewupdate/internal/fixtures"
	"viewupdate/internal/persist"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/wal"
)

// genWorkload builds n deterministic EMP translations mixing inserts,
// deletes and replacements against the paper instance.
func genWorkload(fx *fixtures.Emp, n int) []*update.Translation {
	names := []string{"Alice", "Bob", "Carol", "Dave", "Erin", "Frank", "Grace", "Heidi", "Ivan", "Judy"}
	live := map[int64]tuple.T{}
	var order []int64
	next := int64(20)
	var trs []*update.Translation
	for i := 0; i < n; i++ {
		switch {
		case i%7 == 3 && len(order) > 0:
			no := order[len(order)-1]
			old := live[no]
			repl := fx.Tuple(no, names[int(no)%len(names)], "San Francisco", true)
			trs = append(trs, update.NewTranslation(update.NewReplace(old, repl)))
			live[no] = repl
		case i%5 == 4 && len(order) > 1:
			no := order[0]
			order = order[1:]
			trs = append(trs, update.NewTranslation(update.NewDelete(live[no])))
			delete(live, no)
		default:
			tp := fx.Tuple(next, names[int(next)%len(names)], "New York", next%2 == 0)
			trs = append(trs, update.NewTranslation(update.NewInsert(tp)))
			live[next] = tp
			order = append(order, next)
			next++
		}
	}
	return trs
}

func captureJSON(t *testing.T, db *storage.Database) []byte {
	t.Helper()
	snap, err := persist.Capture(db)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// recoverPrimaryAt reconstructs "the primary recovered at watermark w":
// the primary's snapshot plus the WAL prefix of records with seq <= w,
// run through the real recovery path.
func recoverPrimaryAt(t *testing.T, primaryDir string, recs []wal.Record, w uint64, scratch string) []byte {
	t.Helper()
	odir := filepath.Join(scratch, fmt.Sprintf("at-%d", w))
	if err := os.MkdirAll(odir, 0o755); err != nil {
		t.Fatal(err)
	}
	snapBytes, err := os.ReadFile(filepath.Join(primaryDir, persist.SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(odir, persist.SnapshotFile), snapBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, rec := range recs {
		if rec.Seq > w {
			continue
		}
		frame, err := wal.Frame(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame)
	}
	if err := os.WriteFile(filepath.Join(odir, persist.WALFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := persist.Open(odir, persist.Options{})
	if err != nil {
		t.Fatalf("oracle recovery at %d: %v", w, err)
	}
	defer st.Close()
	return captureJSON(t, st.DB())
}

// TestFollowerPrefixByteEquivalence is the replication headline
// property: a follower that bootstrapped from the primary's snapshot
// and replayed ANY prefix of the commit stream holds a state
// byte-equivalent to the primary recovering from disk at the same
// watermark. The replay goes through the real stream path (framing,
// StreamReader, skip-below-watermark, Apply).
func TestFollowerPrefixByteEquivalence(t *testing.T) {
	fx := fixtures.NewEmp(400)
	dir := t.TempDir()
	st, err := persist.Create(dir, fx.PaperInstance(), persist.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	initSnap, err := persist.Capture(st.DB())
	if err != nil {
		t.Fatal(err)
	}

	var feed []wal.Record
	st.SetOnCommit(func(recs []wal.Record) { feed = append(feed, recs...) })
	trs := genWorkload(fx, 24)
	for i, tr := range trs {
		if i%4 == 1 && i+2 < len(trs) {
			// A group commit mid-stream: the feed must flatten it.
			errs, _ := st.ApplyBatchKeyed([]*update.Translation{tr, trs[i+1]},
				[]string{fmt.Sprintf("k-%d", i), ""})
			for j, e := range errs {
				if e != nil {
					t.Fatalf("batch %d/%d: %v", i, j, e)
				}
			}
			trs[i+1] = nil
		} else if tr != nil {
			if err := st.Apply(tr); err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
		}
	}

	walRecs, err := wal.ScanFile(filepath.Join(dir, persist.WALFile))
	if err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	ctx := context.Background()
	for p := 0; p <= len(feed); p++ {
		db, err := persist.Restore(initSnap)
		if err != nil {
			t.Fatal(err)
		}
		f := &Follower{db: db, log: discardLogger()}
		var stream bytes.Buffer
		for _, rec := range feed[:p] {
			frame, err := wal.Frame(rec)
			if err != nil {
				t.Fatal(err)
			}
			stream.Write(frame)
		}
		if err := f.consume(ctx, &stream, f.Apply); err != nil {
			t.Fatalf("prefix %d: %v", p, err)
		}
		w := uint64(0)
		if p > 0 {
			w = feed[p-1].Seq
		}
		got := captureJSON(t, f.db)
		want := recoverPrimaryAt(t, dir, walRecs.Records, w, scratch)
		if !bytes.Equal(got, want) {
			t.Fatalf("prefix %d (watermark %d): follower state differs from primary recovery", p, w)
		}
		if f.AppliedSeq() != w {
			t.Fatalf("prefix %d: applied=%d want %d", p, f.AppliedSeq(), w)
		}
	}
}

// testSource is a minimal replication source: a durable store feeding a
// feed, served over the two replication endpoints. The real server
// endpoints add WAL gap-fill and metrics; this keeps the follower tests
// self-contained in this package.
type testSource struct {
	mu   sync.Mutex
	st   *persist.Store
	feed *Feed
	srv  *httptest.Server
}

func newTestSource(t *testing.T, db *storage.Database) *testSource {
	t.Helper()
	st, err := persist.Create(t.TempDir(), db, persist.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	src := &testSource{st: st, feed: NewFeed(FeedSpec{Backlog: 64 << 20, Tail: 1024,
		Site: faultinject.SiteStreamSend, Shed: "replica.hub.tail_overrun"}, 0)}
	st.SetOnCommit(func(recs []wal.Record) {
		for _, rec := range recs {
			PublishRecord(src.feed, rec)
		}
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/wal/snapshot", func(w http.ResponseWriter, r *http.Request) {
		src.mu.Lock()
		snap, err := persist.Capture(st.DB())
		if err == nil {
			snap.Seq = st.CommittedSeq()
		}
		src.mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(snap)
	})
	mux.HandleFunc("/wal/stream", func(w http.ResponseWriter, r *http.Request) {
		from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		if from < st.SnapshotSeq() {
			http.Error(w, "snapshot required", http.StatusGone)
			return
		}
		tail, covered := src.feed.Attach(from)
		if !covered {
			http.Error(w, "backlog gap", http.StatusInternalServerError)
			return
		}
		defer src.feed.Detach(tail)
		fl := w.(http.Flusher)
		for _, fr := range tail.Replay {
			w.Write(fr.Buf)
		}
		fl.Flush()
		for {
			select {
			case fr, ok := <-tail.C:
				if !ok {
					return
				}
				w.Write(fr.Buf)
				fr.Release()
				fl.Flush()
			case <-r.Context().Done():
				return
			}
		}
	})
	src.srv = httptest.NewServer(mux)
	t.Cleanup(func() {
		src.srv.Close()
		src.feed.Close()
		st.Close()
	})
	return src
}

func (s *testSource) apply(t *testing.T, key string, tr *update.Translation) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	errs, _ := s.st.ApplyBatchKeyed([]*update.Translation{tr}, []string{key})
	if errs[0] != nil {
		t.Fatalf("primary commit: %v", errs[0])
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFollowerKillAndResume: a durable follower is killed mid-stream,
// restarts, recovers its watermark and idempotency keys from its own
// store, and catches up without double-applying anything.
func TestFollowerKillAndResume(t *testing.T) {
	fx := fixtures.NewEmp(400)
	src := newTestSource(t, fx.PaperInstance())
	trs := genWorkload(fx, 40)
	fdir := t.TempDir()

	cfg := Config{
		Primary: src.srv.URL, Dir: fdir, Sync: wal.SyncNever,
		Logger: discardLogger(), ReconnectMin: 2 * time.Millisecond,
	}
	ctx1, kill := context.WithCancel(context.Background())
	f1, err := Open(ctx1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f1.AppliedSeq() != 0 || len(f1.RecoveredKeys()) != 0 {
		t.Fatalf("fresh bootstrap: applied=%d keys=%v", f1.AppliedSeq(), f1.RecoveredKeys())
	}
	run1 := make(chan error, 1)
	go func() { run1 <- f1.Run(ctx1, f1.Apply) }()

	// First half of the workload while the follower streams live.
	half := len(trs) / 2
	for i, tr := range trs[:half] {
		src.apply(t, fmt.Sprintf("key-%d", i), tr)
	}
	waitFor(t, "first-half catch-up", func() bool {
		return f1.AppliedSeq() == src.st.CommittedSeq()
	})
	killedAt := f1.AppliedSeq()

	// Kill mid-stream.
	kill()
	if err := <-run1; err != nil {
		t.Fatalf("killed run: %v", err)
	}
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}

	// The primary keeps committing while the follower is down.
	for i, tr := range trs[half:] {
		src.apply(t, fmt.Sprintf("key-%d", half+i), tr)
	}

	// Restart: recovery, not bootstrap — watermark and keys come from
	// the follower's own store.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	f2, err := Open(ctx2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.AppliedSeq() != killedAt {
		t.Fatalf("recovered watermark %d, want %d", f2.AppliedSeq(), killedAt)
	}
	keys := f2.RecoveredKeys()
	if len(keys) == 0 || keys[0] != "key-0" || keys[len(keys)-1] != fmt.Sprintf("key-%d", half-1) {
		t.Fatalf("recovered keys %v, want key-0..key-%d", keys, half-1)
	}

	// Resume, asserting strictly ascending seqs above the watermark:
	// any double-apply trips here before it corrupts state.
	last := f2.AppliedSeq()
	deliver := func(c Commit) error {
		if c.Seq <= last {
			return fmt.Errorf("double apply: seq %d after %d", c.Seq, last)
		}
		last = c.Seq
		return f2.Apply(c)
	}
	run2 := make(chan error, 1)
	go func() { run2 <- f2.Run(ctx2, deliver) }()
	waitFor(t, "resume catch-up", func() bool {
		return f2.AppliedSeq() == src.st.CommittedSeq()
	})
	cancel2()
	if err := <-run2; err != nil {
		t.Fatalf("resumed run: %v", err)
	}

	src.mu.Lock()
	want := captureJSON(t, src.st.DB())
	src.mu.Unlock()
	if got := captureJSON(t, f2.DB()); !bytes.Equal(got, want) {
		t.Fatal("follower state differs from primary after resume")
	}
}

// TestFollowerReconnectsThroughDrops: the source sheds the stream
// repeatedly mid-run; the follower must reconnect from its watermark
// and still converge, applying each commit exactly once.
func TestFollowerReconnectsThroughDrops(t *testing.T) {
	fx := fixtures.NewEmp(400)
	src := newTestSource(t, fx.PaperInstance())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f, err := Open(ctx, Config{
		Primary: src.srv.URL, Logger: discardLogger(), ReconnectMin: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var applied uint64
	deliver := func(c Commit) error {
		if c.Seq <= applied {
			return fmt.Errorf("double apply: %d after %d", c.Seq, applied)
		}
		applied = c.Seq
		return f.Apply(c)
	}
	run := make(chan error, 1)
	go func() { run <- f.Run(ctx, deliver) }()

	// Every tenth frame sent sheds the tail it was meant for: the
	// follower sees a clean close and must resume.
	plan := faultinject.NewPlan(1).FailEveryNth(faultinject.SiteStreamSend, 10, -1, errors.New("shed"))
	faultinject.Enable(plan)
	defer faultinject.Disable()
	for i, tr := range genWorkload(fx, 30) {
		if i%10 == 0 {
			waitFor(t, "tail attach", func() bool { return src.feed.Tails() > 0 })
		}
		src.apply(t, "", tr)
	}
	waitFor(t, "convergence through drops", func() bool {
		return f.AppliedSeq() == src.st.CommittedSeq()
	})
	if plan.Fired(faultinject.SiteStreamSend) == 0 {
		t.Fatal("no tail was shed")
	}
	cancel()
	if err := <-run; err != nil {
		t.Fatalf("run: %v", err)
	}
	src.mu.Lock()
	want := captureJSON(t, src.st.DB())
	src.mu.Unlock()
	if got := captureJSON(t, f.DB()); !bytes.Equal(got, want) {
		t.Fatal("follower diverged across reconnects")
	}
}
