package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viewupdate/internal/faultinject"
	"viewupdate/internal/persist"
	"viewupdate/internal/shard"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/wal"
)

// shardScript is the sharded serving test schema: a parent/child pair
// under an inclusion dependency plus a join view rooted at the child,
// so join-view inserts extend across both relations — cross-shard
// whenever the two root keys hash apart.
const shardScript = `
CREATE DOMAIN EKey AS INT RANGE 1 TO 100000;
CREATE DOMAIN DKey AS INT RANGE 1 TO 100000;
CREATE DOMAIN Funds AS INT RANGE 0 TO 100;
CREATE TABLE DEPT (DNo DKey, Budget Funds, PRIMARY KEY (DNo));
CREATE TABLE EMP (ENo EKey, Dept DKey, PRIMARY KEY (ENo),
                  FOREIGN KEY (Dept) REFERENCES DEPT);
CREATE VIEW DV AS SELECT * FROM DEPT;
CREATE VIEW EV AS SELECT * FROM EMP;
CREATE JOIN VIEW ED ROOT EV WITH EV (Dept) REFERENCES DV;
`

// newShardEngine builds an N-way sharded engine over dir.
func newShardEngine(t *testing.T, dir string, n int, mut func(*Config)) *Engine {
	t.Helper()
	cfg := Config{Dir: dir, Shards: n, MaxInFlight: 32, MaxBatch: 8,
		RequestTimeout: 5 * time.Second}
	if mut != nil {
		mut(&cfg)
	}
	e, err := NewEngine(cfg, shardScript)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// insertED inserts (eno, dno) through the join view with an optional
// idempotency key: SPJ-I extends the missing DEPT parent, so the
// translation spans EMP and DEPT — cross-shard when their keys hash to
// different shards.
func insertED(e *Engine, eno, dno int, key string) error {
	body := updateBody{Values: []string{
		strconv.Itoa(eno), strconv.Itoa(dno), strconv.Itoa(dno), "7"}}
	cand, _, _, base, err := e.Translate(context.Background(), "ED", nil, e.buildRequest(update.Insert, body))
	if err != nil {
		return err
	}
	if key != "" {
		if _, dup := e.idem.reserve(key); dup {
			return nil
		}
	}
	_, err = e.CommitKeyed(context.Background(), cand.Translation, false, base, key)
	return err
}

// insertDept inserts a lone parent row through the DV selection view —
// always single-shard.
func insertDept(e *Engine, dno int) error {
	body := updateBody{Values: []string{strconv.Itoa(dno), "7"}}
	cand, _, _, base, err := e.Translate(context.Background(), "DV", nil, e.buildRequest(update.Insert, body))
	if err != nil {
		return err
	}
	_, err = e.Commit(context.Background(), cand.Translation, false, base)
	return err
}

// TestShardedCommitsAndRecovery is the sharded twin of the engine's
// acceptance test: concurrent single- and cross-shard commits all land,
// the health report exposes the shard version vector, and a restart
// over the shard directory recovers exactly the committed state.
func TestShardedCommitsAndRecovery(t *testing.T) {
	sink := metricsSink(t)
	dir := t.TempDir()
	e := newShardEngine(t, dir, 4, nil)

	const n = 24
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = insertED(e, i+1, i+1001, "")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sharded commit %d failed: %v", i, err)
		}
	}
	snap, version := e.Snapshot()
	if snap.Len("EMP") != n || snap.Len("DEPT") != n {
		t.Fatalf("snapshot EMP=%d DEPT=%d, want %d each", snap.Len("EMP"), snap.Len("DEPT"), n)
	}
	if version != n {
		t.Fatalf("version %d, want %d", version, n)
	}

	h := e.Health()
	if h.Shards != 4 || len(h.ShardVersions) != 4 {
		t.Fatalf("healthz shards=%d vector=%v, want 4 shards", h.Shards, h.ShardVersions)
	}
	if !h.Durable || h.Status != "ok" {
		t.Fatalf("healthz = %+v, want durable ok", h)
	}
	var durableMax uint64
	for _, v := range h.ShardVersions {
		if v > durableMax {
			durableMax = v
		}
	}
	if durableMax == 0 {
		t.Fatalf("no shard reports durable progress: %v", h.ShardVersions)
	}

	ms := sink.Metrics().Snapshot()
	if ms.Counters["server.cross.commits"] == 0 {
		t.Fatalf("no cross-shard commits observed over %d extend-inserts on 4 shards", n)
	}
	perShard := int64(0)
	for i := 0; i < 4; i++ {
		perShard += ms.Counters[fmt.Sprintf("server.shard.%d.committed", i)]
	}
	if perShard != int64(n) {
		t.Fatalf("per-shard committed counters sum to %d, want %d", perShard, n)
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same directory: state and shard count recover.
	e2 := newShardEngine(t, dir, 4, nil)
	set, _, err := e2.ReadView("ED")
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != n {
		t.Fatalf("recovered join view has %d rows, want %d", set.Len(), n)
	}
	if err := insertED(e2, 500, 1501, ""); err != nil {
		t.Fatalf("post-recovery commit: %v", err)
	}
}

// TestShardedShardCountMismatch: reopening a shard store with the wrong
// -shards value must fail loudly, not silently repartition.
func TestShardedShardCountMismatch(t *testing.T) {
	dir := t.TempDir()
	e := newShardEngine(t, dir, 2, nil)
	if err := insertDept(e, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := NewEngine(Config{Dir: dir, Shards: 4}, shardScript)
	if err == nil {
		t.Fatal("reopening a 2-shard store with Shards=4 should fail")
	}
}

// TestShardedIdemReplayAfterKill: a keyed commit survives a crash (Kill
// skips the checkpoint), and the restarted engine seeds the dedup table
// from the per-shard WALs — one entry per key.
func TestShardedIdemReplayAfterKill(t *testing.T) {
	dir := t.TempDir()
	e := newShardEngine(t, dir, 3, nil)
	if err := insertED(e, 42, 4242, "req-42"); err != nil {
		t.Fatal(err)
	}
	e.Kill()

	e2 := newShardEngine(t, dir, 3, nil)
	ent, dup := e2.idem.reserve("req-42")
	if !dup || !ent.ok || !ent.replayed {
		t.Fatalf("raw key after recovery: dup=%v entry=%+v, want replayed fulfilled", dup, ent)
	}
	if n := e2.idem.size(); n != 1 {
		t.Fatalf("dedup table holds %d entries for one recovered key, want 1", n)
	}
	// The commit itself is durable: the row survived the crash.
	set, _, err := e2.ReadView("EV")
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 1 {
		t.Fatalf("recovered EMP view has %d rows, want 1", set.Len())
	}
}

// TestShardedBrokenShardDegrades: when one shard's WAL media dies, the
// affected commits answer ErrNotDurable, the breaker browns the engine
// out, health reports broken, and reads keep serving.
func TestShardedBrokenShardDegrades(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	armed := map[int]*faultinject.ArmedCrashWriter{}
	e := newShardEngine(t, dir, 2, func(c *Config) {
		c.BreakerCooldown = time.Minute
		c.WrapWAL = func(i int, f wal.File) wal.File {
			w := &faultinject.ArmedCrashWriter{W: f}
			mu.Lock()
			armed[i] = w
			mu.Unlock()
			return w
		}
	})
	if err := insertDept(e, 1); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	for _, w := range armed {
		w.Crash(0)
	}
	mu.Unlock()

	var gotNotDurable bool
	for i := 2; i < 20; i++ {
		err := insertDept(e, i)
		if err == nil {
			t.Fatalf("insert %d landed on crashed media", i)
		}
		if errors.Is(err, persist.ErrNotDurable) {
			gotNotDurable = true
			break
		}
		// Brownout rejections after the breaker trips are also fine.
		if errors.Is(err, ErrOverloaded) || e.Degraded() {
			break
		}
	}
	if !gotNotDurable && !e.Degraded() {
		t.Fatal("crashed shard media produced neither ErrNotDurable nor degradation")
	}
	if e.Ready() {
		t.Fatal("engine still ready with a broken shard")
	}
	h := e.Health()
	if h.Status != "broken" && h.Status != "degraded" {
		t.Fatalf("health status %q, want broken or degraded", h.Status)
	}
	// Reads keep serving the published (pre-crash plus unacked) state.
	if _, _, err := e.ReadView("DV"); err != nil {
		t.Fatalf("read during brownout: %v", err)
	}
	e.Kill() // crashed media: skip the checkpoint path
}

// TestShardedDDLAndScriptWrites: ExecScript DDL after boot quiesces the
// pipelines and re-checkpoints (the manifest gains the new relation and
// its inclusions), and script INSERTs ride the lanes like any commit;
// everything survives a restart.
func TestShardedDDLAndScriptWrites(t *testing.T) {
	dir := t.TempDir()
	e := newShardEngine(t, dir, 2, nil)
	if err := insertED(e, 7, 70, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecScript(`
CREATE TABLE ANNEX (ANo EKey, Dept DKey, PRIMARY KEY (ANo),
                    FOREIGN KEY (Dept) REFERENCES DEPT);
INSERT INTO ANNEX VALUES (9, 70);
`); err != nil {
		t.Fatal(err)
	}
	snap, _ := e.Snapshot()
	if snap.Len("ANNEX") != 1 {
		t.Fatalf("ANNEX has %d rows, want 1", snap.Len("ANNEX"))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// The restart proves the DDL checkpoint landed the new relation AND
	// its inclusion dependency in the manifest.
	st, err := shard.Open(dir, 2, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.DB().Len("ANNEX") != 1 || st.DB().Len("EMP") != 1 || st.DB().Len("DEPT") != 1 {
		t.Fatalf("recovered ANNEX=%d EMP=%d DEPT=%d, want 1 each",
			st.DB().Len("ANNEX"), st.DB().Len("EMP"), st.DB().Len("DEPT"))
	}
	if len(st.DB().Schema().Inclusions()) != 2 {
		t.Fatalf("recovered %d inclusions, want 2", len(st.DB().Schema().Inclusions()))
	}
}

// crossPairs returns n (ENo, DNo) pairs whose EMP and DEPT rows live on
// different shards of e, so that inserting one through the join view ED
// is a cross-shard commit.
func crossPairs(e *Engine, n int) [][2]int {
	m, sch := e.ShardStore().Map(), e.db.Schema()
	var out [][2]int
	for k := 1; len(out) < n; k++ {
		emp := tuple.MustNew(sch.Relation("EMP"), value.NewInt(int64(k)), value.NewInt(int64(1000+k)))
		dept := tuple.MustNew(sch.Relation("DEPT"), value.NewInt(int64(1000+k)), value.NewInt(7))
		if m.Of(emp) != m.Of(dept) {
			out = append(out, [2]int{k, 1000 + k})
		}
	}
	return out
}

// TestShardedStreamWaitsForEarlierSeqs: the acker answers a commit as
// soon as it is durable, but releases it to the replication stream only
// once every earlier seq has its verdict. A cross-shard commit is held
// inside its prepare window while a later single-shard commit on a
// third shard becomes durable and is acked; the stream watermark stays
// put until the held commit is released, then both reach the stream in
// seq order.
func TestShardedStreamWaitsForEarlierSeqs(t *testing.T) {
	e := newShardEngine(t, t.TempDir(), 4, nil)
	pair := crossPairs(e, 1)[0]
	m, sch := e.ShardStore().Map(), e.db.Schema()
	dept := func(dno int) tuple.T {
		return tuple.MustNew(sch.Relation("DEPT"), value.NewInt(int64(dno)), value.NewInt(7))
	}
	busy := map[int]bool{
		m.Of(tuple.MustNew(sch.Relation("EMP"), value.NewInt(int64(pair[0])), value.NewInt(int64(pair[1])))): true,
		m.Of(dept(pair[1])): true,
	}
	dno := 50000
	for busy[m.Of(dept(dno))] {
		dno++
	}

	held, release := make(chan struct{}), make(chan struct{})
	faultinject.Enable(faultinject.NewPlan(1).CallNth(faultinject.SiteShardPrepare, 1, func() {
		close(held)
		<-release
	}))
	defer faultinject.Disable()
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock() // a failed check must not leave the engine's drain hanging
	before := e.dur.CommittedSeq()
	tail, _ := e.stream.Attach(before)
	defer e.stream.Detach(tail)
	crossDone := make(chan error, 1)
	go func() { crossDone <- insertED(e, pair[0], pair[1], "") }()
	<-held
	if err := insertDept(e, dno); err != nil {
		t.Fatalf("the later single-shard commit: %v", err)
	}
	if got := e.dur.CommittedSeq(); got != before {
		t.Fatalf("stream watermark %d while seq %d is in its prepare window, want %d", got, before+1, before)
	}
	unblock()
	if err := <-crossDone; err != nil {
		t.Fatalf("the held cross-shard commit: %v", err)
	}
	for want := before + 1; want <= before+2; want++ {
		select {
		case fr := <-tail.C:
			if fr.Key != want {
				t.Fatalf("stream carried seq %d, want %d", fr.Key, want)
			}
			fr.Release()
		case <-time.After(5 * time.Second):
			t.Fatalf("seq %d never reached the stream", want)
		}
	}
}

// TestShardedCrossCommitOnDeadMedia: a two-phase commit whose prepare
// cannot be journaled is a durability failure (503), never an
// optimistic conflict (409) — from the update routes and from a script
// alike, since both ride the lanes.
func TestShardedCrossCommitOnDeadMedia(t *testing.T) {
	var mu sync.Mutex
	var armed []*faultinject.ArmedCrashWriter
	e := newShardEngine(t, t.TempDir(), 2, func(c *Config) {
		c.BreakerCooldown = time.Minute
		c.WrapWAL = func(_ int, f wal.File) wal.File {
			w := &faultinject.ArmedCrashWriter{W: f}
			mu.Lock()
			armed = append(armed, w)
			mu.Unlock()
			return w
		}
	})
	cross := crossPairs(e, 2)
	mu.Lock()
	for _, w := range armed {
		w.Crash(0)
	}
	mu.Unlock()
	err := insertED(e, cross[0][0], cross[0][1], "")
	if !errors.Is(err, persist.ErrNotDurable) || errors.Is(err, ErrConflict) {
		t.Fatalf("cross-shard insert on dead media: %v, want ErrNotDurable and no conflict", err)
	}
	_, err = e.ExecScript(fmt.Sprintf("INSERT INTO ED VALUES (%d, %d, %d, 7);", cross[1][0], cross[1][1], cross[1][1]))
	if !errors.Is(err, persist.ErrNotDurable) || errors.Is(err, ErrConflict) {
		t.Fatalf("cross-shard script insert on dead media: %v, want ErrNotDurable and no conflict", err)
	}
	e.Kill() // crashed media: skip the checkpoint path
}

// TestShardedScriptCrashInsidePrepareWindow is the engine-level twin of
// the shard store's TestCrashInsidePrepareWindow for the script door: a
// script statement is inside the two-phase window (its prepares durable
// on both lanes) when the SiteShardPrepare failpoint fires. The
// statement must error as not durable, and a restart must presume abort:
// the recovered state is what a fault-free engine holds after the
// statements that did succeed.
func TestShardedScriptCrashInsidePrepareWindow(t *testing.T) {
	dir := t.TempDir()
	e := newShardEngine(t, dir, 4, nil)
	cross := crossPairs(e, 2)
	insert := func(p [2]int) string {
		return fmt.Sprintf("INSERT INTO ED VALUES (%d, %d, %d, 7);", p[0], p[1], p[1])
	}
	if _, err := e.ExecScript(insert(cross[0])); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("power cut")
	faultinject.Enable(faultinject.NewPlan(1).FailNth(faultinject.SiteShardPrepare, 1, boom))
	defer faultinject.Disable()
	_, err := e.ExecScript(insert(cross[1]))
	if !errors.Is(err, persist.ErrNotDurable) || !errors.Is(err, boom) {
		t.Fatalf("script across the crash window: %v, want ErrNotDurable wrapping the injected fault", err)
	}
	faultinject.Disable()
	e.Kill()

	e2 := newShardEngine(t, dir, 4, nil)
	if rep := e2.ShardStore().Report(); rep.PreparesAborted != 2 || rep.PreparesCommitted != 2 {
		t.Fatalf("report: %s, want the first insert's prepares committed and the second's presumed aborted", rep)
	}
	ref := newShardEngine(t, t.TempDir(), 4, nil)
	if _, err := ref.ExecScript(insert(cross[0])); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"EV", "DV", "ED"} {
		got, _, err := e2.ReadView(v)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ref.ReadView(v)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Slice()) != fmt.Sprint(want.Slice()) {
			t.Fatalf("%s after restart holds %v, the fault-free replay %v", v, got.Slice(), want.Slice())
		}
	}
}

// TestShardedReadYourWrite: an acknowledged commit is readable. Over
// fast media (no fsync) a shard lane makes a commit durable — and the
// acker answers it — within microseconds of its journal jobs existing,
// so the jobs must not exist before the snapshot is published.
func TestShardedReadYourWrite(t *testing.T) {
	e := newShardEngine(t, t.TempDir(), 4, func(c *Config) { c.Sync = wal.SyncNever })
	const writers, perWriter = 4, 150
	var stale atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				dno := w*perWriter + i + 1
				if err := insertDept(e, dno); err != nil {
					t.Errorf("insert %d: %v", dno, err)
					return
				}
				snap, _ := e.Snapshot()
				probe := tuple.MustNew(snap.Schema().Relation("DEPT"), value.NewInt(int64(dno)), value.NewInt(7))
				if _, ok := snap.LookupKey(probe); !ok {
					stale.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := stale.Load(); n > 0 {
		t.Fatalf("%d of %d acknowledged commits were not readable right after their ack", n, writers*perWriter)
	}
}

// TestShardedIdemCapacityAfterRestart: a sharded engine remembers as
// many recovered keys as IdemCapacity allows — one table entry per key,
// oldest evicted first — so with exactly IdemCapacity keyed commits in
// the WALs the oldest key still deduplicates after a crash.
func TestShardedIdemCapacityAfterRestart(t *testing.T) {
	const capacity = 8
	dir := t.TempDir()
	small := func(c *Config) { c.IdemCapacity = capacity }
	e := newShardEngine(t, dir, 3, small)
	for i := 1; i <= capacity; i++ {
		if err := insertED(e, i, 1000+i, fmt.Sprintf("req-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.idem.size(); n != capacity {
		t.Fatalf("live dedup table holds %d entries for %d keys", n, capacity)
	}
	e.Kill()

	e2 := newShardEngine(t, dir, 3, small)
	for i := 1; i <= capacity; i++ {
		key := fmt.Sprintf("req-%d", i)
		if ent, dup := e2.idem.reserve(key); !dup || !ent.replayed {
			t.Fatalf("%s (of %d recovered keys, capacity %d) was not deduplicated after restart", key, capacity, capacity)
		}
	}
	// One more keyed commit evicts exactly the oldest key.
	if err := insertED(e2, 99, 1099, "req-new"); err != nil {
		t.Fatal(err)
	}
	if _, dup := e2.idem.reserve("req-1"); dup {
		t.Fatal("oldest recovered key survived an eviction it should have lost")
	}
	e2.idem.release("req-1")
	if _, dup := e2.idem.reserve("req-2"); !dup {
		t.Fatal("second-oldest recovered key was evicted out of order")
	}
}
