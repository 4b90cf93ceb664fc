package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"viewupdate/internal/faultinject"
	"viewupdate/internal/obs"
	"viewupdate/internal/persist"
	"viewupdate/internal/shard"
	"viewupdate/internal/update"
	"viewupdate/internal/wal"
)

// The pipelined journaling discipline of a sharded engine. The pipeline
// goroutine owns every memory mutation (validation, apply, sequence
// allocation, snapshot publish) exactly as in the unsharded engine —
// commitBatch is shared — but journaling fans out: each shard runs its
// own committer goroutine draining a per-shard job queue into batched
// WAL appends, so N shards sustain N concurrent fsync streams. land
// only applies to memory; settle, after the publish, allocates each
// commit's global sequence number and enqueues its journal jobs. A
// commit is acknowledged by the acker goroutine only once every
// participant's records are durable, the cross-shard decision (if any)
// is durable, and every fence shard's durable watermark has caught up
// to the applied watermark observed at settle — the acked-implies-
// durable contract of docs/SHARDING.md.
//
// Read semantics: the snapshot is published before the journal jobs
// exist, so an acknowledged commit is always readable. Readers may
// observe state that is not yet durable; no client is ever ACKED such
// state. See docs/SHARDING.md.

// Job kinds on a shard's journal queue.
const (
	jobCommit   = iota // single-shard commit: translation(+key) + commit marker
	jobPrepare         // cross-shard participant slice: prepare record (fsynced)
	jobDecision        // cross-shard decision on the coordinator (fsynced)
	jobResolve         // lazy resolve marker (never fsynced)
)

type shardJob struct {
	kind  int
	seq   uint64
	key   string
	tr    *update.Translation // participant slice (jobCommit, jobPrepare)
	cross *crossCommit        // jobPrepare, jobDecision, jobResolve
}

// A crossCommit tracks one cross-shard commit through the two-phase
// journal protocol. All fields after coord/parts are guarded by the
// runtime's mu.
type crossCommit struct {
	xid     uint64
	coord   int
	parts   []int
	pending int   // prepare records not yet durable
	decided bool  // decision record durable on the coordinator
	err     error // 2PC failure (prepare append failure, injected fault)
}

// A pendingAck is a commit waiting for its durability conditions, then
// for every earlier seq's verdict: sr.acks is the one seq-ordered list
// the acker answers waiters from and releases the stream from.
type pendingAck struct {
	r   *commitReq // nil once answered: the waiter recycles it
	seq uint64
	// key and tr are copied from r at settle, so the stream can frame
	// the commit after r is recycled.
	key     string
	tr      *update.Translation
	durable bool   // answered with success: published, not burned
	version uint64 // version assigned at apply; reported on ack
	parts   []int
	fence   []int
	need    []uint64 // per fence shard: durable watermark required
	cross   *crossCommit
	start   time.Time // set when tracing: jobs enqueued
}

// A shardQueue is an unbounded FIFO of journal jobs for one shard.
// Unbounded is safe: admission control bounds commits upstream, and
// committers enqueue follow-up jobs (decisions, resolves) to each
// other — a bounded queue there could deadlock the fleet.
type shardQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	jobs   []*shardJob
	closed bool
}

func newShardQueue() *shardQueue {
	q := &shardQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *shardQueue) put(jobs ...*shardJob) {
	q.mu.Lock()
	q.jobs = append(q.jobs, jobs...)
	q.mu.Unlock()
	q.cond.Signal()
}

// take blocks for at least one job and returns up to max, or nil when
// the queue is closed and empty.
func (q *shardQueue) take(max int) []*shardJob {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.jobs) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.jobs) == 0 {
		return nil
	}
	n := len(q.jobs)
	if n > max {
		n = max
	}
	out := q.jobs[:n:n]
	q.jobs = q.jobs[n:]
	return out
}

func (q *shardQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *shardQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.jobs)
}

// shardRuntime is the pipelined discipline's state.
type shardRuntime struct {
	e  *Engine
	st *shard.Store
	n  int

	queues []*shardQueue

	mu          sync.Mutex
	cond        *sync.Cond
	applied     []uint64      // highest global seq applied to each shard's memory
	durable     []uint64      // highest global seq durably journaled per shard
	failed      []error       // journaling failure per shard (mirrors store broken state)
	outstanding int           // enqueued jobs not yet durable (or failed)
	acks        []*pendingAck // in seq order (settle appends under stateMu)
	seqClosed   bool          // the pipeline has drained; no more commits will register

	// out receives each commit's translation record once it and every
	// earlier seq have their verdict; published is the last seq offered
	// to it (the boot watermark at start) — the fleet's durable
	// replication watermark. Both guarded by mu.
	out       func(recs []wal.Record)
	published uint64

	ackerDone chan struct{}
	wg        sync.WaitGroup

	// Preformatted per-shard metric names, so the hot path never
	// builds strings.
	gQueue    []string
	gDurable  []string
	cCommit   []string
	gInflight string
}

func newShardRuntime(e *Engine, st *shard.Store) *shardRuntime {
	n := st.N()
	sr := &shardRuntime{
		e: e, st: st, n: n, published: st.Seq(),
		queues:    make([]*shardQueue, n),
		applied:   make([]uint64, n),
		durable:   make([]uint64, n),
		failed:    make([]error, n),
		ackerDone: make(chan struct{}),
		gQueue:    make([]string, n),
		gDurable:  make([]string, n),
		cCommit:   make([]string, n),
		gInflight: "server.shard.inflight",
	}
	sr.cond = sync.NewCond(&sr.mu)
	for i := 0; i < n; i++ {
		sr.queues[i] = newShardQueue()
		sr.gQueue[i] = fmt.Sprintf("server.shard.%d.queue_depth", i)
		sr.gDurable[i] = fmt.Sprintf("server.shard.%d.version", i)
		sr.cCommit[i] = fmt.Sprintf("server.shard.%d.committed", i)
	}
	return sr
}

// start launches the per-shard committers and the acker. Everything
// recovery landed is durable by construction, and nothing else has
// landed yet: the init script's DML rides the lanes like any commit.
func (sr *shardRuntime) start() {
	sr.preregisterMetrics()
	for i := 0; i < sr.n; i++ {
		sr.applied[i] = sr.st.Seq()
		sr.durable[i] = sr.st.Seq()
	}
	for i := 0; i < sr.n; i++ {
		sr.wg.Add(1)
		go sr.runShardCommitter(i)
	}
	go sr.runAcker()
}

// stop runs once the pipeline goroutine has settled its last batch: all
// commits are applied and their jobs enqueued; wait for the acker to
// see the fleet settle, then stop the committers.
func (sr *shardRuntime) stop() {
	sr.mu.Lock()
	sr.seqClosed = true
	sr.mu.Unlock()
	sr.cond.Broadcast()
	<-sr.ackerDone
	for _, q := range sr.queues {
		q.close()
	}
	sr.wg.Wait()
}

// land routes and applies each commit to memory; nothing is journaled
// yet.
func (sr *shardRuntime) land(admitted []*commitReq) ([]*commitReq, persist.ApplyStats) {
	e := sr.e
	var stats persist.ApplyStats
	timed := obs.Enabled()
	var start time.Time
	if timed {
		start = time.Now()
	}
	landed := admitted[:0]
	for _, r := range admitted {
		route, err := shard.Classify(sr.st.Map(), e.db.Schema(), r.tr)
		if err == nil {
			err = e.db.Apply(r.tr)
		}
		if err != nil {
			e.failCommit(r, err)
			continue
		}
		r.route = route
		landed = append(landed, r)
	}
	if timed {
		stats.ApplyNS = int64(time.Since(start))
	}
	return landed, stats
}

// settle gives each published commit its global sequence number and
// fans its journal work out to the shard committers. Waiters are NOT
// answered here — the acker answers them when durability is reached.
func (sr *shardRuntime) settle(landed []*commitReq, base uint64, stats persist.ApplyStats, publishNS int64) {
	timed := obs.Enabled()
	for i, r := range landed {
		route := r.route
		seq := sr.st.NextSeq()
		r.traceBatch(stats, publishNS)
		// Everything the job loop below and the stream need from the
		// pooled request must be copied out before the ack is published:
		// once it is in sr.acks the acker may answer it (e.g. a shard
		// already failed) and the waiter recycles r immediately.
		key := r.key
		ack := &pendingAck{r: r, seq: seq, key: key, tr: r.tr, version: base + uint64(i) + 1,
			parts: route.Participants, fence: route.Fence}
		if timed {
			ack.start = time.Now()
		}
		var cross *crossCommit
		if route.Cross() {
			cross = &crossCommit{xid: seq, coord: route.Home(),
				parts: route.Participants, pending: len(route.Participants)}
			ack.cross = cross
			obs.Inc("server.cross.commits")
		}
		if len(route.Fence) > 0 {
			obs.Inc("server.cross.fenced")
		}
		// Snapshot fence requirements and advance applied watermarks
		// before the jobs exist, so no committer can observe the new
		// seq without the bookkeeping.
		sr.mu.Lock()
		for _, f := range route.Fence {
			ack.need = append(ack.need, sr.applied[f])
		}
		for _, p := range route.Participants {
			if sr.applied[p] < seq {
				sr.applied[p] = seq
			}
		}
		sr.outstanding += len(route.Participants)
		sr.acks = append(sr.acks, ack)
		sr.mu.Unlock()
		for _, p := range route.Participants {
			j := &shardJob{seq: seq, tr: route.Parts[p], cross: cross}
			if cross != nil {
				j.kind = jobPrepare
			} else {
				j.kind = jobCommit
			}
			if p == route.Home() {
				j.key = key // idempotency key rides the home shard's record
			}
			sr.queues[p].put(j)
		}
	}
	sr.cond.Broadcast()
}

// runShardCommitter drains shard i's job queue into batched WAL
// appends: one write and at most one fsync per batch, independent of
// every other shard's committer. This is where the N-way fsync
// parallelism lives.
func (sr *shardRuntime) runShardCommitter(i int) {
	defer sr.wg.Done()
	q := sr.queues[i]
	for {
		jobs := q.take(sr.e.cfg.MaxBatch)
		if jobs == nil {
			return
		}
		recs := make([]wal.Record, 0, len(jobs)*2)
		var maxSeq uint64
		var prepared, decided []*crossCommit
		for _, j := range jobs {
			switch j.kind {
			case jobCommit:
				recs = append(recs, wal.EncodeTranslationKeyed(j.seq, j.key, j.tr), wal.CommitRecord(j.seq))
				if j.seq > maxSeq {
					maxSeq = j.seq
				}
			case jobPrepare:
				recs = append(recs, wal.PrepareRecord(j.seq, j.key, j.cross.coord, j.tr))
				prepared = append(prepared, j.cross)
				if j.seq > maxSeq {
					maxSeq = j.seq
				}
			case jobDecision:
				recs = append(recs, wal.DecisionRecord(j.seq))
				decided = append(decided, j.cross)
			case jobResolve:
				recs = append(recs, wal.ResolveRecord(j.seq))
			}
		}
		stats, err := sr.st.AppendBatch(i, recs)
		if err != nil {
			sr.failShard(i, err, jobs)
			continue
		}
		if obs.Enabled() && stats.Synced {
			obs.Observe(stageFsyncNS, stats.SyncNS)
		}
		sr.mu.Lock()
		if maxSeq > sr.durable[i] {
			sr.durable[i] = maxSeq
		}
		sr.outstanding -= len(jobs)
		obs.SetGauge(sr.gDurable[i], int64(sr.durable[i]))
		obs.SetGauge(sr.gInflight, int64(sr.outstanding))
		sr.mu.Unlock()
		obs.SetGauge(sr.gQueue[i], int64(q.depth()))

		// Prepares this batch made durable: the last participant to land
		// crosses the prepare barrier and hands the decision to the
		// coordinator. The failpoint between the two is the presumed-
		// abort crash window.
		for _, c := range prepared {
			sr.mu.Lock()
			c.pending--
			ready := c.pending == 0 && c.err == nil
			sr.mu.Unlock()
			if !ready {
				continue
			}
			obs.Inc("shard.cross.prepared")
			if ferr := faultinject.Hit(faultinject.SiteShardPrepare); ferr != nil {
				sr.mu.Lock()
				c.err = fmt.Errorf("%w: cross-shard prepare window: %w", persist.ErrNotDurable, ferr)
				sr.mu.Unlock()
				sr.e.brk.onFailure(ferr)
				continue
			}
			sr.mu.Lock()
			sr.outstanding++
			sr.mu.Unlock()
			sr.queues[c.coord].put(&shardJob{kind: jobDecision, seq: c.xid, cross: c})
		}
		// Decisions this batch made durable: the commits are now
		// irrevocable. Resolve markers let each participant settle its
		// prepare locally at the next recovery; they are lazy (no sync).
		for _, c := range decided {
			obs.Inc("shard.cross.decided")
			_ = faultinject.Hit(faultinject.SiteShardDecision) // errors ignored: decided is decided
			sr.mu.Lock()
			c.decided = true
			sr.outstanding += len(c.parts)
			sr.mu.Unlock()
			for _, p := range c.parts {
				sr.queues[p].put(&shardJob{kind: jobResolve, seq: c.xid, cross: c})
			}
		}
		sr.cond.Broadcast()
	}
}

// failShard records a journaling failure: the shard's memory is ahead
// of its media and only a restart reconciles them. Every job in the
// failed batch is accounted, affected cross commits are poisoned, and
// the breaker pushes the engine into brownout.
func (sr *shardRuntime) failShard(i int, err error, jobs []*shardJob) {
	sr.e.brk.onFailure(err)
	sr.e.logf("shard journaling failed", "shard", i, "err", err.Error())
	sr.mu.Lock()
	if sr.failed[i] == nil {
		sr.failed[i] = err
	}
	sr.outstanding -= len(jobs)
	for _, j := range jobs {
		if j.cross != nil && j.cross.err == nil {
			j.cross.err = fmt.Errorf("%w: shard %d: %w", persist.ErrNotDurable, i, err)
		}
	}
	sr.mu.Unlock()
	sr.cond.Broadcast()
}

// runAcker answers waiters as their durability conditions come true:
// participants durable past the commit's seq, decision durable for
// cross-shard commits, fence shards durable past the applied watermark
// observed at validation. Commits become durable out of seq order
// (each shard fsyncs independently), so an answered ack stays in
// sr.acks until every earlier seq is answered too; then the answered
// prefix is popped onto the replication stream in seq order — a
// durable commit is published, a failed one burns its seq (followers
// never see it, exactly like recovery).
func (sr *shardRuntime) runAcker() {
	defer close(sr.ackerDone)
	e := sr.e
	sr.mu.Lock()
	defer sr.mu.Unlock()
	for {
		for _, a := range sr.acks {
			if a.r == nil {
				continue // answered; waits for the prefix
			}
			switch sr.ackStateLocked(a) {
			case ackReady:
				if a.key != "" {
					e.idem.fulfill(a.key, a.version)
				}
				if a.r.trace != nil {
					a.r.trace.Stage("fsync", time.Since(a.start))
				}
				obs.Inc(sr.cCommit[a.parts[0]])
				a.durable = true
				a.r.done <- commitRes{version: a.version}
				a.r = nil
			case ackFailed:
				err := sr.ackErrLocked(a)
				e.releaseKey(a.r)
				a.r.done <- commitRes{err: classifyApplyError(err)}
				a.r = nil
			}
		}
		n := 0
		for ; n < len(sr.acks) && sr.acks[n].r == nil; n++ {
			if a := sr.acks[n]; a.durable {
				// Encoding happens here, off the pipeline's critical path,
				// and only for commits that actually publish.
				sr.published = a.seq
				if sr.out != nil {
					sr.out([]wal.Record{wal.EncodeTranslationKeyed(a.seq, a.key, a.tr)})
				}
			}
		}
		sr.acks = append(sr.acks[:0], sr.acks[n:]...)
		if sr.seqClosed && len(sr.acks) == 0 && sr.outstanding == 0 {
			return
		}
		sr.cond.Wait()
	}
}

const (
	ackWaiting = iota
	ackReady
	ackFailed
)

// ackStateLocked evaluates one pending ack. Callers hold sr.mu.
func (sr *shardRuntime) ackStateLocked(a *pendingAck) int {
	if a.cross != nil && a.cross.err != nil {
		return ackFailed
	}
	for _, p := range a.parts {
		if sr.failed[p] != nil {
			return ackFailed
		}
	}
	for _, f := range a.fence {
		if sr.failed[f] != nil {
			return ackFailed
		}
	}
	for _, p := range a.parts {
		if sr.durable[p] < a.seq {
			return ackWaiting
		}
	}
	if a.cross != nil && !a.cross.decided {
		return ackWaiting
	}
	for k, f := range a.fence {
		if sr.durable[f] < a.need[k] {
			return ackWaiting
		}
	}
	return ackReady
}

func (sr *shardRuntime) ackErrLocked(a *pendingAck) error {
	if a.cross != nil && a.cross.err != nil {
		return a.cross.err
	}
	for _, p := range a.parts {
		if sr.failed[p] != nil {
			return fmt.Errorf("%w: shard %d: %w", persist.ErrNotDurable, p, sr.failed[p])
		}
	}
	for _, f := range a.fence {
		if sr.failed[f] != nil {
			return fmt.Errorf("%w: fence shard %d: %w", persist.ErrNotDurable, f, sr.failed[f])
		}
	}
	return persist.ErrNotDurable
}

// quiesce blocks until every enqueued journal job has settled and every
// waiter is answered. Callers hold stateMu (blocking the pipeline), so
// no new work can enter while waiting. Used by the DDL checkpoint hook
// and the bootstrap snapshot.
func (sr *shardRuntime) quiesce() {
	sr.mu.Lock()
	for sr.outstanding > 0 || len(sr.acks) > 0 {
		sr.cond.Wait()
	}
	sr.mu.Unlock()
}

// health reports the shard count and the per-shard durable watermarks —
// the shard version vector exposed by /healthz.
func (sr *shardRuntime) health(h *Healthz) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	h.Shards = sr.n
	h.ShardVersions = append([]uint64(nil), sr.durable...)
}

// shardedStore is the durableStore of a sharded engine: the shard store
// plus the acker, which knows how far the fleet is durable in global
// sequence order.
type shardedStore struct {
	*shard.Store
	sr *shardRuntime
}

func (s shardedStore) CommittedSeq() uint64 {
	s.sr.mu.Lock()
	defer s.sr.mu.Unlock()
	return s.sr.published
}

func (s shardedStore) Err() error { return s.BrokenAny() }

func (s shardedStore) SetOnCommit(fn func(recs []wal.Record)) {
	s.sr.mu.Lock()
	s.sr.out = fn
	s.sr.mu.Unlock()
}

// openSharded opens (or creates) the shard store at cfg.Dir and attaches
// it under the pipelined discipline.
func (e *Engine) openSharded() error {
	opts := shard.Options{Sync: e.cfg.Sync, WrapWAL: e.cfg.WrapWAL}
	st, err := shard.Open(e.cfg.Dir, e.cfg.Shards, opts)
	switch {
	case err == nil:
		e.logf("recovered sharded store", "dir", e.cfg.Dir, "report", st.Report().String())
		if aerr := e.sess.AdoptRecovered(st.DB()); aerr != nil {
			st.Close()
			return aerr
		}
	case errors.Is(err, persist.ErrNoStore):
		st, err = shard.Create(e.cfg.Dir, e.cfg.Shards, e.sess.DB(), opts)
		if err != nil {
			return err
		}
		e.logf("created sharded store", "dir", e.cfg.Dir, "shards", e.cfg.Shards)
	default:
		return err
	}
	sr := newShardRuntime(e, st)
	e.shst, e.disc, e.dur = st, sr, shardedStore{Store: st, sr: sr}
	return nil
}

// preregisterMetrics extends the metric schema with the per-shard and
// cross-shard families, so scrapes see them from the first poll.
func (sr *shardRuntime) preregisterMetrics() {
	s := obs.Active()
	if s == nil {
		return
	}
	reg := s.Metrics()
	for _, c := range []string{
		"server.cross.commits", "server.cross.fenced",
		"shard.cross.prepared", "shard.cross.decided",
		"shard.store.recovered", "shard.store.replayed",
		"shard.store.checkpoint", "shard.store.broken", "shard.store.orphans_pruned",
	} {
		reg.Counter(c)
	}
	reg.Gauge(sr.gInflight)
	for i := 0; i < sr.n; i++ {
		reg.Gauge(sr.gQueue[i])
		reg.Gauge(sr.gDurable[i])
		reg.Counter(sr.cCommit[i])
	}
}
