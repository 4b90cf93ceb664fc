package server

import (
	"errors"
	"fmt"
	"time"

	"viewupdate/internal/faultinject"
	"viewupdate/internal/obs"
	"viewupdate/internal/persist"
	"viewupdate/internal/shard"
	"viewupdate/internal/update"
	"viewupdate/internal/vuerr"
	"viewupdate/internal/wal"
)

// Stage histogram names of the pipeline trace, pre-declared so the hot
// path observes them without building strings. Every name lands in the
// trace of each request that passed through the stage and in the
// corresponding histogram; docs/OBSERVABILITY.md documents the
// semantics of each.
const (
	stageTranslateNS = "server.stage.translate.ns"
	stageVerifyNS    = "server.stage.verify.ns"
	stageQueueNS     = "server.stage.queue.ns"
	stageCommitNS    = "server.stage.commit.ns"
	stageFsyncNS     = "server.stage.fsync.ns"
	stagePublishNS   = "server.stage.publish.ns"
)

// A commitReq is one translation waiting in the pipeline.
type commitReq struct {
	tr *update.Translation
	// strict demands the database version still equal baseVersion when
	// the commit applies (wire-transaction commits). Non-strict commits
	// are validated op-by-op by storage instead: a removed tuple that
	// vanished, a key collision, or an inclusion violation at apply time
	// is a conflict.
	strict      bool
	baseVersion uint64
	// key is the request's idempotency key ("" for none): written into
	// the WAL translation frame and fulfilled/released in the dedup
	// table by the pipeline.
	key  string
	done chan commitRes
	// trace, when non-nil, is the submitting request's pipeline trace;
	// the pipeline records the queue/commit/fsync/publish stages into
	// it. enqueued is the submission time the queue stage is measured
	// from (set only when trace is non-nil).
	trace    *obs.Trace
	enqueued time.Time
	// route is the shard classification the pipelined discipline's land
	// hands to its settle.
	route *shard.Route
	// script marks a statement landed by the session applier under
	// stateMu (applyScript): nothing can have moved under it, so a
	// validation failure is the statement's own error, not a conflict.
	script bool
}

type commitRes struct {
	err     error
	version uint64
}

// A discipline is how admitted commits reach media — the one part of
// the pipeline that depends on which store is attached. Two exist,
// selected at boot by the shard count: synchronous append with clean
// rollback (syncDiscipline: memory-only and single-store engines, over
// persist.Store's one commit protocol) and pipelined per-shard lanes
// with two-phase commit (shardRuntime, shard.go — the one place that
// protocol is written). commitBatch calls land and settle under
// stateMu on the pipeline goroutine; applyScript calls them under
// stateMu for script DML; nothing else reaches a store.
//
// Why two remain (ROADMAP's parked note "Merging the two journaling
// disciplines", measured and closed): a single store on one lane is
// nowhere faster and breaks contracts. sp_small_durable, 4 alternating
// 25 s pairs, 0 failed ops, medians sync → one lane:
//
//	update_p50_ms         0.747 → 0.827  (+11%, 3 of 4 pairs worse)
//	update_rps            2,299 → 1,935  (−16%)
//	update_p90_ms         1.19  → 1.59   (+33%; parent runs span 1.05–1.61: unresolved)
//	server_cpu_ms_per_op  0.320 → 0.364  (+14%, 4 of 4 worse)
//
// and six tests pin what the lanes cannot do: a lane has already
// published when its append fails, so it cannot roll back, and one
// transient fault means broken-until-restart where the synchronous
// discipline rolls back and recovers through the breaker's probe
// (TestBreakerBrownoutAndRecovery, TestDrainRacesInFlightCommits); the
// lanes spend 3 fsyncs on 6 commits where TestGroupCommitBatches wants
// 2; and TestParallelDisjointCommitsAndRecovery, TestCrashMidBatchRecovery
// and TestDrainFlushesQueuedCommits reopen the directory with
// persist.Open.
type discipline interface {
	// start launches whatever goroutines the discipline needs; stop
	// returns once they have settled every commit and exited.
	start()
	stop()
	// land applies the admitted commits to the live database, in order,
	// answering each one that fails and returning the ones that landed.
	// The stats cover the batch (populated only while instrumentation is
	// enabled).
	land(admitted []*commitReq) ([]*commitReq, persist.ApplyStats)
	// settle runs once the landed commits are published as versions
	// base+1, base+2, …: it answers their waiters, or hands them to
	// whatever answers them when they are durable. Either way no waiter
	// is answered before its commit is readable.
	settle(landed []*commitReq, base uint64, stats persist.ApplyStats, publishNS int64)
	// quiesce blocks until no commit is in flight. Callers hold stateMu.
	quiesce()
	// health fills the discipline's part of the health report.
	health(h *Healthz)
}

// runPipeline is the single writer: it owns every mutation of the live
// database that goes through the pipeline. It gathers queued commits
// into batches through the adaptive batcher — everything already
// waiting, up to MaxBatch, plus whatever a bounded wait-a-little window
// accumulates under load — so that concurrent commits share one trip
// through commitBatch (see batch.go).
func (e *Engine) runPipeline() {
	defer close(e.drained)
	defer e.disc.stop()
	b := newBatcher(e.commitC, e.cfg.MaxBatch, e.cfg.batchDelay(), realClock{})
	for {
		batch, more := b.next()
		if len(batch) > 0 {
			e.commitBatch(batch)
		}
		if !more {
			return
		}
	}
}

// commitBatch takes one batch through the pipeline: recheck optimistic
// conflicts against the live state, land the survivors, publish the
// next snapshot (one version per landed commit, warm view rows carried
// forward — see publish), and settle the waiters. Along the way
// it records the pipeline stages — queue wait per request; commit,
// fsync and publish per batch — into the stage histograms; the
// discipline records them into each request's trace.
func (e *Engine) commitBatch(batch []*commitReq) {
	sp := obs.StartSpan("server.commit.batch")
	defer sp.End()
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	obs.Inc("server.commit.batches")
	obs.Observe("server.commit.batch_size", int64(len(batch)))
	obs.SetGauge("server.commit.queue_depth", int64(len(e.commitC)))

	timed := obs.Enabled()
	if timed {
		now := time.Now()
		for _, r := range batch {
			if r.trace != nil {
				wait := now.Sub(r.enqueued)
				r.trace.Stage("queue", wait)
				obs.Observe(stageQueueNS, int64(wait))
			}
		}
	}

	if ferr := faultinject.Hit(faultinject.SiteServerCommit); ferr != nil {
		err := fmt.Errorf("server: commit pipeline: %w", ferr)
		e.brk.onFailure(err)
		for _, r := range batch {
			e.releaseKey(r)
			r.done <- commitRes{err: err}
		}
		return
	}

	base := e.snap.Load().version

	// Strict commits are validated against the version their state was
	// staged from, ordered ahead of the op-validated commits so the
	// predicted version at each strict commit's apply point is exact: a
	// strict commit admitted at its own base version applies to exactly
	// the state it was staged from and cannot fail op-level validation.
	var admitted []*commitReq
	var rest []*commitReq
	predicted := base
	for _, r := range batch {
		if !r.strict {
			rest = append(rest, r)
			continue
		}
		if r.baseVersion != predicted {
			obs.Inc("server.commit.conflict")
			e.releaseKey(r)
			r.done <- commitRes{err: fmt.Errorf("%w: database moved from version %d to %d since BEGIN",
				ErrConflict, r.baseVersion, predicted)}
			continue
		}
		admitted = append(admitted, r)
		predicted++
	}
	admitted = append(admitted, rest...)
	if len(admitted) == 0 {
		return
	}

	landed, stats := e.disc.land(admitted)
	if timed {
		obs.Observe(stageCommitNS, commitStageNS(stats))
		if stats.Synced {
			obs.Observe(stageFsyncNS, stats.FsyncNS)
		}
	}
	if len(landed) == 0 {
		return
	}
	// The publish failpoint exists for chaos kill triggers: the batch
	// has landed, so an injected error cannot unland it and is
	// deliberately ignored.
	if ferr := faultinject.Hit(faultinject.SiteServerPublish); ferr != nil {
		e.logf("ignoring injected publish fault (batch already landed)", "err", ferr.Error())
	}
	var pubStart time.Time
	if timed {
		pubStart = time.Now()
	}
	trs := make([]*update.Translation, len(landed))
	for i, r := range landed {
		trs[i] = r.tr
	}
	e.publish(trs)
	obs.Add("server.commit.committed", int64(len(landed)))
	var publishNS int64
	if timed {
		publishNS = int64(time.Since(pubStart))
		obs.Observe(stagePublishNS, publishNS)
	}
	// Settle only after publish, so a request that gets its commit
	// acknowledged can immediately re-read the view at (at least) the
	// version it landed at.
	e.disc.settle(landed, base, stats, publishNS)
}

// commitStageNS is the commit stage of a batch: its time applying in
// memory and writing the WAL, minus the durability barrier, which is
// its own stage. Both are batch-shared: every request in the batch
// waited for the whole batch to land.
func commitStageNS(stats persist.ApplyStats) int64 {
	return stats.ApplyNS + stats.WALNS - stats.FsyncNS
}

// traceBatch records the batch-shared stages into the request's trace,
// each with the whole batch's duration, since that is what the request
// actually waited for.
func (r *commitReq) traceBatch(stats persist.ApplyStats, publishNS int64) {
	if r.trace == nil {
		return
	}
	r.trace.Stage("commit", time.Duration(commitStageNS(stats)))
	if stats.Synced {
		r.trace.Stage("fsync", time.Duration(stats.FsyncNS))
	}
	r.trace.Stage("publish", time.Duration(publishNS))
}

// releaseKey frees a request's idempotency reservation after a clean
// failure (nothing applied), letting a retry execute fresh.
func (e *Engine) releaseKey(r *commitReq) {
	if r.key != "" {
		e.idem.release(r.key)
	}
}

// failCommit answers a commit that applied nothing: free its
// idempotency key so a retry re-executes, and feed the breaker —
// durability failures (not conflicts) push it toward brownout.
func (e *Engine) failCommit(r *commitReq, err error) {
	e.releaseKey(r)
	e.brk.onFailure(err)
	if !r.script {
		err = classifyApplyError(err)
	}
	r.done <- commitRes{err: err}
}

// applyScript is the session's applier on every primary engine — how
// script and -init DML reaches the store: as a batch of one through the
// discipline's land and settle, waited for on the caller's goroutine
// (the acker and the lane committers never take stateMu, and done is
// buffered). Callers hold stateMu — ExecScript, or boot before anything
// else runs — and publish what landed (scriptLanded) once the script is
// over.
func (e *Engine) applyScript(tr *update.Translation) error {
	if tr.Len() == 0 {
		return nil
	}
	r := getCommitReq()
	r.tr, r.script = tr, true
	if landed, stats := e.disc.land([]*commitReq{r}); len(landed) > 0 {
		// No version to report yet: the script's statements become
		// readable together once it is over, one version each.
		e.disc.settle(landed, 0, stats, 0)
	}
	res := <-r.done
	putCommitReq(r)
	if res.err == nil && e.scriptLanded != nil {
		*e.scriptLanded = append(*e.scriptLanded, tr)
	}
	return res.err
}

// syncDiscipline is the synchronous journaling discipline: land applies
// the batch and appends it to the WAL in one write and one fsync —
// rolling memory back cleanly if the append fails — so by the time it
// returns the batch is durable and settle only has to answer.
type syncDiscipline struct {
	e *Engine
	// apply lands translations on the attached persist.Store
	// (ApplyBatchKeyed) or, memory-only, on the database alone. keys are
	// the translations' idempotency keys, recorded in the WAL frames so
	// recovery can rebuild the dedup table.
	apply func(trs []*update.Translation, keys []string) ([]error, persist.ApplyStats)
}

func (*syncDiscipline) start()          {}
func (*syncDiscipline) stop()           {}
func (*syncDiscipline) quiesce()        {}
func (*syncDiscipline) health(*Healthz) {}

func (d *syncDiscipline) land(admitted []*commitReq) ([]*commitReq, persist.ApplyStats) {
	trs := make([]*update.Translation, len(admitted))
	keys := make([]string, len(admitted))
	for i, r := range admitted {
		trs[i] = r.tr
		keys[i] = r.key
	}
	errs, stats := d.apply(trs, keys)
	landed := admitted[:0]
	for i, r := range admitted {
		if errs[i] != nil {
			d.e.failCommit(r, errs[i])
			continue
		}
		landed = append(landed, r)
	}
	if len(landed) > 0 {
		d.e.brk.onSuccess()
	}
	return landed, stats
}

func (d *syncDiscipline) settle(landed []*commitReq, base uint64, stats persist.ApplyStats, publishNS int64) {
	for i, r := range landed {
		v := base + uint64(i) + 1
		if r.key != "" {
			d.e.idem.fulfill(r.key, v)
		}
		r.traceBatch(stats, publishNS)
		r.done <- commitRes{version: v}
	}
}

// applyMemory is syncDiscipline.apply without a store: every
// translation applies to the live database alone.
func (e *Engine) applyMemory(trs []*update.Translation, _ []string) ([]error, persist.ApplyStats) {
	var stats persist.ApplyStats
	timed := obs.Enabled()
	var start time.Time
	if timed {
		start = time.Now()
	}
	errs := make([]error, len(trs))
	for i, tr := range trs {
		errs[i] = e.db.Apply(tr)
	}
	if timed {
		stats.ApplyNS = int64(time.Since(start))
	}
	return errs, stats
}

// openStore opens (or creates) the single persist.Store at cfg.Dir and
// attaches it.
func (e *Engine) openStore() error {
	opts := persist.Options{Sync: e.cfg.Sync}
	if wrap := e.cfg.WrapWAL; wrap != nil {
		opts.WrapWAL = func(f wal.File) wal.File { return wrap(0, f) }
	}
	st, err := persist.Open(e.cfg.Dir, opts)
	switch {
	case err == nil:
		e.logf("recovered store", "dir", e.cfg.Dir, "report", st.Report().String())
		if aerr := e.sess.AdoptRecovered(st.DB()); aerr != nil {
			st.Close()
			return aerr
		}
	case errors.Is(err, persist.ErrNoStore):
		st, err = persist.Create(e.cfg.Dir, e.sess.DB(), opts)
		if err != nil {
			return err
		}
		e.logf("created store", "dir", e.cfg.Dir)
	default:
		return err
	}
	e.dur = st
	e.disc = &syncDiscipline{e: e, apply: st.ApplyBatchKeyed}
	return nil
}

// classifyApplyError folds an apply-time failure into the serving
// taxonomy: transient, corrupt, non-durable (WAL I/O) and sealed-log
// failures pass through for the HTTP layer to map to 503/500;
// everything else is a validation failure of a translation staged
// against a stale snapshot — an optimistic conflict.
func classifyApplyError(err error) error {
	if vuerr.IsTransient(err) || vuerr.IsCorrupt(err) ||
		errors.Is(err, persist.ErrNotDurable) || errors.Is(err, wal.ErrSealed) {
		return err
	}
	obs.Inc("server.commit.conflict")
	return fmt.Errorf("%w: %w", ErrConflict, err)
}
