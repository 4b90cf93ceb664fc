// Package server is the network serving layer of the view-update
// engine: a stdlib-only concurrent HTTP server that exposes the sqlish
// surface over the wire — view reads, single-shot view updates with
// translator selection, and multi-statement transactions tied to a
// session token — on top of whichever durable store is attached: none,
// one persist.Store, or a shard.Store of N journals.
//
// # Concurrency model
//
// Request handlers never touch the live database. Each handler loads
// the engine's one published value — a snapshot: a storage.Database,
// its commit version and that state's own memo of materialized view
// rows — translates, stages and reads against it in parallel with every
// other request, and then submits the resulting translation to a
// single-writer group-commit pipeline. A snapshot is built whole,
// stored once, and never mutated except for memo fills; every writer
// (the pipeline, the follower's replay, admin scripts, boot) reaches
// the store through the one publish (ivm.go), which carries the
// previous snapshot's warm rows forward by the step's view delta before
// any reader can see the new database. One goroutine gathers queued
// commits into batches and runs every batch through the same steps
// (commitBatch): recheck optimistic conflicts against the live state,
// land the survivors, publish, then settle the waiters. Only land and
// settle depend on the store — the journaling discipline, chosen once
// at boot from the shard count: synchronous (one WAL append and one
// fsync for the whole batch inside land, waiters answered in settle) or
// pipelined (memory only in land; settle hands the journal work to
// per-shard lanes, and an acker answers each waiter once its records
// are durable). Script and -init DML takes the same land and settle,
// one statement at a time under the state lock (applyScript), so each
// store has one commit protocol and the engine one way into it.
// Admission control bounds the commit queue: when it is full,
// submissions fail fast and the HTTP layer answers 429 with a
// Retry-After hint.
//
// See docs/SERVING.md for the wire API and the group-commit protocol,
// docs/SHARDING.md for the pipelined discipline.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"viewupdate/internal/core"
	"viewupdate/internal/faultinject"
	"viewupdate/internal/obs"
	"viewupdate/internal/replica"
	"viewupdate/internal/shard"
	"viewupdate/internal/sqlish"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/view"
	"viewupdate/internal/wal"
)

// Sentinel errors of the serving layer, designed for errors.Is. The
// HTTP layer maps them to status codes (409, 429, 503, 504).
var (
	// ErrConflict marks a commit that lost an optimistic race: the
	// database moved between translation and apply in a way the
	// translation does not survive. Retryable by re-reading and
	// re-issuing the request.
	ErrConflict = errors.New("server: commit conflict")
	// ErrOverloaded marks a submission rejected by admission control:
	// the bounded commit queue is full.
	ErrOverloaded = errors.New("server: overloaded")
	// ErrDraining marks a submission against an engine that is shutting
	// down.
	ErrDraining = errors.New("server: draining")
	// ErrNoView marks a request against an undefined view.
	ErrNoView = errors.New("server: unknown view")
)

// Config tunes an Engine.
type Config struct {
	// Dir is the durable store directory. Empty means in-memory only:
	// no WAL, no recovery, commits still funnel through the pipeline.
	Dir string
	// Sync is the WAL sync policy (with Dir; default wal.SyncOnCommit).
	Sync wal.SyncPolicy
	// MaxInFlight bounds the commit queue; submissions beyond it are
	// rejected with ErrOverloaded. Default 64.
	MaxInFlight int
	// MaxBatch caps how many queued commits one WAL append may carry.
	// Default 32.
	MaxBatch int
	// MaxBatchDelay bounds the committer's adaptive batching window: on
	// a commit arrival with more traffic queued or expected (by recent
	// inter-arrival times), the committer waits up to this long to
	// gather a fuller batch before the WAL append+fsync. An idle engine
	// never waits. 0 means the default (200µs); negative disables the
	// window entirely, restoring drain-only gathering. See batch.go and
	// docs/PERFORMANCE.md.
	MaxBatchDelay time.Duration
	// RequestTimeout is the per-request deadline enforced by the HTTP
	// layer. Default 5s.
	RequestTimeout time.Duration
	// Logger receives structured serving logs; nil silences them.
	Logger *slog.Logger
	// WrapWAL wraps the WAL media of journal lane (shard i when sharded,
	// 0 otherwise) before the log writes to it — the fault-injection
	// hook of tests, benchmarks and the chaos harness.
	WrapWAL func(lane int, f wal.File) wal.File
	// Shards enables horizontal sharding (requires Dir): base relations
	// are partitioned by root-key hash into Shards journal lanes, each
	// with its own WAL and fsync stream, coordinated by the two-phase
	// cross-shard protocol of the pipelined discipline (shard.go). 0 or 1
	// keeps the single persist.Store under the synchronous discipline —
	// measured, not assumed: one lane over a single store is 11% slower at
	// the median update, costs 14% more server CPU per op and cannot roll
	// back an append failure (the table and the six pinning tests are on
	// the discipline type in commit.go; ROADMAP's parked note "Merging
	// the two journaling disciplines"). See docs/SHARDING.md.
	Shards int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// engine's handler. Off by default: profiling endpoints expose
	// stacks and heap contents, so they are opt-in (vuserved -pprof).
	EnablePprof bool
	// IdemCapacity bounds the durable-idempotency dedup table: how many
	// fulfilled request keys are remembered before FIFO eviction.
	// Default 4096.
	IdemCapacity int
	// BreakerCooldown is how long the write-path circuit breaker stays
	// open after tripping before it admits a probe. Default 2s.
	BreakerCooldown time.Duration
	// Follow, when non-empty, runs the engine as a read replica of the
	// source at this base URL: state bootstraps from /wal/snapshot (or
	// recovers from Dir), every source commit streams in over
	// /wal/stream and applies locally, and the write API answers 403
	// read_only. Dir makes the follower durable (restart resumes from
	// the local watermark); empty Dir re-bootstraps every start.
	// Incompatible with Shards. See docs/REPLICATION.md.
	Follow string
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.IdemCapacity <= 0 {
		c.IdemCapacity = 4096
	}
	return c
}

// defaultBatchDelay is the adaptive window bound when Config leaves
// MaxBatchDelay zero: roughly half a commodity-SSD fsync, so a waited
// batch never more than ~1.5x-es the durability barrier it amortizes.
const defaultBatchDelay = 200 * time.Microsecond

// batchDelay resolves the configured window: 0 → default, negative →
// disabled (0 for the batcher).
func (c Config) batchDelay() time.Duration {
	switch {
	case c.MaxBatchDelay < 0:
		return 0
	case c.MaxBatchDelay == 0:
		return defaultBatchDelay
	default:
		return c.MaxBatchDelay
	}
}

// A snapshot is the engine's one published value: a database state,
// its commit version, and that state's own memo of materialized view
// rows. The invariant: built whole by publish, stored once, never
// mutated except for memo fills — and a fill is a pure function of the
// snapshot's own database, so the rows cannot disagree with it and are
// never compared against anything. Handlers translate and read against
// the snapshot they loaded, never the live database. Embedding the
// database makes a snapshot a storage.Source, so a request builder
// handed one reads that same state: view.Select looks a keyed row up
// in it and scans its memo (Materialized) for anything else.
type snapshot struct {
	*storage.Database
	version uint64

	mu sync.Mutex // guards views
	// views is keyed by the view value, not its name: an entry answers
	// for exactly the definition that filled it.
	views map[view.View]*tuple.Set
}

// rows returns v's rows at this snapshot, materializing them on the
// first ask — the only place the serving layer rematerializes, so
// server.ivm.rebuild counts exactly these fills. The fill runs outside
// the lock; cold readers racing each other store equal sets and the
// last one stays. The returned set is shared and must not be mutated.
func (s *snapshot) rows(v view.View) *tuple.Set {
	s.mu.Lock()
	set, ok := s.views[v]
	s.mu.Unlock()
	if ok {
		obs.Inc("server.viewcache.hit")
		return set
	}
	set = v.Materialize(s.Database)
	obs.Inc("server.viewcache.miss")
	obs.Inc("server.ivm.rebuild")
	s.mu.Lock()
	s.views[v] = set
	n := len(s.views)
	s.mu.Unlock()
	obs.SetGauge("server.viewcache.entries", int64(n))
	return set
}

// Materialized hands view.Select's scan this snapshot's memo.
func (s *snapshot) Materialized(v view.View) *tuple.Set { return s.rows(v) }

// A durableStore is everything the engine asks of whichever store is
// attached, outside the commit path itself: *persist.Store, the
// sharded adapter shardedStore, or noStore for a memory-only engine.
type durableStore interface {
	// CommittedSeq is the replication watermark: the highest commit a
	// newly attached follower could have been streamed.
	CommittedSeq() uint64
	// SnapshotSeq is the floor below which stream resumption is
	// impossible: records at or below it are folded into a snapshot.
	SnapshotSeq() uint64
	// CommittedAfter reassembles the committed records with seq >
	// cursor from the WAL(s) on disk, in commit order.
	CommittedAfter(cursor uint64) ([]wal.Record, error)
	// RecoveredKeys are the idempotency keys recovery found, in commit
	// order.
	RecoveredKeys() []string
	// SetOnCommit points the store's durable-commit feed at fn: every
	// commit's translation record, in commit order, once durable.
	SetOnCommit(fn func(recs []wal.Record))
	Err() error
	Checkpoint() error
	Close() error
}

// noStore is the durableStore of a memory-only engine.
type noStore struct{}

func (noStore) CommittedSeq() uint64                        { return 0 }
func (noStore) SnapshotSeq() uint64                         { return 0 }
func (noStore) CommittedAfter(uint64) ([]wal.Record, error) { return nil, nil }
func (noStore) RecoveredKeys() []string                     { return nil }
func (noStore) SetOnCommit(func([]wal.Record))              {}
func (noStore) Err() error                                  { return nil }
func (noStore) Checkpoint() error                           { return nil }
func (noStore) Close() error                                { return nil }

// An Engine owns the serving state: the session (schema, views,
// policies), the durable store, the published snapshot, and the
// group-commit pipeline.
type Engine struct {
	cfg  Config
	sess *sqlish.Session
	// dur is the attached durable store and disc the journaling
	// discipline that lands commits on it (see commit.go); both are
	// fixed at boot. shst is the shard store behind them when
	// cfg.Shards > 1, kept only for ShardStore.
	dur  durableStore
	disc discipline
	shst *shard.Store
	db   *storage.Database // live authoritative state

	sessMu sync.RWMutex // guards session view/policy lookups vs DDL

	snap atomic.Pointer[snapshot]

	// stateMu serializes every mutation of the live database: committer
	// batches and admin script execution.
	stateMu sync.Mutex
	// scriptLanded, while ExecScript runs, collects the translations
	// applyScript lands, in order (guarded by stateMu; nil at boot, whose
	// -init script publishes a fresh memo).
	scriptLanded *[]*update.Translation

	commitC  chan *commitReq
	sendMu   sync.RWMutex // guards commitC sends against close
	draining bool
	drained  chan struct{}

	txs txTable

	// idem is the durable-idempotency dedup table; brk the write-path
	// circuit breaker behind graceful degradation.
	idem idemTable
	brk  *breaker

	// Replication. stream fans durable commits out to /wal/stream tails
	// (non-nil exactly when the engine is durable — a replication
	// source); hbStop stops the heartbeat ticker. See walstream.go and
	// docs/REPLICATION.md.
	stream *replica.Feed
	hbStop chan struct{}

	// subs holds the change feed of each subscribed view, fed per
	// commit and served to /subscribe streams; see subscribe.go. Closed
	// after the pipeline drains.
	subs viewFeeds

	// Follower mode (Config.Follow): fol replays the source's WAL
	// stream, folCancel stops it, folMu/folFatal record a fatal
	// replication error (divergence) for Health. See follower.go.
	fol       *replica.Follower
	folCancel context.CancelFunc
	folMu     sync.Mutex
	folFatal  error

	start time.Time
}

// NewEngine opens (or creates, or runs purely in memory when cfg.Dir is
// empty) the engine and starts its commit pipeline. initScript, when
// non-empty, is a sqlish script executed before serving — the place for
// CREATE DOMAIN/TABLE/VIEW and SET POLICY, since views and policies are
// not durable.
func NewEngine(cfg Config, initScript string) (*Engine, error) {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:     cfg,
		sess:    sqlish.NewSession(),
		dur:     noStore{},
		commitC: make(chan *commitReq, cfg.MaxInFlight),
		drained: make(chan struct{}),
		brk:     newBreaker(cfg.BreakerCooldown),
		start:   time.Now(),
	}
	e.sess.RefuseFiles()
	e.disc = &syncDiscipline{e: e, apply: e.applyMemory}
	e.txs.ttl = txTTL
	// A random run tag, so two boots of one node or two nodes of a fleet
	// never issue the same subscription event id.
	e.subs.run = strconv.FormatUint(rand.Uint64(), 36)
	e.subs.linger, e.subs.feeds = subLinger, map[string]*viewFeed{}
	e.idem.cap = cfg.IdemCapacity
	if cfg.Shards > 1 && cfg.Dir == "" {
		return nil, fmt.Errorf("server: Shards requires a store directory")
	}
	if cfg.Follow != "" && cfg.Shards > 1 {
		return nil, fmt.Errorf("server: Follow is incompatible with Shards (follow each shard primary separately)")
	}
	var err error
	switch {
	case cfg.Follow != "":
		err = e.openFollower()
	case cfg.Shards > 1:
		err = e.openSharded()
	case cfg.Dir != "":
		err = e.openStore()
	}
	if err != nil {
		return nil, err
	}
	e.db = e.sess.DB()
	if cfg.Dir != "" {
		// A durable engine is a replication source: durable commits feed
		// the stream in commit order — the init script's included. The
		// feed starts after the recovered committed seq, so a follower
		// resuming below it is served from the WAL on disk instead of
		// silently skipped.
		e.stream = replica.NewFeed(replica.FeedSpec{
			Backlog: walBacklogBytes, Tail: walTailBuffer,
			Site: faultinject.SiteStreamSend, Shed: "replica.hub.tail_overrun",
		}, e.dur.CommittedSeq())
		e.hbStop = make(chan struct{})
		e.dur.SetOnCommit(func(recs []wal.Record) {
			for _, rec := range recs {
				replica.PublishRecord(e.stream, rec)
			}
		})
		go e.runHeartbeats()
	}
	if e.fol == nil {
		// Script DML lands through the same discipline as the pipeline,
		// started first so the init script's statements find their lanes;
		// DDL — persisted by snapshot, not journaled — waits it idle and
		// checkpoints. A follower keeps openFollower's refusing applier.
		e.sess.SetApplier(e.applyScript)
		e.sess.SetSchemaChanged(func() error {
			e.disc.quiesce()
			return e.dur.Checkpoint()
		})
		e.disc.start()
	}
	if initScript != "" {
		// Skip-existing makes the script idempotent: a restart over a
		// recovered store re-runs the same DDL, where the snapshot
		// already holds the domains and tables.
		_, skipped, err := e.sess.ExecScriptSkipExisting(initScript)
		if err != nil {
			e.disc.stop() // a no-op unless lanes were started
			e.stopReplication()
			e.dur.Close()
			return nil, fmt.Errorf("server: init script: %w", err)
		}
		if skipped > 0 {
			e.logf("init script: skipped existing definitions", "skipped", skipped)
		}
	}
	e.publish(nil)
	// Seed the dedup table with every request key recovery found in the
	// WAL(s): a client retrying an ack the crash made ambiguous gets its
	// original outcome back instead of a double apply. The window is
	// exactly the WAL's — a checkpoint folds the log away and with it
	// the keys — which covers the crash case, where no checkpoint ran
	// (see docs/ROBUSTNESS.md).
	if keys := e.dur.RecoveredKeys(); len(keys) > 0 {
		for _, k := range keys {
			e.idem.seed(k, 0)
		}
		obs.Add("server.idem.replayed", int64(len(keys)))
		e.logf("replayed idempotency keys", "keys", len(keys))
	}
	e.preregisterMetrics()
	if e.fol != nil {
		ctx, cancel := context.WithCancel(context.Background())
		e.folCancel = cancel
		go e.runReplicator(ctx)
	} else {
		go e.runPipeline()
	}
	return e, nil
}

// preregisterMetrics touches every metric family the serving layer can
// emit, so a /metrics scrape sees the full schema from the first poll —
// scrapers and alerts can rely on family presence instead of treating
// "absent" and "zero" differently. No-op without an active sink.
func (e *Engine) preregisterMetrics() {
	s := obs.Active()
	if s == nil {
		return
	}
	reg := s.Metrics()
	for _, c := range []string{
		"server.requests", "server.commit.enqueued", "server.commit.batches",
		"server.commit.committed", "server.commit.conflict", "server.commit.deadline",
		"server.overload", "server.drain.rejected",
		"server.idem.hit", "server.idem.replayed", "server.idem.evicted",
		"server.brownout.rejected",
		"server.breaker.trip", "server.breaker.probe", "server.breaker.recovered",
		"server.viewcache.hit", "server.viewcache.miss",
		"server.ivm.patch", "server.ivm.rebuild",
		"server.commit.windows",
		"wal.append", "wal.append_batch", "wal.sync",
		"server.walstream.opened", "server.walstream.frames", "server.walstream.bytes",
		"server.walstream.snapshots", "server.replica.dropped_events",
		"server.subscribe.opened",
		"replica.hub.tail_overrun", "replica.hub.outoforder",
	} {
		reg.Counter(c)
	}
	if e.fol != nil {
		for _, c := range []string{
			"replica.bootstrap", "replica.reconnects",
			"replica.skipped_kind", "replica.skipped_applied",
		} {
			reg.Counter(c)
		}
		for _, g := range []string{
			"server.replica.applied_seq", "server.replica.lag_seq",
			"server.replica.lag_ns",
		} {
			reg.Gauge(g)
		}
		reg.Histogram("server.replica.lag.ns")
	}
	for _, g := range []string{
		"server.http.inflight", "server.commit.queue_depth",
		"server.tx.open", "server.viewcache.entries",
		"server.degraded", "server.breaker.state", "server.idem.entries",
		"server.walstream.streams", "server.replica.subscribers",
	} {
		reg.Gauge(g)
	}
	for _, h := range []string{
		"server.request.ns", "server.commit.batch_size", batchWaitNS,
		stageTranslateNS, stageVerifyNS, stageQueueNS,
		stageCommitNS, stageFsyncNS, stagePublishNS,
		"wal.fsync.ns",
	} {
		reg.Histogram(h)
	}
}

func (e *Engine) logf(msg string, args ...any) {
	if e.cfg.Logger != nil {
		e.cfg.Logger.Info(msg, args...)
	}
}

// Snapshot returns the current published state. The returned database
// is immutable — shared by every concurrent reader — and must not be
// mutated.
func (e *Engine) Snapshot() (*storage.Database, uint64) {
	s := e.snap.Load()
	return s.Database, s.version
}

// ReadView returns the named view's rows at the published snapshot,
// from that snapshot's memo, plus the snapshot version. The returned
// set is shared and must not be mutated.
func (e *Engine) ReadView(name string) (*tuple.Set, uint64, error) {
	v, _, err := e.lookupView(name, nil)
	if err != nil {
		return nil, 0, err
	}
	s := e.snap.Load()
	return s.rows(v), s.version, nil
}

// lookupView resolves a view and its configured policy; prefer, when
// non-empty, overrides the policy with a per-request class preference
// (the wire form of translator selection).
func (e *Engine) lookupView(name string, prefer []string) (view.View, core.Policy, error) {
	e.sessMu.RLock()
	defer e.sessMu.RUnlock()
	v := e.sess.View(name)
	if v == nil {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoView, name)
	}
	if len(prefer) > 0 {
		return v, core.PreferClasses{Order: prefer}, nil
	}
	return v, e.sess.Policy(name), nil
}

// ViewNames lists the defined views.
func (e *Engine) ViewNames() []string {
	e.sessMu.RLock()
	defer e.sessMu.RUnlock()
	return e.sess.ViewNames()
}

// ExecScript runs a sqlish script against the session, serialized
// against the commit pipeline (DDL and admin writes take the state
// lock; its DML lands through the discipline, see applyScript). A
// script that only reads and writes rows publishes the translations it
// landed as the pipeline does: one version each, patched into the warm
// views and sent to subscribers, as a follower replaying their WAL
// records publishes them. A script that defines anything publishes one
// version with an empty memo, and transactions opened before it
// conservatively conflict. Even a failed script may have executed a
// statement prefix, which is published the same way.
func (e *Engine) ExecScript(script string) (string, error) {
	e.sendMu.RLock()
	draining := e.draining
	e.sendMu.RUnlock()
	if draining {
		return "", ErrDraining
	}
	stmts, err := sqlish.ParseScript(script)
	if err != nil {
		return "", err
	}
	e.sessMu.Lock()
	defer e.sessMu.Unlock()
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	var landed []*update.Translation
	e.scriptLanded = &landed
	out, err := e.sess.ExecScript(script)
	e.scriptLanded = nil
	switch {
	case slices.ContainsFunc(stmts, sqlish.Defines):
		e.publish(nil)
	case len(landed) > 0:
		e.publish(landed)
	}
	return out, err
}

// Translate resolves the view, translates req against the published
// snapshot, and returns the chosen candidate plus its side effects and
// the snapshot version the translation is based on. It does not apply
// anything.
func (e *Engine) Translate(ctx context.Context, viewName string, prefer []string, build func(view.View, storage.Source) (core.Request, error)) (core.Candidate, *core.Effects, core.Request, uint64, error) {
	v, pol, err := e.lookupView(viewName, prefer)
	if err != nil {
		return core.Candidate{}, nil, core.Request{}, 0, err
	}
	// The builder is handed the snapshot itself, so whatever rows it
	// needs come from the memo of the state the translation is judged
	// against, however many commits land meanwhile.
	s := e.snap.Load()
	req, err := build(v, s)
	if err != nil {
		return core.Candidate{}, nil, core.Request{}, 0, err
	}
	if ferr := faultinject.Hit(faultinject.SiteServerTranslate); ferr != nil {
		return core.Candidate{}, nil, req, 0, ferr
	}
	cand, eff, err := translateOn(ctx, s.Database, v, pol, req)
	if err != nil {
		return core.Candidate{}, nil, req, 0, err
	}
	return cand, eff, req, s.version, nil
}

// translateOn runs the translate and verify stages of one view update
// judged against src — the published snapshot for Translate, the staged
// overlay for TxUpdate — recording both into the request trace attached
// to ctx (if any) and into the stage histograms.
func translateOn(ctx context.Context, src storage.Source, v view.View, pol core.Policy, req core.Request) (core.Candidate, *core.Effects, error) {
	rt := obs.TraceFrom(ctx)
	sp := obs.StartSpan("server.translate")
	cand, err := core.NewTranslator(v, pol).Translate(src, req)
	d := sp.End()
	rt.Stage("translate", d)
	obs.Observe(stageTranslateNS, int64(d))
	if err != nil {
		return core.Candidate{}, nil, err
	}
	vsp := obs.StartSpan("server.verify")
	eff, err := core.SideEffects(src, v, req, cand.Translation)
	vd := vsp.End()
	rt.Stage("verify", vd)
	obs.Observe(stageVerifyNS, int64(vd))
	if err != nil {
		return core.Candidate{}, nil, err
	}
	return cand, eff, nil
}

// Commit submits a translation to the group-commit pipeline and waits
// for its fate. strict demands the database be unchanged since
// baseVersion (wire-transaction semantics: the staged diff is only
// meaningful relative to its BEGIN state); non-strict commits are
// validated op-by-op at apply time instead. Returns the version the
// commit landed at.
func (e *Engine) Commit(ctx context.Context, tr *update.Translation, strict bool, baseVersion uint64) (uint64, error) {
	return e.CommitKeyed(ctx, tr, strict, baseVersion, "")
}

// CommitKeyed is Commit carrying an idempotency key. A non-empty key
// must already be reserved in the engine's dedup table by the caller
// (see handleUpdate); it rides the commit request into the WAL frame,
// and the committer fulfills it when the batch lands or releases it on
// a clean failure. On an ambiguous outcome — the caller's deadline
// fired while the commit was still queued — the reservation is left in
// place for the pipeline to settle, so a retry observes the true fate.
func (e *Engine) CommitKeyed(ctx context.Context, tr *update.Translation, strict bool, baseVersion uint64, key string) (uint64, error) {
	if e.fol != nil {
		if key != "" {
			e.idem.release(key)
		}
		return 0, ErrReadOnly
	}
	if tr.Len() == 0 {
		_, v := e.Snapshot()
		if key != "" {
			e.idem.fulfill(key, v)
		}
		return v, nil
	}
	req := getCommitReq()
	req.tr, req.strict, req.baseVersion, req.key = tr, strict, baseVersion, key
	if rt := obs.TraceFrom(ctx); rt != nil {
		req.trace = rt
		req.enqueued = time.Now()
	}
	if err := e.submit(req); err != nil {
		putCommitReq(req)
		if key != "" {
			e.idem.release(key)
		}
		return 0, err
	}
	select {
	case res := <-req.done:
		putCommitReq(req)
		return res.version, res.err
	case <-ctx.Done():
		// The commit stays queued and may still land; the caller only
		// knows its fate is unknown. The request is abandoned, NOT
		// recycled: the committer's eventual send lands in its buffered
		// done channel and the whole object leaks to the GC.
		obs.Inc("server.commit.deadline")
		return 0, fmt.Errorf("server: commit result not observed: %w", ctx.Err())
	}
}

// submit enqueues a commit, enforcing (in order) the drain flag, the
// degradation breaker, fault injection at the admission boundary, and
// admission control.
func (e *Engine) submit(req *commitReq) error {
	e.sendMu.RLock()
	defer e.sendMu.RUnlock()
	if e.draining {
		obs.Inc("server.drain.rejected")
		return ErrDraining
	}
	if err := e.brk.allow(); err != nil {
		return err
	}
	if err := faultinject.Hit(faultinject.SiteServerAdmission); err != nil {
		return err
	}
	select {
	case e.commitC <- req:
		obs.Inc("server.commit.enqueued")
		obs.SetGauge("server.commit.queue_depth", int64(len(e.commitC)))
		return nil
	default:
		obs.Inc("server.overload")
		return ErrOverloaded
	}
}

// QueueDepth reports how many commits are waiting in the pipeline.
func (e *Engine) QueueDepth() int { return len(e.commitC) }

// Degraded reports whether the engine is in read-only brownout.
func (e *Engine) Degraded() bool { return e.brk.degraded() }

// ShardStore exposes the sharded store (nil unless Config.Shards > 1).
func (e *Engine) ShardStore() *shard.Store { return e.shst }

// Healthz summarizes liveness for the health endpoint.
type Healthz struct {
	Status    string   `json:"status"`
	Version   uint64   `json:"version"`
	Views     []string `json:"views"`
	Queue     int      `json:"queue_depth"`
	MaxQueue  int      `json:"queue_capacity"`
	OpenTxs   int      `json:"open_txs"`
	Durable   bool     `json:"durable"`
	Degraded  bool     `json:"degraded"`
	Breaker   string   `json:"breaker"`
	IdemKeys  int      `json:"idem_keys"`
	UptimeSec float64  `json:"uptime_sec"`
	// Pipeline tuning, surfaced so bench clients (cmd/vuload) can
	// record the server's effective knobs in their artifacts.
	MaxBatch     int   `json:"max_batch"`
	BatchDelayNS int64 `json:"batch_delay_ns"`
	GoMaxProcs   int   `json:"gomaxprocs"`
	// Sharded mode only: shard count and the per-shard durable
	// watermarks (the shard version vector of docs/SHARDING.md).
	Shards        int      `json:"shards,omitempty"`
	ShardVersions []uint64 `json:"shard_versions,omitempty"`
	// Replication: the engine's role, the attached /wal/stream tail
	// count (replication sources), and the follower's replica state.
	Role           string         `json:"role,omitempty"`
	WalStreamTails int            `json:"wal_stream_tails,omitempty"`
	Replica        *ReplicaHealth `json:"replica,omitempty"`
	Error          string         `json:"error,omitempty"`
}

// ReplicaHealth is the follower block of Healthz.
type ReplicaHealth struct {
	// Primary is the source URL the follower streams from.
	Primary string `json:"primary"`
	// AppliedSeq is the highest locally applied source commit;
	// SourceSeq the highest the source has reported (stream or
	// heartbeat); LagSeq their difference — replication lag in commits.
	AppliedSeq uint64 `json:"applied_seq"`
	SourceSeq  uint64 `json:"source_seq"`
	LagSeq     uint64 `json:"lag_seq"`
	// Durable reports whether replayed state survives restarts.
	Durable bool `json:"durable"`
	// Streaming reports a live stream connection to the source.
	Streaming bool `json:"streaming"`
}

// Ready reports whether the engine can currently serve writes: not
// draining, not broken, breaker closed. /readyz keys off this — a
// degraded engine stays alive (reads work) but reports unready so load
// balancers steer writes elsewhere.
func (e *Engine) Ready() bool {
	e.sendMu.RLock()
	draining := e.draining
	e.sendMu.RUnlock()
	if draining || e.brk.degraded() {
		return false
	}
	if e.fol != nil {
		// A follower is "ready" when it is actually replicating: load
		// balancers steer reads away from one that lost its source (its
		// data only goes staler) or diverged.
		e.folMu.Lock()
		fatal := e.folFatal
		e.folMu.Unlock()
		return fatal == nil && e.fol.Streaming() && e.db.Err() == nil
	}
	return e.dur.Err() == nil && e.db.Err() == nil
}

// Health reports the engine's current health. Status degrades to
// "broken" when the store or database can no longer be trusted and to
// "draining" during shutdown.
func (e *Engine) Health() Healthz {
	_, version := e.Snapshot()
	h := Healthz{
		Status:       "ok",
		Version:      version,
		Views:        e.ViewNames(),
		Queue:        e.QueueDepth(),
		MaxQueue:     e.cfg.MaxInFlight,
		OpenTxs:      e.txs.open(),
		Durable:      e.cfg.Dir != "",
		Degraded:     e.brk.degraded(),
		Breaker:      e.brk.stateName(),
		IdemKeys:     e.idem.size(),
		UptimeSec:    time.Since(e.start).Seconds(),
		MaxBatch:     e.cfg.MaxBatch,
		BatchDelayNS: int64(e.cfg.batchDelay()),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Role:         "primary",
	}
	sort.Strings(h.Views)
	if e.stream != nil {
		h.WalStreamTails = e.stream.Tails()
	}
	if e.fol != nil {
		h.Role = "follower"
		applied, source := e.fol.AppliedSeq(), e.fol.SourceSeq()
		lag := uint64(0)
		if source > applied {
			lag = source - applied
		}
		h.Replica = &ReplicaHealth{
			Primary:    e.cfg.Follow,
			AppliedSeq: applied,
			SourceSeq:  source,
			LagSeq:     lag,
			Durable:    e.cfg.Dir != "",
			Streaming:  e.fol.Streaming(),
		}
		e.folMu.Lock()
		if e.folFatal != nil {
			h.Status = "broken"
			h.Error = e.folFatal.Error()
		}
		e.folMu.Unlock()
	}
	if h.Degraded {
		h.Status = "degraded"
	}
	e.sendMu.RLock()
	if e.draining {
		h.Status = "draining"
	}
	e.sendMu.RUnlock()
	e.disc.health(&h)
	if err := e.dur.Err(); err != nil {
		h.Status = "broken"
		h.Error = err.Error()
	}
	if err := e.db.Err(); err != nil {
		h.Status = "broken"
		h.Error = err.Error()
	}
	return h
}

// drain stops the engine's moving parts: commits stop being accepted,
// already-queued batches run to completion, the follower stream and the
// replication source shut down. It reports whether this call was the
// one that drained (false on every later call).
func (e *Engine) drain() bool {
	e.sendMu.Lock()
	already := e.draining
	e.draining = true
	if !already {
		close(e.commitC)
	}
	e.sendMu.Unlock()
	if !already && e.folCancel != nil {
		e.folCancel()
	}
	<-e.drained
	if !already {
		e.stopReplication()
		e.subs.close()
	}
	return !already
}

// Kill stops the engine the way a crash would, minus the goroutine
// leak: the engine drains, and the store is closed WITHOUT a checkpoint
// — the WAL keeps its tail, exactly as if the process had died. The
// chaos harness uses this to "restart" an engine whose media a
// failpoint has already crashed; a later Close is a no-op.
func (e *Engine) Kill() {
	if e.drain() {
		// Crashed media makes close errors expected; the next Open
		// recovers from whatever bytes survived.
		_ = e.dur.Close()
	}
}

// Close drains the engine, checkpoints the store (folding the WAL into
// a fresh snapshot — the pipelines are drained, so every journal is
// idle), and closes it. Safe to call more than once.
func (e *Engine) Close() error {
	if !e.drain() {
		return nil
	}
	var errs []error
	if err := e.dur.Checkpoint(); err != nil {
		errs = append(errs, fmt.Errorf("server: drain checkpoint: %w", err))
	}
	if err := e.dur.Close(); err != nil {
		errs = append(errs, fmt.Errorf("server: closing store: %w", err))
	}
	e.logf("drained", "version", e.snap.Load().version)
	return errors.Join(errs...)
}
