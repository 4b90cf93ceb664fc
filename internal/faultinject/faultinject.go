// Package faultinject provides seeded, deterministic failpoints for the
// storage and WAL I/O paths. Production code marks interesting sites
// with Hit("site.name"); a test (or a chaos harness) installs a Plan
// that decides, per site and per hit number, whether that hit fails and
// with which error.
//
// Like the obs package, faultinject is zero-cost when disabled: Hit is
// an atomic pointer load and a nil check — no allocation, no lock, no
// map access — which the package tests pin with testing.AllocsPerRun.
//
// Determinism: a Plan's decisions depend only on its configuration, its
// seed, and the sequence of Hit calls. The same plan against the same
// call sequence always fires the same faults, which is what makes
// crash-safety property tests and churn determinism tests possible.
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Site names used by the storage and persist layers. Centralizing them
// here keeps callers and tests in sync.
const (
	// SiteApply fires at the start of storage.Database.Apply, before
	// any mutation: a clean transient-failure injection point.
	SiteApply = "storage.apply"
	// SiteApplyInsert fires before each insert of the added set.
	SiteApplyInsert = "storage.apply.insert"
	// SiteApplyDelete fires before each delete of the removed set.
	SiteApplyDelete = "storage.apply.delete"
	// SiteRollback fires before each undo step of an in-memory
	// rollback; a failure here poisons the database.
	SiteRollback = "storage.rollback"
	// SiteWALAppend fires before each WAL record append.
	SiteWALAppend = "wal.append"
	// SiteWALSync fires before each WAL durability barrier; an injected
	// error seals the log, exactly as a real fsync failure would.
	SiteWALSync = "wal.sync"
	// SiteServerCommit fires at the head of each server group-commit
	// batch, before any translation in the batch touches memory or the
	// WAL: the whole batch fails cleanly and every waiting request gets
	// the injected error.
	SiteServerCommit = "server.commit"
	// SiteServerAdmission fires on each commit submission, before
	// admission control; the stage boundary between the HTTP layer and
	// the pipeline queue.
	SiteServerAdmission = "server.admission"
	// SiteServerTranslate fires before each translation of a wire
	// request against the published snapshot.
	SiteServerTranslate = "server.translate"
	// SiteServerPublish fires after a batch has durably landed, before
	// the fresh snapshot is published and waiters are acknowledged.
	// Injected errors at this site are ignored by the server (a durable
	// batch cannot be unlanded); it exists for CallNth crash triggers.
	SiteServerPublish = "server.publish"
	// SiteServerBatchWindow fires when the committer opens an adaptive
	// batching window: at least one commit is gathered and the batcher
	// has decided to wait for more before the WAL append. Injected
	// errors are ignored (the window is a latency hint, not a failure
	// boundary); it exists for CallNth crash triggers — a crash armed
	// here kills the media while gathered commits are neither applied
	// nor journaled, and recovery must neither lose an acked commit nor
	// double-apply a retried one.
	SiteServerBatchWindow = "server.batch.window"
	// SiteShardPrepare fires inside the two-phase-commit window of a
	// cross-shard commit: after every participant's prepare record is
	// durable and before the decision record is appended. A crash armed
	// here leaves durable prepares with no decision, which recovery
	// must roll back (presumed abort).
	SiteShardPrepare = "shard.prepare"
	// SiteShardDecision fires after the decision record is durable and
	// before the client is acknowledged. Injected errors are ignored (a
	// decided commit cannot be undone); like SiteServerPublish it
	// exists for CallNth crash triggers — a crash armed here must
	// recover with the cross-shard commit applied.
	SiteShardDecision = "shard.decision"
	// SiteStreamSend fires before each commit frame is queued on a
	// /wal/stream tail; an injected error sheds the tail as an overrun
	// would, and the follower resumes from its watermark.
	SiteStreamSend = "replica.stream.send"
	// SiteSubscribeSend fires before each change event is queued on a
	// /subscribe tail; an injected error sheds the subscriber as an
	// overrun would, and it resumes with Last-Event-ID.
	SiteSubscribeSend = "server.subscribe.send"
)

// A rule decides whether one hit at a site fails, or — for callback
// rules — what runs when the hit fires.
type rule struct {
	err       error
	fn        func()  // callback rule: runs on fire, injects no error
	nth       int     // fire on exactly this 1-based hit number
	every     int     // fire on every k-th hit
	prob      float64 // fire with this probability (plan-seeded)
	remaining int     // firings left; < 0 means unlimited
}

type siteState struct {
	hits  int // total Hit calls observed
	fired int // failures injected
	rules []*rule
}

// A Plan is one deterministic fault schedule. Configure it with the
// Fail* methods, then install it with Enable. A Plan must not be
// reconfigured after Enable.
type Plan struct {
	mu    sync.Mutex
	rng   *rand.Rand
	sites map[string]*siteState
}

// NewPlan returns an empty plan whose probabilistic rules draw from the
// given seed.
func NewPlan(seed int64) *Plan {
	return &Plan{rng: rand.New(rand.NewSource(seed)), sites: map[string]*siteState{}}
}

func (p *Plan) site(name string) *siteState {
	s := p.sites[name]
	if s == nil {
		s = &siteState{}
		p.sites[name] = s
	}
	return s
}

// FailNth arranges for exactly the n-th (1-based) hit at site to fail
// with err.
func (p *Plan) FailNth(site string, n int, err error) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.site(site).rules = append(p.site(site).rules, &rule{err: err, nth: n, remaining: 1})
	return p
}

// FailEveryNth arranges for every k-th hit at site to fail with err, at
// most limit times (limit <= 0 means no limit).
func (p *Plan) FailEveryNth(site string, k, limit int, err error) *Plan {
	if limit <= 0 {
		limit = -1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.site(site).rules = append(p.site(site).rules, &rule{err: err, every: k, remaining: limit})
	return p
}

// CallNth arranges for fn to run on exactly the n-th (1-based) hit at
// site. Callback rules never inject an error — the hit proceeds
// normally — and run after the plan's internal lock is released, so fn
// may itself call into fault-injected code. This is the chaos
// harness's kill-point primitive: the callback flips the WAL media
// into its crashed state at an exact pipeline stage boundary.
func (p *Plan) CallNth(site string, n int, fn func()) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.site(site).rules = append(p.site(site).rules, &rule{fn: fn, nth: n, remaining: 1})
	return p
}

// FailProb arranges for each hit at site to fail with err with the
// given probability, at most limit times (limit <= 0 means no limit).
// Draws come from the plan's seeded generator, so a single-goroutine
// hit sequence is fully deterministic.
func (p *Plan) FailProb(site string, prob float64, limit int, err error) *Plan {
	if limit <= 0 {
		limit = -1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.site(site).rules = append(p.site(site).rules, &rule{err: err, prob: prob, remaining: limit})
	return p
}

// hit records one call at site and returns the injected error, if any.
// Every firing callback rule runs (after the lock is released); the
// first firing error rule wins, exactly as before callbacks existed.
func (p *Plan) hit(name string) error {
	p.mu.Lock()
	s := p.site(name)
	s.hits++
	var injected error
	var cbs []func()
	for _, r := range s.rules {
		if r.remaining == 0 {
			continue
		}
		if r.fn == nil && injected != nil {
			// First error rule wins; later ones are not evaluated (and
			// draw nothing from the rng), matching the pre-callback
			// early-return behavior.
			continue
		}
		fire := false
		switch {
		case r.nth > 0:
			fire = s.hits == r.nth
		case r.every > 0:
			fire = s.hits%r.every == 0
		case r.prob > 0:
			fire = p.rng.Float64() < r.prob
		}
		if !fire {
			continue
		}
		if r.remaining > 0 {
			r.remaining--
		}
		if r.fn != nil {
			cbs = append(cbs, r.fn)
			continue
		}
		s.fired++
		injected = fmt.Errorf("faultinject: %s hit %d: %w", name, s.hits, r.err)
	}
	p.mu.Unlock()
	for _, fn := range cbs {
		fn()
	}
	return injected
}

// Hits returns the number of Hit calls observed at site.
func (p *Plan) Hits(site string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.site(site).hits
}

// Fired returns the number of failures injected at site.
func (p *Plan) Fired(site string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.site(site).fired
}

// active is the process-wide plan; nil means fault injection is off.
var active atomic.Pointer[Plan]

// Enable installs the plan process-wide. Enable(nil) disables.
func Enable(p *Plan) { active.Store(p) }

// Disable removes the installed plan; subsequent Hit calls are no-ops.
func Disable() { active.Store(nil) }

// Enabled reports whether a plan is installed.
func Enabled() bool { return active.Load() != nil }

// Active returns the installed plan, or nil.
func Active() *Plan { return active.Load() }

// Hit reports the injected failure for this call at site, or nil. When
// no plan is installed this is a single atomic load.
func Hit(site string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.hit(site)
}
