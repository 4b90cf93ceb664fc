package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"viewupdate/internal/obs"
	"viewupdate/internal/replica"
	"viewupdate/internal/update"
)

// Follower mode (Config.Follow): the engine serves the same read API —
// snapshot-isolated view reads from the same delta-carried view rows,
// /subscribe streams, /metrics — but its state is a replica of
// a source engine's, replayed commit by commit from the source's WAL
// stream. The write API answers ErrReadOnly; the group-commit pipeline
// never starts. A durable follower (Config.Dir set) is itself a
// replication source — its store feeds a stream exactly like a primary's
// — so followers cascade. See docs/REPLICATION.md.

// ErrReadOnly marks a write against a follower: the view-update API
// only accepts writes on the primary.
var ErrReadOnly = errors.New("server: read-only follower (writes go to the primary)")

// openFollower bootstraps (or recovers) the follower's state and wires
// the session read-only. Called from NewEngine in place of the store
// branches.
func (e *Engine) openFollower() error {
	f, err := replica.Open(context.Background(), replica.Config{
		Primary: e.cfg.Follow,
		Dir:     e.cfg.Dir,
		Sync:    e.cfg.Sync,
		Logger:  e.cfg.Logger,
	})
	if err != nil {
		return fmt.Errorf("server: opening follower of %s: %w", e.cfg.Follow, err)
	}
	e.fol = f
	if err := e.sess.AdoptRecovered(f.DB()); err != nil {
		f.Close()
		return err
	}
	// DML through the session (scripts, init INSERTs) is refused: the
	// only writer of a follower's state is the replication stream.
	e.sess.SetApplier(func(*update.Translation) error { return ErrReadOnly })
	// A durable follower exposes its store as THE engine store: the
	// idempotency replay, the replication-source stream (cascading), the
	// drain checkpoint and Health all go through e.dur and work
	// unchanged. Memory-only followers keep noStore (and serve 404 on
	// /wal/stream — nothing durable to resume from).
	if st := f.Store(); st != nil {
		e.dur = st
	}
	return nil
}

// runReplicator is the follower's counterpart of runCommitter: it owns
// every mutation of the live database, each one a replayed source
// commit delivered by the replica.Follower. A fatal replication error
// (divergence — the source ran DDL, or demanded a re-bootstrap) is
// recorded for Health and the engine degrades to serving its last
// replicated state.
func (e *Engine) runReplicator(ctx context.Context) {
	defer close(e.drained)
	err := e.fol.Run(ctx, e.applyReplicated)
	if err != nil && ctx.Err() == nil {
		e.folMu.Lock()
		e.folFatal = err
		e.folMu.Unlock()
		e.logf("replication stream failed; serving last replicated state", "err", err.Error())
	}
}

// applyReplicated lands one replicated commit under the same stateMu
// discipline as commitBatch: apply (durably, when the follower is),
// then the same publish, which carries the warm view rows forward by
// the commit's O(delta) view changes — a steady-state follower
// rematerializes nothing. Lag gauges update on every commit; the
// wall-clock histogram only for live-streamed records (TS is zero on
// gap-fill replays, whose encode time was long ago).
func (e *Engine) applyReplicated(c replica.Commit) error {
	e.stateMu.Lock()
	err := e.fol.Apply(c)
	if err == nil {
		e.publish([]*update.Translation{c.Tr})
	}
	e.stateMu.Unlock()
	if err != nil {
		return err
	}
	if c.Key != "" {
		// Keep the dedup table current so a promotion (or a client that
		// failed over mid-retry) still recognizes fulfilled keys.
		e.idem.seed(c.Key, 0)
	}
	obs.SetGauge("server.replica.applied_seq", int64(c.Seq))
	lag := int64(0)
	if src := e.fol.SourceSeq(); src > c.Seq {
		lag = int64(src - c.Seq)
	}
	obs.SetGauge("server.replica.lag_seq", lag)
	if c.TS > 0 {
		ns := time.Now().UnixNano() - c.TS
		if ns < 0 {
			ns = 0
		}
		obs.SetGauge("server.replica.lag_ns", ns)
		obs.Observe("server.replica.lag.ns", ns)
	}
	return nil
}
