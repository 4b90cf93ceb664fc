package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync/atomic"
	"time"

	"viewupdate/internal/obs"
	"viewupdate/internal/persist"
	"viewupdate/internal/storage"
	"viewupdate/internal/update"
	"viewupdate/internal/wal"
)

// Config describes a follower.
type Config struct {
	// Primary is the source's base URL (primary, or an upstream follower
	// — the protocol cascades, since a follower's own store feeds its
	// stream exactly like a primary's).
	Primary string
	// Dir, when non-empty, makes the follower durable: its replayed
	// state lives in a persist.Store there, and a restart resumes from
	// the recovered watermark instead of re-bootstrapping. Empty means
	// memory-only (bootstrap from a fresh snapshot at every start).
	Dir string
	// Sync is the WAL sync policy of a durable follower.
	Sync wal.SyncPolicy
	// Logger receives reconnect/bootstrap events (discarded when nil).
	Logger *slog.Logger
	// ReconnectMin is the first reconnect backoff (default 100ms); it
	// doubles on each failed attempt up to reconnectMax.
	ReconnectMin time.Duration
}

// reconnectMax caps the reconnect backoff.
const reconnectMax = 5 * time.Second

// A Commit is one replayed primary commit: the primary-assigned
// sequence number, the idempotency key, the primary's commit wall
// clock (unix ns, zero when the record was served from the source's
// WAL rather than live), and the decoded translation.
type Commit struct {
	Seq uint64
	Key string
	TS  int64
	Tr  *update.Translation
}

// A Follower replays a source's WAL stream into a local database. The
// serving layer drives it: Open bootstraps or recovers the state, Run
// streams and hands each decoded commit to a deliver callback, and the
// callback — under whatever locking the serving layer needs — calls
// Apply to land it.
type Follower struct {
	cfg       Config
	client    *Client
	log       *slog.Logger
	db        *storage.Database
	store     *persist.Store // nil for a memory-only follower
	applied   atomic.Uint64  // highest locally committed source seq
	sourceSeq atomic.Uint64  // highest seq the source has reported
	streaming atomic.Bool    // a stream connection is currently open
	recovered []string
}

// Open prepares the follower's local state. A durable follower with an
// existing store recovers it (no network needed); otherwise the source
// is contacted for a bootstrap snapshot, which for a durable follower
// seeds a store via persist.CreateAt so the watermark survives
// restarts.
func Open(ctx context.Context, cfg Config) (*Follower, error) {
	f := &Follower{cfg: cfg, client: &Client{Base: cfg.Primary}, log: cfg.Logger}
	if f.log == nil {
		f.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.ReconnectMin <= 0 {
		f.cfg.ReconnectMin = 100 * time.Millisecond
	}
	opts := persist.Options{Sync: cfg.Sync}
	if cfg.Dir != "" {
		st, err := persist.Open(cfg.Dir, opts)
		if err == nil {
			f.store, f.db = st, st.DB()
			f.applied.Store(st.CommittedSeq())
			f.recovered = st.RecoveredKeys()
			f.log.Info("follower recovered", "dir", cfg.Dir,
				"applied_seq", st.CommittedSeq(), "report", st.Report().String())
			return f, nil
		}
		if !errors.Is(err, persist.ErrNoStore) {
			return nil, err
		}
	}
	snap, err := f.client.FetchSnapshot(ctx)
	if err != nil {
		return nil, err
	}
	db, err := persist.Restore(snap)
	if err != nil {
		return nil, fmt.Errorf("replica: restoring bootstrap snapshot: %w", err)
	}
	f.db = db
	if cfg.Dir != "" {
		st, err := persist.CreateAt(cfg.Dir, db, snap.Seq, opts)
		if err != nil {
			return nil, err
		}
		f.store = st
	}
	f.applied.Store(snap.Seq)
	f.sourceSeq.Store(snap.Seq)
	f.log.Info("follower bootstrapped", "source", cfg.Primary, "snapshot_seq", snap.Seq)
	obs.Inc("replica.bootstrap")
	return f, nil
}

// DB returns the follower's live database.
func (f *Follower) DB() *storage.Database { return f.db }

// Store returns the durable store (nil for a memory-only follower).
func (f *Follower) Store() *persist.Store { return f.store }

// RecoveredKeys returns the idempotency keys a durable follower's WAL
// held at Open, in commit order (nil after a bootstrap).
func (f *Follower) RecoveredKeys() []string { return f.recovered }

// AppliedSeq is the follower's committed watermark: every source
// commit at or below it is locally applied (and durable, when the
// follower is).
func (f *Follower) AppliedSeq() uint64 { return f.applied.Load() }

// SourceSeq is the highest commit seq the source has reported —
// through streamed commits or heartbeats. SourceSeq - AppliedSeq is
// the replication lag in commits.
func (f *Follower) SourceSeq() uint64 { return f.sourceSeq.Load() }

// Streaming reports whether a stream connection to the source is
// currently open (readiness: a follower that lost its source serves
// increasingly stale reads).
func (f *Follower) Streaming() bool { return f.streaming.Load() }

// Apply lands one replayed commit: durably via the store's
// replay-from-watermark path, or in memory for a snapshot-only
// follower. The caller (the deliver callback) provides any locking the
// serving layer needs around it.
func (f *Follower) Apply(c Commit) error {
	if f.store != nil {
		if err := f.store.ApplyAt(c.Seq, c.Key, c.Tr); err != nil {
			return err
		}
	} else {
		if err := f.db.Apply(c.Tr); err != nil {
			return fmt.Errorf("replica: replicated seq %d does not apply: %w", c.Seq, err)
		}
	}
	f.applied.Store(c.Seq)
	return nil
}

// Close releases the durable store, if any.
func (f *Follower) Close() error {
	if f.store != nil {
		return f.store.Close()
	}
	return nil
}

// Run streams from the source until ctx is canceled, delivering each
// decoded commit (in commit order, exactly once) to deliver, which
// must call Apply. Connection loss, clean stream ends and corrupt
// frames reconnect with backoff and resume from the applied watermark;
// a decode or deliver failure is fatal (the follower has diverged —
// e.g. the primary ran DDL — and must be re-bootstrapped), as is a
// source that demands a fresh bootstrap (ErrSnapshotRequired).
func (f *Follower) Run(ctx context.Context, deliver func(Commit) error) error {
	backoff := f.cfg.ReconnectMin
	for {
		if ctx.Err() != nil {
			return nil
		}
		body, err := f.client.Stream(ctx, f.applied.Load())
		if err != nil {
			if errors.Is(err, ErrSnapshotRequired) {
				return err
			}
			if ctx.Err() != nil {
				return nil
			}
			obs.Inc("replica.reconnects")
			f.log.Warn("follower stream connect failed", "err", err, "backoff", backoff)
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(backoff):
			}
			backoff = min(backoff*2, reconnectMax)
			continue
		}
		backoff = f.cfg.ReconnectMin
		f.streaming.Store(true)
		err = f.consume(ctx, body, deliver)
		f.streaming.Store(false)
		body.Close()
		if err != nil {
			return err
		}
	}
}

// consume drains one stream connection. A nil return means the
// connection ended in a resumable way (reconnect); an error is fatal.
func (f *Follower) consume(ctx context.Context, body io.Reader, deliver func(Commit) error) error {
	sr := wal.NewStreamReader(body)
	for {
		rec, err := sr.Next()
		switch {
		case err == nil:
		case errors.Is(err, io.EOF):
			return nil // source closed cleanly (drain or tail shed)
		case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, wal.ErrStreamCorrupt):
			obs.Inc("replica.reconnects")
			f.log.Warn("follower stream interrupted", "err", err)
			return nil
		default:
			if ctx.Err() != nil {
				return nil
			}
			obs.Inc("replica.reconnects")
			f.log.Warn("follower stream read failed", "err", err)
			return nil
		}
		if rec.Seq > f.sourceSeq.Load() {
			f.sourceSeq.Store(rec.Seq)
		}
		switch rec.Kind {
		case wal.KindHeartbeat:
			continue
		case wal.KindTranslation:
		default:
			// Unknown kinds are skipped, not fatal: a newer source may
			// stream record kinds an older follower does not know.
			obs.Inc("replica.skipped_kind")
			continue
		}
		if rec.Seq <= f.applied.Load() {
			// The source re-serves from the watermark on resume; anything
			// at or below it is already applied.
			obs.Inc("replica.skipped_applied")
			continue
		}
		tr, err := wal.DecodeTranslation(f.db.Schema(), rec)
		if err != nil {
			return fmt.Errorf("replica: seq %d does not decode against the local schema (source ran DDL? wipe and re-bootstrap): %w", rec.Seq, err)
		}
		if err := deliver(Commit{Seq: rec.Seq, Key: rec.Key, TS: rec.TS, Tr: tr}); err != nil {
			return err
		}
	}
}
