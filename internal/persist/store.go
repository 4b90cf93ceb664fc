package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"viewupdate/internal/obs"
	"viewupdate/internal/storage"
	"viewupdate/internal/update"
	"viewupdate/internal/vuerr"
	"viewupdate/internal/wal"
)

// Store file names inside the store directory.
const (
	SnapshotFile = "snapshot.json"
	WALFile      = "journal.wal"
)

// ErrNoStore marks an Open of a directory that holds no snapshot.
var ErrNoStore = errors.New("persist: no snapshot in store directory")

// ErrNotDurable marks a commit whose WAL append failed after the
// in-memory state was cleanly rolled back: the database is intact but
// the commit did not happen. Distinguishes I/O failure from optimistic
// validation failure for callers (the serving layer) that map the two
// to different responses.
var ErrNotDurable = errors.New("persist: commit not durable")

// Options tune a Store.
type Options struct {
	// Sync is the WAL sync policy (default wal.SyncOnCommit).
	Sync wal.SyncPolicy
	// WrapWAL, when set, wraps the WAL media before the log writes to
	// it. It exists for fault injection: tests wrap the file in a
	// faultinject.CrashWriter or FlakyWriter to simulate crashes and
	// transient I/O errors at exact byte offsets.
	WrapWAL func(wal.File) wal.File
}

// A RecoveryReport describes what Open found and repaired.
type RecoveryReport struct {
	// Replayed counts committed translations re-applied from the WAL.
	Replayed int
	// Skipped counts committed translations already folded into the
	// snapshot (seq <= SnapshotSeq) — the residue of a crash between a
	// checkpoint's snapshot rename and its WAL truncation.
	Skipped int
	// SnapshotSeq is the snapshot's applied-sequence watermark.
	SnapshotSeq uint64
	// Discarded counts translation records without a commit marker.
	Discarded int
	// TornAt is the byte offset of the torn WAL tail, or -1 if the log
	// was clean.
	TornAt int64
	// TornReason describes the damage when TornAt >= 0.
	TornReason string
	// TruncatedBytes is the number of bytes cut off the torn tail.
	TruncatedBytes int64
	// MaxSeq is the highest sequence number seen in the clean prefix.
	MaxSeq uint64
}

// String renders the report for logs.
func (r RecoveryReport) String() string {
	torn := "clean"
	if r.TornAt >= 0 {
		torn = fmt.Sprintf("torn at %d (%s), truncated %d bytes", r.TornAt, r.TornReason, r.TruncatedBytes)
	}
	skipped := ""
	if r.Skipped > 0 {
		skipped = fmt.Sprintf(", skipped %d at or below watermark %d", r.Skipped, r.SnapshotSeq)
	}
	return fmt.Sprintf("replayed %d, discarded %d%s, %s, max seq %d",
		r.Replayed, r.Discarded, skipped, torn, r.MaxSeq)
}

// A Store couples a database with durable state on disk: a JSON
// snapshot plus a write-ahead log of every translation committed since
// that snapshot. Store.Apply is the durable counterpart of
// storage.Database.Apply — every entry point lands through the one
// commit protocol (see commit); Open recovers the database after a
// crash by loading the snapshot, truncating any torn WAL tail, and
// replaying the committed records.
type Store struct {
	mu   sync.Mutex
	dir  string
	db   *storage.Database
	log  *Journal
	opts Options
	seq  uint64
	// committed is the highest sequence number with a durable commit
	// on media — unlike seq, which also counts burned numbers (failed
	// appends, unpaired records found at recovery). A follower resumes
	// replication from committed: its state reflects exactly the
	// primary's prefix up to there.
	committed uint64
	// snapSeq is the snapshot file's applied-seq watermark: records at
	// or below it are folded into the snapshot and no longer on the
	// WAL. The replication source refuses stream resumption below it.
	snapSeq uint64
	// onCommit, when set, receives the translation records of every
	// durable commit, in commit order, immediately after their WAL
	// append succeeded (still under the store lock, so delivery order
	// is commit order). The serving layer feeds its replication stream
	// with it. The callback must be fast and must not call back into
	// the store.
	onCommit func(recs []wal.Record)
	report   RecoveryReport
	broken   error // non-nil once the store can no longer trust its state
	// recoveredKeys are the idempotency keys of every committed
	// translation found in the WAL at Open, in commit order. The
	// serving layer replays them into its dedup table at boot. The
	// window is bounded by the WAL: a checkpoint resets the log and
	// with it the recoverable keys — see docs/ROBUSTNESS.md.
	recoveredKeys []string
}

// RecoveredKeys returns the idempotency keys of the committed
// translations the WAL held at Open, in commit order (nil for a
// freshly created store).
func (s *Store) RecoveredKeys() []string { return s.recoveredKeys }

// Create initializes dir as a new store holding db's current state and
// an empty WAL. It fails if dir already contains a snapshot.
func Create(dir string, db *storage.Database, opts Options) (*Store, error) {
	return CreateAt(dir, db, 0, opts)
}

// CreateAt is Create starting at a nonzero applied-seq watermark: the
// follower bootstrap path, where db is a snapshot of the primary at
// seq and every later record arrives with a primary-assigned sequence
// number through ApplyAt. The snapshot written to disk is stamped with
// seq, so a restart recovers the watermark along with the state.
func CreateAt(dir string, db *storage.Database, seq uint64, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	_, err := os.Stat(filepath.Join(dir, SnapshotFile))
	if err == nil {
		return nil, fmt.Errorf("persist: store already exists at %s", dir)
	}
	s := &Store{dir: dir, db: db, opts: opts, seq: seq, committed: seq,
		report: RecoveryReport{TornAt: -1, SnapshotSeq: seq}}
	if err := s.writeSnapshot(); err != nil {
		return nil, err
	}
	if s.log, err = OpenJournal(dir, opts.Sync, opts.WrapWAL); err != nil {
		return nil, err
	}
	return s, nil
}

// Open recovers the store in dir: load the snapshot, scan the WAL,
// truncate the torn tail if any, replay every committed translation in
// commit order, and verify all inclusion dependencies before serving.
// A translation record without a commit marker is discarded — the
// residue of a torn write, which by the commit protocol nobody was
// acknowledged for.
func Open(dir string, opts Options) (*Store, error) {
	snapPath := filepath.Join(dir, SnapshotFile)
	if _, err := os.Stat(snapPath); errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNoStore, dir)
	}
	snap, err := ReadSnapshotFile(snapPath)
	if err != nil {
		return nil, fmt.Errorf("persist: loading snapshot: %w", err)
	}
	db, err := Restore(snap)
	if err != nil {
		return nil, fmt.Errorf("persist: loading snapshot: %w", err)
	}

	res, truncated, err := ScanJournal(dir)
	if err != nil {
		return nil, err
	}
	report := RecoveryReport{
		TornAt: res.TornAt, TornReason: res.Reason, TruncatedBytes: truncated,
		MaxSeq: res.MaxSeq(), SnapshotSeq: snap.Seq,
	}

	// Keys of durably committed translations — replayed or already
	// folded into the snapshot by a checkpoint whose WAL truncation the
	// crash pre-empted — seed the serving layer's idempotency table;
	// only the records above the snapshot watermark replay.
	ra := wal.Reassemble([]*wal.ScanResult{res}, []uint64{snap.Seq})
	report.Discarded, report.Skipped = ra.Discarded, ra.Skipped
	if err := Replay(db, ra.Records); err != nil {
		return nil, err
	}
	report.Replayed = len(ra.Records)
	maxCommitted := snap.Seq
	if n := len(ra.Records); n > 0 {
		maxCommitted = ra.Records[n-1].Seq
	}
	if err := db.CheckAllInclusions(); err != nil {
		return nil, fmt.Errorf("persist: recovered state invalid: %w (%w)", err, vuerr.ErrCorrupt)
	}
	obs.Add("wal.recover.replayed", int64(report.Replayed))
	obs.Add("wal.recover.discarded", int64(report.Discarded))
	obs.Add("wal.recover.skipped", int64(report.Skipped))

	seq := report.MaxSeq
	if snap.Seq > seq {
		seq = snap.Seq
	}
	s := &Store{dir: dir, db: db, opts: opts, seq: seq, committed: maxCommitted,
		snapSeq: snap.Seq, report: report, recoveredKeys: ra.Keys}
	if s.log, err = OpenJournal(dir, opts.Sync, opts.WrapWAL); err != nil {
		return nil, err
	}
	return s, nil
}

// DB returns the store's live database.
func (s *Store) DB() *storage.Database { return s.db }

// Seq returns the applied-sequence watermark, including burned
// numbers (failed appends, unpaired records found at recovery).
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// CommittedSeq returns the highest sequence number with a durable
// commit on media — the watermark a follower resumes replication
// from. Burned sequence numbers above it never had (and never will
// have) a committed record.
func (s *Store) CommittedSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.committed
}

// SnapshotSeq returns the snapshot file's applied-seq watermark:
// records at or below it are folded away and can no longer be served
// from the WAL. The replication source answers stream requests below
// it with "snapshot required".
func (s *Store) SnapshotSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapSeq
}

// SetOnCommit installs the durable-commit feed: fn receives the
// translation records (kind KindTranslation, with seq and idempotency
// key) of every commit, in commit order, immediately after the commit
// became durable. Delivery runs under the store lock — fn must be
// fast, must not block, and must not call back into the store. The
// serving layer points this at its replication stream. Pass nil to
// detach.
func (s *Store) SetOnCommit(fn func(recs []wal.Record)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onCommit = fn
}

// Report returns what recovery found (zero-valued with TornAt == -1
// for a freshly created store).
func (s *Store) Report() RecoveryReport { return s.report }

// Err returns the store's broken state, if any.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.broken
}

// Apply durably applies tr: the commit protocol with one entry.
func (s *Store) Apply(tr *update.Translation) error {
	errs, _ := s.commit([]*update.Translation{tr}, nil, 0)
	return errs[0]
}

// ApplyAt durably applies tr under a caller-assigned sequence number —
// the follower's replay-from-watermark entry point: the commit protocol
// with one entry and the primary's seq instead of a locally allocated
// one, so the follower's watermark stays aligned with the primary's
// even across the gaps burned sequence numbers leave. seq must exceed
// CommittedSeq; it may be at or below Seq when a crashed previous
// attempt left an unpaired record for it (the re-appended record simply
// supersedes the orphan at recovery). A failed append does not burn seq:
// the follower retries the same record after reconnecting. key is
// journaled like ApplyBatchKeyed's, so RecoveredKeys covers replicated
// commits across a follower restart.
func (s *Store) ApplyAt(seq uint64, key string, tr *update.Translation) error {
	errs, _ := s.commit([]*update.Translation{tr}, []string{key}, seq)
	return errs[0]
}

// ApplyBatch is ApplyBatchKeyed without keys or stats.
func (s *Store) ApplyBatch(trs []*update.Translation) []error {
	errs, _ := s.ApplyBatchKeyed(trs, nil)
	return errs
}

// ApplyStats reports where one group commit spent its time. Populated
// only while instrumentation is enabled (obs.Enabled()); the hot path
// never reads the clock otherwise.
type ApplyStats struct {
	// ApplyNS is the time spent applying the surviving translations in
	// memory.
	ApplyNS int64
	// WALNS is the time spent landing the batch in the WAL, including
	// the durability barrier.
	WALNS int64
	// FsyncNS is the barrier portion of WALNS.
	FsyncNS int64
	// Synced reports whether the batch ended with a durability barrier.
	Synced bool
}

// ApplyBatchKeyed durably applies the translations as one group commit,
// returning one error slot per translation (nil = committed), stamping
// each translation's WAL record with its idempotency key (keys may be
// nil, or hold "" for unkeyed commits; when non-nil it must be parallel
// to trs) and returning a timing breakdown — memory apply, WAL write,
// fsync — that the serving layer threads into per-request pipeline
// traces. Keys of committed translations are recovered by Open and
// surfaced through RecoveredKeys.
func (s *Store) ApplyBatchKeyed(trs []*update.Translation, keys []string) ([]error, ApplyStats) {
	return s.commit(trs, keys, 0)
}

// commit is the store's one commit protocol, memory first: each
// translation is applied in memory — one that fails validation (removed
// tuple absent, key collision, inclusion violation) is skipped with its
// error recorded and writes nothing — then the [translation, commit]
// frame pairs of every survivor reach the journal in one write and one
// durability barrier (wal.AppendBatch). That is safe because no caller
// is acknowledged until commit returns: a crash after the memory
// applies but before the append loses only unacknowledged commits, and
// a torn write leaves some frame prefix in which a translation record
// without its commit marker is discarded at recovery. If the append
// fails, the in-memory applies are rolled back in reverse order so
// memory again matches the durable state (ErrNotDurable); if that
// rollback fails the store — and its database — can no longer be
// trusted and both report ErrCorrupt from then on.
//
// Every translation that passed validation takes the next sequence
// number whether or not the append then lands: a failed append burns
// its seqs, so a retry can never pair a fresh commit marker with a
// stale record of the failed attempt. at, when non-zero, is the
// caller-assigned seq of a single replicated translation (ApplyAt),
// which moves the watermarks only once durable.
func (s *Store) commit(trs []*update.Translation, keys []string, at uint64) ([]error, ApplyStats) {
	var stats ApplyStats
	s.mu.Lock()
	defer s.mu.Unlock()
	errs := make([]error, len(trs))
	refuse := s.broken
	if refuse == nil && at != 0 && at <= s.committed {
		refuse = fmt.Errorf("persist: ApplyAt seq %d at or below committed watermark %d", at, s.committed)
	}
	if refuse != nil {
		for i := range errs {
			errs[i] = refuse
		}
		return errs, stats
	}
	timed := obs.Enabled()
	var start time.Time
	if timed {
		start = time.Now()
	}
	var landed []int // indexes into trs of the translations applied in memory
	var recs []wal.Record
	last := at
	for i, tr := range trs {
		if err := s.db.Apply(tr); err != nil {
			if at != 0 {
				// A replicated record that fails validation means the
				// follower has diverged from the primary — fatal for the
				// caller.
				err = fmt.Errorf("persist: replicated seq %d does not apply: %w", at, err)
			}
			errs[i] = err
			continue
		}
		if at == 0 {
			s.seq++
			last = s.seq
		}
		key := ""
		if i < len(keys) {
			key = keys[i]
		}
		recs = append(recs, EncodeBatchRecordsKeyed(last, key, tr)...)
		landed = append(landed, i)
	}
	if timed {
		stats.ApplyNS = int64(time.Since(start))
		start = time.Now()
	}
	if len(landed) == 0 {
		return errs, stats
	}
	wstats, err := s.log.AppendBatchStats(recs)
	if timed {
		stats.WALNS = int64(time.Since(start))
		stats.FsyncNS = wstats.SyncNS
		stats.Synced = wstats.Synced
	}
	if err != nil {
		fail := fmt.Errorf("%w, rolled back: %w", ErrNotDurable, err)
		for j := len(landed) - 1; j >= 0; j-- {
			if uerr := s.db.Apply(Invert(trs[landed[j]])); uerr != nil {
				s.broken = fmt.Errorf("persist: store broken: append failed (%v), rollback failed: %w (%w)",
					err, uerr, vuerr.ErrCorrupt)
				obs.Inc("persist.store.broken")
				fail = s.broken
				break
			}
		}
		for _, i := range landed {
			errs[i] = fail
		}
		return errs, stats
	}
	obs.Inc("persist.batch")
	obs.Add("persist.batch.commits", int64(len(landed)))
	obs.Observe("persist.batch.size", int64(len(landed)))
	// Every staged seq up to last is now durably committed (skipped
	// translations never allocated one).
	s.committed = last
	if last > s.seq {
		s.seq = last
	}
	if s.onCommit != nil {
		// recs holds [translation, commit] pairs; the feed carries the
		// translation records only.
		trRecs := make([]wal.Record, 0, len(landed))
		for i := 0; i < len(recs); i += 2 {
			trRecs = append(trRecs, recs[i])
		}
		s.onCommit(trRecs)
	}
	return errs, stats
}

// EncodeBatchRecords builds the WAL frames of one committed
// translation inside a batch: its translation record immediately
// followed by its commit marker.
func EncodeBatchRecords(seq uint64, tr *update.Translation) []wal.Record {
	return EncodeBatchRecordsKeyed(seq, "", tr)
}

// EncodeBatchRecordsKeyed is EncodeBatchRecords stamping the
// translation record with an idempotency key (empty means none).
func EncodeBatchRecordsKeyed(seq uint64, key string, tr *update.Translation) []wal.Record {
	return []wal.Record{wal.EncodeTranslationKeyed(seq, key, tr), wal.CommitRecord(seq)}
}

// Checkpoint folds the WAL into a fresh snapshot: write the current
// state as the snapshot (atomically, via rename) and reset the log.
// Call it after schema changes — DDL is snapshot-persisted, not
// WAL-journaled — or to bound recovery time.
//
// The snapshot records the applied-sequence watermark, so a crash
// anywhere inside Checkpoint is safe: before the rename the old
// snapshot+WAL pair still recovers, and between the rename and the WAL
// truncation the new snapshot's watermark makes recovery skip the WAL
// records it already contains.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return s.broken
	}
	if err := s.writeSnapshot(); err != nil {
		return err
	}
	// The snapshot now covers everything in the log; start a new one.
	obs.Inc("persist.checkpoint")
	return s.log.Reset()
}

// writeSnapshot atomically replaces the snapshot file with db's state,
// stamped with the applied-sequence watermark.
func (s *Store) writeSnapshot() error {
	snap, err := Capture(s.db)
	if err != nil {
		return err
	}
	snap.Seq = s.seq
	if err := WriteSnapshot(s.dir, snap); err != nil {
		return err
	}
	s.snapSeq = s.seq
	return nil
}

// CommittedAfter returns the committed translation records with seq >
// cursor from the WAL on disk, in commit order — the replication
// stream's gap-fill for a follower whose resume point predates the
// in-memory backlog. Scanning races live appends harmlessly: a record
// whose commit marker has not reached media yet is simply not served.
// Records at or below SnapshotSeq are folded away; callers refuse those
// resume points first.
func (s *Store) CommittedAfter(cursor uint64) ([]wal.Record, error) {
	res, err := wal.ScanFile(filepath.Join(s.dir, WALFile))
	if err != nil {
		return nil, err
	}
	return wal.Reassemble([]*wal.ScanResult{res}, []uint64{cursor}).Records, nil
}

// Replay decodes each record against db's schema and applies it, in
// order: the one replay path of single-store and sharded recovery. A
// record that does not decode or apply means the log and the snapshot
// disagree, and recovery fails naming the record's seq.
func Replay(db *storage.Database, recs []wal.Record) error {
	for _, rec := range recs {
		tr, err := wal.DecodeTranslation(db.Schema(), rec)
		if err != nil {
			return fmt.Errorf("persist: replay: %w (%w)", err, vuerr.ErrCorrupt)
		}
		if err := db.Apply(tr); err != nil {
			return fmt.Errorf("persist: replaying seq %d: %w (%w)", rec.Seq, err, vuerr.ErrCorrupt)
		}
	}
	return nil
}

// Close syncs and closes the WAL. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}
