package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"viewupdate/internal/obs"
	"viewupdate/internal/persist"
	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/wal"
)

// ManifestFile is the shard-map manifest inside the store directory; it
// records the shard count and the schema's inclusion dependencies
// (which the per-shard snapshots deliberately omit — see below).
const ManifestFile = "shardmap.json"

// manifestFormat is the current manifest layout.
const manifestFormat = 1

// A Manifest pins the store's partitioning so an Open with the wrong
// -shards cannot scatter keys across a different map.
type Manifest struct {
	Format int `json:"format"`
	Shards int `json:"shards"`
	// Inclusions are the global schema's inclusion dependencies. They
	// live here, not in the shard snapshots: a shard holds an arbitrary
	// horizontal slice of every relation, so inclusion dependencies are
	// only meaningful — and only enforced — against the global state.
	Inclusions []persist.InclusionJSON `json:"inclusions,omitempty"`
}

// Options tune a Store.
type Options struct {
	// Sync is the per-shard WAL sync policy (default wal.SyncOnCommit).
	Sync wal.SyncPolicy
	// WrapWAL, when set, wraps shard i's WAL media before the log
	// writes to it — the chaos harness's crash-injection hook.
	WrapWAL func(shard int, f wal.File) wal.File
}

// A RecoveryReport describes what Open found and repaired across the
// shard fleet.
type RecoveryReport struct {
	// Shards is the fleet size from the manifest.
	Shards int
	// Replayed counts committed records re-applied from shard WALs.
	Replayed int
	// Skipped counts committed records already folded into their
	// shard's snapshot (seq <= that snapshot's watermark).
	Skipped int
	// Discarded counts translation records without a commit marker.
	Discarded int
	// PreparesCommitted counts cross-shard prepare records that
	// resolved to commit (via a resolve marker or a decision record on
	// the coordinator shard).
	PreparesCommitted int
	// PreparesAborted counts in-doubt prepares rolled back under
	// presumed abort: durable on their shard, but no decision anywhere.
	// By protocol order (ack strictly after the decision is durable)
	// every such commit was never acknowledged.
	PreparesAborted int
	// OrphansPruned counts tuples dropped because a crash between
	// shard fsyncs left them referencing a parent that never became
	// durable. The commit fence (see docs/SHARDING.md) guarantees such
	// tuples were never part of an acknowledged commit.
	OrphansPruned int
	// InclusionsSkipped counts manifest inclusion dependencies naming
	// relations absent from every shard snapshot — the residue of a
	// crash between a DDL checkpoint's manifest rename and its
	// snapshot writes. The DDL was never acknowledged.
	InclusionsSkipped int
	// TornShards counts shards whose WAL had a damaged tail truncated.
	TornShards int
	// MaxSeq is the highest global sequence number recovered.
	MaxSeq uint64
}

// String renders the report for logs.
func (r RecoveryReport) String() string {
	return fmt.Sprintf("shards %d: replayed %d, skipped %d, discarded %d, prepares committed %d aborted %d, orphans pruned %d, torn shards %d, max seq %d",
		r.Shards, r.Replayed, r.Skipped, r.Discarded, r.PreparesCommitted, r.PreparesAborted, r.OrphansPruned, r.TornShards, r.MaxSeq)
}

// A Store is the durable side of an N-way sharded engine: one in-memory
// database (the authority for translation, validation and reads)
// journaled by N lanes, each a WAL and a snapshot under dir/shard-<i>/
// holding the tuples the Map assigns to shard i. Sequence numbers are
// global — one counter spans all lanes — so recovery can merge the
// per-shard logs back into the exact memory order commits applied in.
//
// The Store neither applies to memory nor runs a commit protocol: the
// engine holds its state lock across validation + memory apply +
// sequence allocation, then journals through AppendBatch outside the
// lock (that is what lets N fsync streams proceed in parallel). The
// two-phase protocol over those appends lives once, in the engine's
// lanes (internal/server/shard.go).
type Store struct {
	dir  string
	m    *Map
	opts Options

	db   *storage.Database // the one authoritative state
	logs []*persist.Journal

	seq atomic.Uint64 // global sequence counter

	// snapSeq is the snapshot floor: the highest per-shard snapshot
	// watermark. Commits at or below it may be folded into a snapshot on
	// their shard and can no longer be reassembled from the WALs, so the
	// replication source answers stream requests below it with
	// "snapshot required".
	snapSeq atomic.Uint64

	brokenMu sync.Mutex
	broken   []error // per-shard: first journaling failure; memory may be ahead of media

	report RecoveryReport
	keys   []string // recovered idempotency keys, commit order
}

func shardDir(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("shard-%d", i)) }

// Create initializes dir as a new N-way sharded store holding db's
// current state. It fails if dir already holds a manifest.
func Create(dir string, n int, db *storage.Database, opts Options) (*Store, error) {
	m, err := NewMap(n)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	manPath := filepath.Join(dir, ManifestFile)
	if _, err := os.Stat(manPath); err == nil {
		return nil, fmt.Errorf("shard: store already exists at %s", dir)
	}
	s := &Store{dir: dir, m: m, opts: opts, db: db, broken: make([]error, n),
		report: RecoveryReport{Shards: n}}
	if err := s.writeManifest(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if err := os.MkdirAll(shardDir(dir, i), 0o755); err != nil {
			return nil, fmt.Errorf("shard: %w", err)
		}
	}
	if err := s.writeShardSnapshots(0); err != nil {
		return nil, err
	}
	if err := s.openLogs(); err != nil {
		return nil, err
	}
	obs.Inc("shard.store.created")
	return s, nil
}

// Open recovers the sharded store at dir. want, when non-zero, must
// match the manifest's shard count — refusing to re-partition an
// existing store under a different map. Missing manifest reports
// persist.ErrNoStore so the caller can fall back to Create.
func Open(dir string, want int, opts Options) (*Store, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if want != 0 && man.Shards != want {
		return nil, fmt.Errorf("shard: store at %s has %d shards, -shards asked for %d (the shard map is fixed at create time)", dir, man.Shards, want)
	}
	m, err := NewMap(man.Shards)
	if err != nil {
		return nil, fmt.Errorf("shard: manifest: %w", err)
	}
	n := man.Shards
	s := &Store{dir: dir, m: m, opts: opts, broken: make([]error, n),
		report: RecoveryReport{Shards: n}}

	// Phase 1: load every shard snapshot and rebuild the global schema
	// (sans inclusions) as the union of their declarations. The union
	// matters: a crash mid-checkpoint can leave shards at mixed schema
	// versions, and new relations are empty at DDL time, so the union
	// is always the newest schema.
	snaps := make([]*persist.Snapshot, n)
	for i := 0; i < n; i++ {
		snaps[i], err = persist.ReadSnapshotFile(filepath.Join(shardDir(dir, i), persist.SnapshotFile))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if snaps[i].Seq > s.snapSeq.Load() {
			s.snapSeq.Store(snaps[i].Seq)
		}
	}
	merged := mergeSnapshots(snaps)
	s.db, err = persist.Restore(merged)
	if err != nil {
		return nil, fmt.Errorf("shard: restoring merged snapshot: %w", err)
	}
	sch := s.db.Schema()

	// Phase 2: scan every shard's WAL, truncating torn tails, and
	// replay the committed records above each shard's snapshot
	// watermark in global sequence order. Per-shard log order can
	// diverge from the order memory applied in (each shard fsyncs
	// independently), but global seqs — allocated under the engine's
	// state lock — recover the true total order, for the replay and for
	// the recovered idempotency keys alike. Inclusions are not
	// registered yet, so replay never trips a dependency check that the
	// original (globally validated) commit order satisfied.
	logs := make([]*wal.ScanResult, n)
	floors := make([]uint64, n)
	maxSeq := uint64(0)
	for i := 0; i < n; i++ {
		res, truncated, err := persist.ScanJournal(shardDir(dir, i))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if truncated > 0 {
			s.report.TornShards++
		}
		logs[i], floors[i] = res, snaps[i].Seq
		maxSeq = max(maxSeq, res.MaxSeq(), snaps[i].Seq)
	}
	ra := wal.Reassemble(logs, floors)
	if err := persist.Replay(s.db, ra.Records); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	s.keys = ra.Keys
	s.report.Replayed, s.report.Skipped, s.report.Discarded = ra.Parts, ra.Skipped, ra.Discarded
	s.report.PreparesCommitted, s.report.PreparesAborted = ra.PreparesCommitted, ra.InDoubt

	// Phase 4: prune orphans, then register inclusions. A crash between
	// shard fsyncs can persist a child while its (applied but unsynced)
	// parent on another shard is lost; the commit fence guarantees no
	// such child was ever acknowledged, so dropping it restores
	// consistency without losing acked data.
	deps := make([]schema.InclusionDependency, 0, len(man.Inclusions))
	for _, ij := range man.Inclusions {
		if sch.Relation(ij.Child) == nil || sch.Relation(ij.Parent) == nil {
			// Residue of a crash between a DDL checkpoint's manifest
			// rename and its snapshot writes; the DDL was never acked.
			s.report.InclusionsSkipped++
			continue
		}
		deps = append(deps, schema.InclusionDependency{Child: ij.Child, ChildAttrs: ij.ChildAttrs, Parent: ij.Parent})
	}
	pruned, err := pruneOrphans(s.db, deps)
	if err != nil {
		return nil, err
	}
	s.report.OrphansPruned = pruned
	for _, d := range deps {
		if err := sch.AddInclusion(d); err != nil {
			return nil, fmt.Errorf("shard: manifest inclusion %s: %w", d, err)
		}
	}
	if err := s.db.SyncSchema(); err != nil {
		return nil, fmt.Errorf("shard: rebuilding reference index: %w", err)
	}
	if err := s.db.CheckAllInclusions(); err != nil {
		return nil, fmt.Errorf("shard: recovered state inconsistent: %w", err)
	}

	if err := s.openLogs(); err != nil {
		return nil, err
	}
	s.seq.Store(maxSeq)
	s.report.MaxSeq = maxSeq
	obs.Inc("shard.store.recovered")
	obs.Add("shard.store.replayed", int64(s.report.Replayed))
	return s, nil
}

// mergeSnapshots unions shard snapshots into one global snapshot with
// no inclusions (those come from the manifest, after replay).
func mergeSnapshots(snaps []*persist.Snapshot) *persist.Snapshot {
	merged := &persist.Snapshot{Format: persist.FormatVersion, Tuples: map[string][][]string{}}
	seenDom := map[string]bool{}
	seenRel := map[string]bool{}
	for _, snap := range snaps {
		for _, dj := range snap.Domains {
			if !seenDom[dj.Name] {
				seenDom[dj.Name] = true
				merged.Domains = append(merged.Domains, dj)
			}
		}
		for _, rj := range snap.Relations {
			if !seenRel[rj.Name] {
				seenRel[rj.Name] = true
				merged.Relations = append(merged.Relations, rj)
			}
		}
		for rn, rows := range snap.Tuples {
			merged.Tuples[rn] = append(merged.Tuples[rn], rows...)
		}
	}
	return merged
}

// pruneOrphans deletes, to a fixpoint, every child tuple referencing a
// parent key that is absent (or itself being pruned). Called before
// inclusions are registered on db's schema, so the deletions apply
// without constraint interference.
func pruneOrphans(db *storage.Database, deps []schema.InclusionDependency) (int, error) {
	orphans := map[string]tuple.T{}  // by tuple encoding
	deadParents := map[string]bool{} // by tuple.Key() form: "rel\nkeyenc"
	probeFor := func(d schema.InclusionDependency, t tuple.T) (string, error) {
		keyEnc, err := t.ProjectEncode(d.ChildAttrs)
		if err != nil {
			return "", fmt.Errorf("shard: inclusion %s on %s: %w", d, t, err)
		}
		if keyEnc == "" {
			return d.Parent, nil
		}
		return d.Parent + "\n" + keyEnc, nil
	}
	for changed := true; changed; {
		changed = false
		for _, d := range deps {
			parentExt := db.Extension(d.Parent)
			var err error
			db.Each(d.Child, func(t tuple.T) bool {
				if _, gone := orphans[t.Encode()]; gone {
					return true
				}
				var probe string
				if probe, err = probeFor(d, t); err != nil {
					return false
				}
				alive := parentExt != nil && parentExt.ContainsKeyEncoding(probe) && !deadParents[probe]
				if !alive {
					orphans[t.Encode()] = t
					deadParents[t.Key()] = true
					changed = true
				}
				return true
			})
			if err != nil {
				return 0, err
			}
		}
	}
	if len(orphans) == 0 {
		return 0, nil
	}
	tr := update.NewTranslation()
	for _, t := range orphans {
		tr.Add(update.NewDelete(t))
	}
	if err := db.Apply(tr); err != nil {
		return 0, fmt.Errorf("shard: pruning %d orphans: %w", len(orphans), err)
	}
	obs.Add("shard.store.orphans_pruned", int64(len(orphans)))
	return len(orphans), nil
}

// openLogs opens every lane's journal for appending.
func (s *Store) openLogs() error {
	s.logs = make([]*persist.Journal, s.m.N())
	for i := range s.logs {
		var wrap func(wal.File) wal.File
		if s.opts.WrapWAL != nil {
			i := i
			wrap = func(f wal.File) wal.File { return s.opts.WrapWAL(i, f) }
		}
		log, err := persist.OpenJournal(shardDir(s.dir, i), s.opts.Sync, wrap)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		s.logs[i] = log
	}
	return nil
}

func readManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w (no %s in %s)", persist.ErrNoStore, ManifestFile, dir)
	}
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("shard: decoding manifest: %w", err)
	}
	if man.Format != manifestFormat {
		return nil, fmt.Errorf("shard: unsupported manifest format %d", man.Format)
	}
	return &man, nil
}

func (s *Store) writeManifest() error {
	man := Manifest{Format: manifestFormat, Shards: s.m.N()}
	for _, d := range s.db.Schema().Inclusions() {
		man.Inclusions = append(man.Inclusions, persist.InclusionJSON{
			Child: d.Child, ChildAttrs: d.ChildAttrs, Parent: d.Parent,
		})
	}
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encoding manifest: %w", err)
	}
	return persist.ReplaceFile(filepath.Join(s.dir, ManifestFile), func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
}

// writeShardSnapshots replaces every lane's snapshot with its slice of
// the database — the tuples the Map assigns to it — stamped with
// watermark. The slices are cut in one pass over the one database;
// they carry the full schema but no inclusion dependencies (see
// Manifest). The caller must have quiesced writers.
func (s *Store) writeShardSnapshots(watermark uint64) error {
	sch := s.db.Schema()
	base, err := persist.CaptureSchema(sch)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	base.Inclusions = nil
	base.Seq = watermark
	snaps := make([]persist.Snapshot, s.m.N())
	for i := range snaps {
		snaps[i] = *base
		snaps[i].Tuples = make(map[string][][]string, len(base.Relations))
	}
	for _, name := range sch.RelationNames() {
		for i := range snaps {
			snaps[i].Tuples[name] = nil
		}
		for _, t := range s.db.Tuples(name) {
			rows := snaps[s.m.Of(t)].Tuples
			rows[name] = append(rows[name], persist.EncodeRow(t))
		}
	}
	for i := range snaps {
		if err := persist.WriteSnapshot(shardDir(s.dir, i), &snaps[i]); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// DB returns the authoritative database.
func (s *Store) DB() *storage.Database { return s.db }

// Map returns the partitioning function.
func (s *Store) Map() *Map { return s.m }

// N returns the shard count.
func (s *Store) N() int { return s.m.N() }

// Report returns the recovery report from Open (zero for Create).
func (s *Store) Report() RecoveryReport { return s.report }

// RecoveredKeys returns the idempotency keys of the committed records
// the shard WALs held at Open, merged into commit (global sequence)
// order; nil for a freshly created store.
func (s *Store) RecoveredKeys() []string { return s.keys }

// NextSeq allocates the next global sequence number. The engine calls
// it under its state lock, so sequence order equals memory-apply order.
func (s *Store) NextSeq() uint64 { return s.seq.Add(1) }

// Seq returns the last allocated global sequence number.
func (s *Store) Seq() uint64 { return s.seq.Load() }

// MarkBroken records a journaling failure on shard i: its media no
// longer reflects applied memory, so every further append on i is
// refused and the engine degrades until restart (recovery re-derives
// memory from the durable prefix).
func (s *Store) MarkBroken(i int, err error) {
	s.brokenMu.Lock()
	defer s.brokenMu.Unlock()
	if s.broken[i] == nil {
		s.broken[i] = err
		obs.Inc("shard.store.broken")
	}
}

// Broken returns the first journaling failure recorded on shard i, or
// nil.
func (s *Store) Broken(i int) error {
	s.brokenMu.Lock()
	defer s.brokenMu.Unlock()
	return s.broken[i]
}

// BrokenAny returns the first journaling failure across the fleet.
func (s *Store) BrokenAny() error {
	s.brokenMu.Lock()
	defer s.brokenMu.Unlock()
	for _, err := range s.broken {
		if err != nil {
			return err
		}
	}
	return nil
}

// AppendBatch journals recs on shard i's WAL in one write (+ at most
// one fsync, per policy). On failure the shard is marked broken: the
// records may be partially on media while memory has already moved, so
// only a restart (and recovery) reconciles the two.
func (s *Store) AppendBatch(i int, recs []wal.Record) (wal.BatchStats, error) {
	if err := s.Broken(i); err != nil {
		return wal.BatchStats{}, err
	}
	stats, err := s.logs[i].AppendBatchStats(recs)
	if err != nil {
		s.MarkBroken(i, err)
		return stats, err
	}
	return stats, nil
}

// SnapshotSeq reports the snapshot floor: the highest watermark any
// shard's snapshot has been folded up to. Stream resumptions below it
// cannot be served from the WALs.
func (s *Store) SnapshotSeq() uint64 { return s.snapSeq.Load() }

// Checkpoint folds every shard's WAL into a fresh snapshot stamped with
// the current global sequence watermark and rewrites the manifest (DDL
// may have added inclusions). The caller must have quiesced the
// pipelines: no append may be in flight, and every decided cross-shard
// commit must have its resolve markers appended (the engine answers
// waiters only after appending them, so idle pipelines imply it).
//
// Order matters for crash safety: logs are synced first (making resolve
// markers durable, so truncating one shard's decisions cannot orphan
// another shard's prepare), then the manifest, then each snapshot, then
// the truncations. Every intermediate crash state recovers — see the
// recovery matrix in docs/SHARDING.md.
func (s *Store) Checkpoint() error {
	if err := s.BrokenAny(); err != nil {
		return fmt.Errorf("shard: refusing checkpoint on broken fleet: %w", err)
	}
	for i, log := range s.logs {
		if err := log.Sync(); err != nil {
			s.MarkBroken(i, err)
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if err := s.writeManifest(); err != nil {
		return err
	}
	w := s.seq.Load()
	if err := s.writeShardSnapshots(w); err != nil {
		return err
	}
	for i, log := range s.logs {
		if err := log.Reset(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	s.snapSeq.Store(w)
	obs.Inc("shard.store.checkpoint")
	return nil
}

// Close releases every shard's WAL after a final sync (skipped on
// sealed logs). It does not checkpoint; pair with Checkpoint for a
// graceful shutdown.
func (s *Store) Close() error {
	var first error
	for _, log := range s.logs {
		if log == nil {
			continue
		}
		if err := log.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
