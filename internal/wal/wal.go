// Package wal implements the durable write-ahead log of the
// translation pipeline: an append-only, CRC32-checksummed record log
// (stdlib only) that journals every committed translation.
//
// # Record format
//
// The log is a sequence of frames:
//
//	[4 bytes  payload length, little-endian uint32]
//	[4 bytes  CRC32-Castagnoli of the payload,  little-endian]
//	[payload  JSON-encoded Record]
//
// Each frame is written with a single Write call, so a crash tears at
// most the last frame. The core record kinds are a translation record
// (sequence number plus the translation's operations, with every tuple
// value in its canonical text encoding) and a commit marker carrying
// just the sequence number. The commit protocol (persist.Store) is
// memory first:
//
//	apply to memory → append [translation(seq), commit(seq)] in one write
//
// and nobody is acknowledged before that write's durability barrier, so
// a translation record without a later commit marker — the residue of a
// torn write — is, by construction, unacknowledged and is discarded at
// recovery.
//
// Three further kinds serve the sharded engine's two-phase commit
// (internal/shard): a prepare record journals one participant's slice
// of a cross-shard commit, a decision record on the coordinator shard
// marks it committed, and a resolve marker lazily settles a prepare in
// place. See CommittedWith for how recovery resolves them.
//
// # Torn tails
//
// Scan reads frames until the first one that is incomplete, fails its
// checksum, or does not decode; everything from that byte offset on is
// the torn tail. Recovery truncates the file there. A checksum failure
// in the middle of a log (bit rot) is handled the same way: the clean
// prefix wins, the rest is dropped — the WAL's contract is "some
// committed prefix", never a partial translation.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"viewupdate/internal/faultinject"
	"viewupdate/internal/obs"
	"viewupdate/internal/schema"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
)

// Record kinds.
const (
	// KindTranslation journals one translation's operations.
	KindTranslation = 1
	// KindCommit marks the translation with the same Seq as durably
	// applied.
	KindCommit = 2
	// KindPrepare journals one participant's slice of a cross-shard
	// commit (see internal/shard): the ops this shard applies, the
	// idempotency key, and the coordinator shard index. A prepare is
	// provisional — it commits only if a KindDecision record with the
	// same Seq exists on the coordinator (or a later KindResolve marker
	// on this log), and is otherwise presumed aborted at recovery.
	KindPrepare = 3
	// KindDecision, written on the coordinator shard's log after every
	// participant's prepare is durable, marks the cross-shard commit
	// with the same Seq as committed. Abort decisions are never
	// journaled: no decision means abort (presumed abort).
	KindDecision = 4
	// KindResolve is a lazy completion marker appended to a
	// participant's log after the decision is durable, so that shard's
	// recovery can resolve the prepare locally instead of consulting
	// the coordinator. It carries no durability requirement of its own
	// and never triggers a sync.
	KindResolve = 5
	// KindHeartbeat is a stream-only record (never written to disk):
	// the replication source emits it periodically on /wal/stream with
	// Seq set to its current durable watermark and TS to its wall
	// clock, so an idle follower can still measure sequence lag and
	// detect a dead connection. Followers never apply it. See
	// docs/REPLICATION.md.
	KindHeartbeat = 6
)

// MaxRecordSize bounds a frame payload; Scan treats larger claimed
// lengths as corruption rather than allocating unbounded memory.
const MaxRecordSize = 1 << 26

// kindNeedsSync reports whether a record of the given kind acts as a
// durability point under SyncOnCommit. Commit markers do (the classic
// group-commit barrier); prepare and decision records do too — the 2PC
// protocol's correctness ("acked implies durable on every participant")
// rests on each being on media before the protocol advances. Resolve
// markers are pure hints and explicitly do not.
func kindNeedsSync(kind int) bool {
	return kind == KindCommit || kind == KindPrepare || kind == KindDecision
}

// ErrSealed marks a log that suffered an append failure it could not
// repair: the media may hold a partial frame, and appending after it
// would put committed records beyond a tear where Scan never reads
// them. A sealed log refuses all further appends; reopen the store to
// recover.
var ErrSealed = errors.New("wal: log sealed after unrepaired append failure")

// headerSize is the frame header: 4 length bytes + 4 CRC bytes.
const headerSize = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// An OpRecord serializes one update operation. Kind is "i" (insert),
// "d" (delete) or "r" (replace); tuples are value encodings in schema
// order.
type OpRecord struct {
	Kind string   `json:"k"`
	Rel  string   `json:"rel"`
	Vals []string `json:"v,omitempty"`   // insert/delete payload
	Old  []string `json:"old,omitempty"` // replace: removed tuple
	New  []string `json:"new,omitempty"` // replace: added tuple
}

// A Record is one log entry.
type Record struct {
	Seq  uint64     `json:"seq"`
	Kind int        `json:"kind"`
	Ops  []OpRecord `json:"ops,omitempty"`
	// Key is the client-supplied idempotency key of a translation or
	// prepare record, when the commit carried one. Recovery replays
	// keys into the serving layer's dedup table, so a client retrying
	// an ambiguous ack across a crash still gets the original outcome
	// instead of a double apply.
	Key string `json:"id,omitempty"`
	// Coord is the coordinator shard index of a prepare record: the
	// shard whose log holds (or would hold) the decision for this Seq.
	Coord int `json:"coord,omitempty"`
	// TS is the source's commit wall clock in unix nanoseconds,
	// stamped only on records sent over /wal/stream (and on heartbeat
	// frames); disk frames never carry it. Followers subtract it from
	// their own apply time for the replication staleness gauges. Zero
	// means unknown — a record served from the source's disk during
	// gap-fill rather than from its live commit feed.
	TS int64 `json:"ts,omitempty"`
}

// SyncPolicy controls when the log calls Sync on its media.
type SyncPolicy int

const (
	// SyncOnCommit syncs after every commit marker (the default): a
	// crash can lose the in-flight translation but never a committed
	// one.
	SyncOnCommit SyncPolicy = iota
	// SyncAlways syncs after every record.
	SyncAlways
	// SyncNever leaves syncing to the OS; fastest, weakest.
	SyncNever
)

// String names the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncOnCommit:
		return "commit"
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses "commit", "always" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "commit":
		return SyncOnCommit, nil
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want commit|always|never)", s)
	}
}

// File is the minimal media contract of the log: ordered writes plus a
// durability barrier. *os.File satisfies it; MemFile provides an
// in-memory implementation; the faultinject writers wrap either.
type File interface {
	io.Writer
	Sync() error
}

// truncater is the optional repair capability of the media: cutting the
// file back to a known-good length after a failed append. *os.File,
// MemFile, and the faultinject writers all provide it.
type truncater interface{ Truncate(size int64) error }

// A MemFile is an in-memory File for tests and property harnesses.
type MemFile struct {
	buf   []byte
	syncs int
}

// Write implements io.Writer.
func (m *MemFile) Write(p []byte) (int, error) {
	m.buf = append(m.buf, p...)
	return len(p), nil
}

// Sync implements File, counting barrier calls.
func (m *MemFile) Sync() error {
	m.syncs++
	return nil
}

// Truncate cuts the log image back to size bytes.
func (m *MemFile) Truncate(size int64) error {
	if size < 0 || size > int64(len(m.buf)) {
		return fmt.Errorf("wal: truncate to %d outside [0,%d]", size, len(m.buf))
	}
	m.buf = m.buf[:size]
	return nil
}

// Bytes returns the accumulated log image.
func (m *MemFile) Bytes() []byte { return m.buf }

// Syncs returns the number of Sync calls observed.
func (m *MemFile) Syncs() int { return m.syncs }

// A Log appends records to a File under a mutex. It performs no
// buffering of its own: every batch reaches the media in one Write.
// The log tracks the last known-good frame boundary; a failed append is
// repaired by truncating back to it (a real write can persist a prefix
// before failing), and if the media cannot be truncated the log seals
// itself — see ErrSealed.
type Log struct {
	mu     sync.Mutex
	f      File
	closer io.Closer
	policy SyncPolicy
	off    int64 // bytes of intact frames, the truncate-back point
	sealed error // non-nil once the tail can no longer be trusted
}

// New returns a log appending to an empty f under the given sync
// policy. For media that already holds frames, use NewAt.
func New(f File, policy SyncPolicy) *Log {
	return NewAt(f, policy, 0)
}

// NewAt returns a log appending to f, whose current length is off
// bytes of intact frames, under the given sync policy.
func NewAt(f File, policy SyncPolicy, off int64) *Log {
	return &Log{f: f, policy: policy, off: off}
}

// OpenFile opens (creating if absent) the log file at path for
// appending and returns the log plus the current file size.
func OpenFile(path string, policy SyncPolicy) (*Log, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	return &Log{f: f, closer: f, policy: policy, off: st.Size()}, st.Size(), nil
}

// Frame encodes rec as one on-disk frame.
func Frame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("wal: encoding record: %w", err)
	}
	if len(payload) > MaxRecordSize {
		return nil, fmt.Errorf("wal: record of %d bytes exceeds MaxRecordSize", len(payload))
	}
	frame := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[headerSize:], payload)
	return frame, nil
}

// Append writes rec as a one-record AppendBatch.
func (l *Log) Append(rec Record) error { return l.AppendBatch([]Record{rec}) }

// syncTimedLocked runs a durability barrier and, when instrumentation
// is enabled, reports its duration in nanoseconds and records it in the
// "wal.fsync.ns" histogram. With instrumentation disabled the clock is
// never read and 0 is reported. Callers hold l.mu.
func (l *Log) syncTimedLocked() (int64, error) {
	if ferr := faultinject.Hit(faultinject.SiteWALSync); ferr != nil {
		return 0, ferr
	}
	timed := obs.Enabled()
	var start time.Time
	if timed {
		start = time.Now()
	}
	if err := l.f.Sync(); err != nil {
		return 0, err
	}
	obs.Inc("wal.sync")
	if !timed {
		return 0, nil
	}
	d := int64(time.Since(start))
	obs.Observe("wal.fsync.ns", d)
	return d, nil
}

// AppendBatch writes recs as consecutive frames in one Write call,
// followed by at most one durability barrier: the batch syncs when the
// policy is SyncAlways, or when it is SyncOnCommit and the batch
// carries at least one record that is a durability point (see
// kindNeedsSync). This is the group-commit primitive — n concurrent
// commits share a single write+fsync instead of paying one each.
//
// Atomicity is per frame: a crash mid-batch tears at some byte offset,
// Scan keeps the intact frame prefix, and any translation record whose
// commit marker fell beyond the tear is discarded at recovery. A failed
// write is repaired in place — write(2) can persist a prefix before
// failing, so the file is cut back to the last intact frame (no record
// of the batch survives, a retry is sound, and later appends never land
// beyond a tear). When the repair itself fails, or the barrier does —
// after which the fate of every unsynced byte is unknown — the log
// seals: every further append returns an error chaining ErrSealed and
// the original cause.
func (l *Log) AppendBatch(recs []Record) error {
	_, err := l.AppendBatchStats(recs)
	return err
}

// BatchStats reports where one AppendBatch spent its time. The fields
// are populated only while instrumentation is enabled (obs.Enabled());
// with it disabled the append path never reads the clock and the stats
// are zero except Synced.
type BatchStats struct {
	// WriteNS is the time spent in the media Write call.
	WriteNS int64
	// SyncNS is the time spent in the durability barrier (0 when the
	// policy skipped it).
	SyncNS int64
	// Synced reports whether the batch ended with a durability barrier.
	Synced bool
}

// A batchScratch is one reusable batch-encode workspace: records
// marshal through enc into payload, and the finished frames accumulate
// in frames — no per-record allocation once the scratch is warm.
type batchScratch struct {
	frames  []byte
	payload bytes.Buffer
	enc     *json.Encoder
}

// maxPooledScratch caps how large a retained scratch may grow; an
// outsized batch (giant translations) is dropped for the GC instead of
// pinning its high-water mark in the pool.
const maxPooledScratch = 1 << 20

var scratchPool = sync.Pool{New: func() any {
	s := &batchScratch{}
	s.enc = json.NewEncoder(&s.payload)
	return s
}}

// appendFrame encodes rec as one frame into the scratch. The payload
// bytes are identical to Frame's json.Marshal output (the encoder's
// trailing newline is stripped), so the media is byte-identical to a
// sequence of Frame calls.
func (s *batchScratch) appendFrame(rec Record) error {
	s.payload.Reset()
	if err := s.enc.Encode(rec); err != nil {
		return fmt.Errorf("wal: encoding record: %w", err)
	}
	payload := s.payload.Bytes()
	payload = payload[:len(payload)-1] // json.Encoder appends '\n'
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecordSize", len(payload))
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	s.frames = append(s.frames, hdr[:]...)
	s.frames = append(s.frames, payload...)
	return nil
}

// AppendBatchStats is AppendBatch returning a timing breakdown of the
// write and the fsync — the serving layer threads these into per-request
// pipeline traces. See AppendBatch for the append semantics. Encoding
// runs on pooled scratch: the committer calls this once per batch on
// the hot path, and per-record frame allocations were a measurable
// share of its profile.
func (l *Log) AppendBatchStats(recs []Record) (BatchStats, error) {
	var stats BatchStats
	if len(recs) == 0 {
		return stats, nil
	}
	if ferr := faultinject.Hit(faultinject.SiteWALAppend); ferr != nil {
		return stats, fmt.Errorf("wal: %w", ferr)
	}
	sp := obs.StartSpan("wal.append_batch")
	defer sp.End()
	scratch := scratchPool.Get().(*batchScratch)
	defer func() {
		if cap(scratch.frames) <= maxPooledScratch && scratch.payload.Cap() <= maxPooledScratch {
			scratchPool.Put(scratch)
		}
	}()
	scratch.frames = scratch.frames[:0]
	hasCommit := false
	for _, rec := range recs {
		if err := scratch.appendFrame(rec); err != nil {
			return stats, err
		}
		if kindNeedsSync(rec.Kind) {
			hasCommit = true
		}
	}
	buf := scratch.frames
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed != nil {
		return stats, l.sealed
	}
	timed := obs.Enabled()
	var start time.Time
	if timed {
		start = time.Now()
	}
	if _, err := l.f.Write(buf); err != nil {
		l.repairLocked(err)
		return stats, fmt.Errorf("wal: append batch: %w", err)
	}
	if timed {
		stats.WriteNS = int64(time.Since(start))
	}
	l.off += int64(len(buf))
	obs.Add("wal.append", int64(len(recs)))
	obs.Inc("wal.append_batch")
	if l.policy == SyncAlways || (l.policy == SyncOnCommit && hasCommit) {
		d, err := l.syncTimedLocked()
		if err != nil {
			l.sealLocked(err)
			return stats, fmt.Errorf("wal: sync: %w", err)
		}
		stats.SyncNS = d
		stats.Synced = true
	}
	return stats, nil
}

// repairLocked restores the media to the last known-good frame boundary
// after a failed write, sealing the log when it cannot.
func (l *Log) repairLocked(cause error) {
	if t, ok := l.f.(truncater); ok {
		if err := t.Truncate(l.off); err == nil {
			obs.Inc("wal.append.repaired")
			return
		}
	}
	l.sealLocked(cause)
}

func (l *Log) sealLocked(cause error) {
	l.sealed = fmt.Errorf("%w (cause: %w)", ErrSealed, cause)
	obs.Inc("wal.sealed")
}

// Sealed returns the sealing error, or nil while the log accepts
// appends.
func (l *Log) Sealed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealed
}

// Sync forces a durability barrier regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed != nil {
		return l.sealed
	}
	if _, err := l.syncTimedLocked(); err != nil {
		l.sealLocked(err)
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Close closes the underlying file, when it is closable, after a final
// sync. A sealed log skips the sync — its tail is already suspect — and
// only releases the file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed == nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
	}
	if l.closer != nil {
		return l.closer.Close()
	}
	return nil
}

// A ScanResult holds the clean prefix of a log.
type ScanResult struct {
	// Records are the intact records in log order.
	Records []Record
	// TornAt is the byte offset of the first damaged frame, or -1 when
	// the log is clean. Recovery truncates the file to this length.
	TornAt int64
	// Reason describes the damage when TornAt >= 0.
	Reason string
}

// Torn reports whether the log has a damaged tail.
func (r *ScanResult) Torn() bool { return r.TornAt >= 0 }

// Scan reads frames from r until EOF or the first damaged frame.
// Damage — a partial frame, a checksum mismatch, an implausible length,
// an undecodable payload — is not an error: the result carries the
// clean prefix and the torn offset. Only genuine read failures of the
// underlying reader are returned as errors.
func Scan(r io.Reader) (*ScanResult, error) {
	br := bufio.NewReader(r)
	res := &ScanResult{TornAt: -1}
	var off int64
	torn := func(reason string) (*ScanResult, error) {
		res.TornAt = off
		res.Reason = reason
		obs.Inc("wal.scan.torn")
		return res, nil
	}
	for {
		header := make([]byte, headerSize)
		n, err := io.ReadFull(br, header)
		if n == 0 && errors.Is(err, io.EOF) {
			return res, nil
		}
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return torn("partial frame header")
		}
		if err != nil {
			return nil, fmt.Errorf("wal: reading header: %w", err)
		}
		ln := binary.LittleEndian.Uint32(header[0:4])
		crc := binary.LittleEndian.Uint32(header[4:8])
		if ln == 0 || ln > MaxRecordSize {
			return torn(fmt.Sprintf("implausible record length %d", ln))
		}
		payload := make([]byte, ln)
		if _, err := io.ReadFull(br, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return torn("partial record payload")
			}
			return nil, fmt.Errorf("wal: reading payload: %w", err)
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return torn("checksum mismatch")
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return torn("undecodable record")
		}
		res.Records = append(res.Records, rec)
		off += headerSize + int64(ln)
	}
}

// ScanFile scans the log file at path. A missing file scans as an
// empty, clean log.
func ScanFile(path string) (*ScanResult, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return &ScanResult{TornAt: -1}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	return Scan(f)
}

// Committed returns the translation records that have a matching commit
// marker later in the scanned prefix, in commit order, plus the number
// of uncommitted translation records discarded.
func (r *ScanResult) Committed() (committed []Record, discarded int) {
	pending := make(map[uint64]Record)
	for _, rec := range r.Records {
		switch rec.Kind {
		case KindTranslation:
			pending[rec.Seq] = rec
		case KindCommit:
			if tr, ok := pending[rec.Seq]; ok {
				committed = append(committed, tr)
				delete(pending, rec.Seq)
			}
		}
	}
	return committed, len(pending)
}

// Decisions returns the set of sequence numbers with a KindDecision
// record in the scanned prefix. A cross-shard recovery unions the
// decision sets of every shard's log before resolving prepares.
func (r *ScanResult) Decisions() map[uint64]bool {
	var out map[uint64]bool
	for _, rec := range r.Records {
		if rec.Kind == KindDecision {
			if out == nil {
				out = make(map[uint64]bool)
			}
			out[rec.Seq] = true
		}
	}
	return out
}

// CommittedWith is Committed extended with cross-shard prepares: a
// prepare record commits if a KindResolve marker with the same Seq
// follows it in this log, or if decisions — the union of KindDecision
// seqs across every shard — contains its Seq. Prepares satisfying
// neither are in-doubt and, under presumed abort, discarded; inDoubt
// counts them separately from ordinary uncommitted translations.
// Records are returned in log order (the caller merges shards and
// orders globally by Seq).
func (r *ScanResult) CommittedWith(decisions map[uint64]bool) (committed []Record, discarded, inDoubt int) {
	pending := make(map[uint64]Record)
	prepared := make(map[uint64]Record)
	var order []Record
	settle := func(rec Record) { order = append(order, rec) }
	for _, rec := range r.Records {
		switch rec.Kind {
		case KindTranslation:
			pending[rec.Seq] = rec
		case KindCommit:
			if tr, ok := pending[rec.Seq]; ok {
				settle(tr)
				delete(pending, rec.Seq)
			}
		case KindPrepare:
			prepared[rec.Seq] = rec
		case KindResolve:
			if p, ok := prepared[rec.Seq]; ok {
				settle(p)
				delete(prepared, rec.Seq)
			}
		}
	}
	for seq, p := range prepared {
		if decisions[seq] {
			settle(p)
			delete(prepared, seq)
		}
	}
	// settle appended resolve-time and decision-time commits out of log
	// order for the decision stragglers; restore record order by Seq
	// within this log (seqs are globally monotone, so Seq order is log
	// order for one shard's committed set).
	sort.Slice(order, func(i, j int) bool { return order[i].Seq < order[j].Seq })
	return order, len(pending), len(prepared)
}

// MaxSeq returns the highest sequence number in the scanned prefix (0
// for an empty log).
func (r *ScanResult) MaxSeq() uint64 {
	var max uint64
	for _, rec := range r.Records {
		if rec.Seq > max {
			max = rec.Seq
		}
	}
	return max
}

// EncodeTranslationKeyed builds the translation record journaling tr
// under the given sequence number, stamped with a client-supplied
// idempotency key (empty means none).
func EncodeTranslationKeyed(seq uint64, key string, tr *update.Translation) Record {
	return Record{Seq: seq, Kind: KindTranslation, Key: key, Ops: encodeOps(tr)}
}

func encodeOps(tr *update.Translation) []OpRecord {
	var out []OpRecord
	for _, o := range tr.Ops() {
		switch o.Kind {
		case update.Insert:
			out = append(out, OpRecord{Kind: "i", Rel: o.RelationName(), Vals: encodeVals(o.Tuple)})
		case update.Delete:
			out = append(out, OpRecord{Kind: "d", Rel: o.RelationName(), Vals: encodeVals(o.Tuple)})
		case update.Replace:
			out = append(out, OpRecord{Kind: "r", Rel: o.RelationName(), Old: encodeVals(o.Old), New: encodeVals(o.New)})
		}
	}
	return out
}

// CommitRecord builds the commit marker for seq.
func CommitRecord(seq uint64) Record { return Record{Seq: seq, Kind: KindCommit} }

// HeartbeatRecord builds a stream-only heartbeat frame: the source's
// current durable watermark plus its wall clock (unix nanoseconds).
func HeartbeatRecord(seq uint64, ts int64) Record {
	return Record{Seq: seq, Kind: KindHeartbeat, TS: ts}
}

// PrepareRecord builds one participant's prepare record of a
// cross-shard commit: the ops that participant applies, the client's
// idempotency key (empty means none), and the coordinator shard whose
// log will carry the decision. All participants of one cross-shard
// commit share the same (globally allocated) seq.
func PrepareRecord(seq uint64, key string, coord int, part *update.Translation) Record {
	return Record{Seq: seq, Kind: KindPrepare, Key: key, Coord: coord, Ops: encodeOps(part)}
}

// DecisionRecord builds the commit decision for the cross-shard commit
// with the given seq.
func DecisionRecord(seq uint64) Record { return Record{Seq: seq, Kind: KindDecision} }

// ResolveRecord builds the lazy resolution marker for seq.
func ResolveRecord(seq uint64) Record { return Record{Seq: seq, Kind: KindResolve} }

func encodeVals(t tuple.T) []string {
	vals := t.Values()
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.Encode()
	}
	return out
}

// DecodeTranslation rebuilds the translation journaled in rec — a
// translation record or a cross-shard prepare — against sch. It fails
// on unknown relations, arity mismatches, or values that do not decode
// or fall outside their domains — a record that passed its checksum but
// disagrees with the schema indicates corruption or a snapshot/WAL
// mismatch.
func DecodeTranslation(sch *schema.Database, rec Record) (*update.Translation, error) {
	if rec.Kind != KindTranslation && rec.Kind != KindPrepare {
		return nil, fmt.Errorf("wal: record seq %d is not a translation", rec.Seq)
	}
	tr := update.NewTranslation()
	for _, o := range rec.Ops {
		rel := sch.Relation(o.Rel)
		if rel == nil {
			return nil, fmt.Errorf("wal: record seq %d references unknown relation %s", rec.Seq, o.Rel)
		}
		switch o.Kind {
		case "i", "d":
			t, err := decodeTuple(rel, o.Vals)
			if err != nil {
				return nil, fmt.Errorf("wal: record seq %d: %w", rec.Seq, err)
			}
			if o.Kind == "i" {
				tr.Add(update.NewInsert(t))
			} else {
				tr.Add(update.NewDelete(t))
			}
		case "r":
			old, err := decodeTuple(rel, o.Old)
			if err != nil {
				return nil, fmt.Errorf("wal: record seq %d: %w", rec.Seq, err)
			}
			new, err := decodeTuple(rel, o.New)
			if err != nil {
				return nil, fmt.Errorf("wal: record seq %d: %w", rec.Seq, err)
			}
			tr.Add(update.NewReplace(old, new))
		default:
			return nil, fmt.Errorf("wal: record seq %d has unknown op kind %q", rec.Seq, o.Kind)
		}
	}
	return tr, nil
}

func decodeTuple(rel *schema.Relation, encs []string) (tuple.T, error) {
	if len(encs) != rel.Arity() {
		return tuple.T{}, fmt.Errorf("%s tuple has %d values, want %d", rel.Name(), len(encs), rel.Arity())
	}
	vals := make([]value.Value, len(encs))
	for i, enc := range encs {
		v, err := value.Decode(enc)
		if err != nil {
			return tuple.T{}, fmt.Errorf("%s tuple: %w", rel.Name(), err)
		}
		vals[i] = v
	}
	return tuple.New(rel, vals...)
}
