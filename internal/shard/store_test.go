package shard

import (
	"errors"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"viewupdate/internal/faultinject"
	"viewupdate/internal/persist"
	"viewupdate/internal/storage"
	"viewupdate/internal/update"
	"viewupdate/internal/wal"
)

// render dumps a database as a sorted tuple listing, comparable across
// restore boundaries (encodings carry the relation name).
func render(db *storage.Database) string {
	names := append([]string(nil), db.Schema().RelationNames()...)
	sort.Strings(names)
	var lines []string
	for _, name := range names {
		for _, t := range db.Tuples(name) {
			lines = append(lines, t.Encode())
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, ";")
}

// checkPartition checkpoints st and verifies the on-disk shard
// snapshots are exactly the map-partition of its database: every row on
// the lane that owns it, no inclusion dependencies on any lane, and the
// lanes' union equal to the global state (so the lanes are disjoint).
func checkPartition(t *testing.T, st *Store) {
	t.Helper()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i := 0; i < st.N(); i++ {
		snap, err := persist.ReadSnapshotFile(filepath.Join(shardDir(st.dir, i), persist.SnapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Inclusions) != 0 {
			t.Fatalf("shard %d snapshot carries inclusions %v; they belong to the manifest", i, snap.Inclusions)
		}
		db, err := persist.Restore(snap)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range db.Schema().RelationNames() {
			for _, tp := range db.Tuples(name) {
				if st.Map().Of(tp) != i {
					t.Fatalf("tuple %v in shard %d's snapshot, owner %d", tp, i, st.Map().Of(tp))
				}
				lines = append(lines, tp.Encode())
			}
		}
	}
	sort.Strings(lines)
	if got, want := strings.Join(lines, ";"), render(st.DB()); got != want {
		t.Fatalf("shard snapshots hold\n  %s\nglobal db\n  %s", got, want)
	}
}

func newTestStore(t *testing.T, dir string, n int, opts Options) *Store {
	t.Helper()
	sch, _, _ := fkSchema(t)
	st, err := Create(dir, n, storage.Open(sch), opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// keysOnShards returns (a, b): two parent keys owned by different
// shards under m.
func keysOnShards(t *testing.T, st *Store) (int64, int64) {
	t.Helper()
	sch := st.DB().Schema()
	p := sch.Relation("P")
	for b := int64(1); b < 500; b++ {
		if st.Map().Of(pt(t, p, b, "u")) != st.Map().Of(pt(t, p, 0, "u")) {
			return 0, b
		}
	}
	t.Fatal("no cross-shard key pair found")
	return 0, 0
}

// How far commit takes a cross-shard translation through the two-phase
// journal protocol before the test "crashes".
const (
	prepared = iota // prepare records durable, no decision: in doubt
	decided         // decision durable on the coordinator, no resolve markers
	resolved        // the whole protocol
)

// commit lands tr on a live store the way the engine's lanes do, but
// straight-line: memory first, then the journal — translation+commit on
// a single participant; across several, a prepare record on each, the
// decision on the coordinator and the resolve markers, cut short at
// upTo. It is how these tests build on-disk states; the protocol itself
// (ordering, failpoints, acks) is the lanes' and is tested there.
func commit(t *testing.T, st *Store, tr *update.Translation, upTo int) {
	t.Helper()
	route, err := Classify(st.Map(), st.DB().Schema(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DB().Apply(tr); err != nil {
		t.Fatal(err)
	}
	xid := st.NextSeq()
	journal := func(i int, recs ...wal.Record) {
		t.Helper()
		if _, err := st.AppendBatch(i, recs); err != nil {
			t.Fatal(err)
		}
	}
	if !route.Cross() {
		journal(route.Home(), persist.EncodeBatchRecords(xid, tr)...)
		return
	}
	for _, p := range route.Participants {
		journal(p, wal.PrepareRecord(xid, "", route.Home(), route.Parts[p]))
	}
	if upTo >= decided {
		journal(route.Home(), wal.DecisionRecord(xid))
	}
	if upTo >= resolved {
		for _, p := range route.Participants {
			journal(p, wal.ResolveRecord(xid))
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t, dir, 4, Options{Sync: wal.SyncOnCommit})
	sch := st.DB().Schema()
	p, c := sch.Relation("P"), sch.Relation("C")
	a, b := keysOnShards(t, st)
	// Single-shard commit, then a cross-shard commit (two parents on
	// different shards plus a child referencing one of them).
	commit(t, st, update.NewTranslation(update.NewInsert(pt(t, p, a, "u"))), resolved)
	commit(t, st, update.NewTranslation(
		update.NewInsert(pt(t, p, b, "v")),
		update.NewInsert(ct(t, c, 7, a)),
	), resolved)
	want := render(st.DB())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Open(dir, 0, Options{Sync: wal.SyncOnCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := render(rec.DB()); got != want {
		t.Fatalf("recovered state\n  %s\nwant\n  %s", got, want)
	}
	checkPartition(t, rec)
	if rec.N() != 4 {
		t.Fatalf("recovered %d shards, want 4", rec.N())
	}
	rep := rec.Report()
	if rep.PreparesAborted != 0 || rep.Discarded != 0 || rep.OrphansPruned != 0 {
		t.Fatalf("clean shutdown report: %s", rep)
	}
	if rep.MaxSeq != 2 || rec.Seq() != 2 {
		t.Fatalf("recovered seq %d (report max %d), want 2", rec.Seq(), rep.MaxSeq)
	}
	if err := rec.DB().CheckAllInclusions(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenShardCountMismatch(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t, dir, 4, Options{})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 3, Options{}); err == nil {
		t.Fatal("opening a 4-shard store with -shards 3 should fail")
	}
	if _, err := Open(t.TempDir(), 4, Options{}); !errors.Is(err, persist.ErrNoStore) {
		t.Fatalf("opening an empty dir: %v, want ErrNoStore", err)
	}
}

func TestCheckpointFoldsLogs(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t, dir, 4, Options{Sync: wal.SyncOnCommit})
	sch := st.DB().Schema()
	p := sch.Relation("P")
	a, b := keysOnShards(t, st)
	commit(t, st, update.NewTranslation(
		update.NewInsert(pt(t, p, a, "u")), update.NewInsert(pt(t, p, b, "u")),
	), resolved)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint commit, recovered from the fresh logs.
	commit(t, st, update.NewTranslation(update.NewInsert(pt(t, p, a+b+1, "v"))), resolved)
	want := render(st.DB())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := render(rec.DB()); got != want {
		t.Fatalf("recovered %s, want %s", got, want)
	}
	rep := rec.Report()
	if rep.Replayed != 1 || rep.Skipped != 0 {
		t.Fatalf("report after checkpoint: %s, want 1 replayed (the post-checkpoint commit)", rep)
	}
	if rec.Seq() != 2 {
		t.Fatalf("recovered seq %d, want 2 (checkpoint watermark covers seq 1)", rec.Seq())
	}
	checkPartition(t, rec)
}

// appendRecords writes raw records to shard i's WAL of a closed store —
// the test's scalpel for constructing exact crash states.
func appendRecords(t *testing.T, dir string, i int, recs ...wal.Record) {
	t.Helper()
	log, _, err := wal.OpenFile(filepath.Join(shardDir(dir, i), persist.WALFile), wal.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWatermarkSkip pins the crash-during-checkpoint window where a
// shard's snapshot is fresh but its WAL was not yet truncated: records
// at or below the snapshot watermark must be skipped, not re-applied.
func TestWatermarkSkip(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t, dir, 4, Options{Sync: wal.SyncOnCommit})
	p := st.DB().Schema().Relation("P")
	commit(t, st, update.NewTranslation(update.NewInsert(pt(t, p, 1, "u"))), resolved)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := render(st.DB())
	home := st.Map().Of(pt(t, p, 1, "u"))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-append the already-snapshotted commit (seq 1 <= watermark 1).
	// Without the skip, replay would hit a duplicate-key violation.
	tr := update.NewTranslation(update.NewInsert(pt(t, p, 1, "u")))
	appendRecords(t, dir, home, wal.EncodeTranslationKeyed(1, "", tr), wal.CommitRecord(1))
	rec, err := Open(dir, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	rep := rec.Report()
	if rep.Skipped != 1 || rep.Replayed != 0 {
		t.Fatalf("report: %s, want 1 skipped 0 replayed", rep)
	}
	if got := render(rec.DB()); got != want {
		t.Fatalf("recovered %s, want %s", got, want)
	}
}

// TestRecoveryMatrix drives the 2PC recovery decision table record by
// record: a prepare with a resolve marker commits, a prepare with a
// decision on another shard's log commits, and an in-doubt prepare
// (neither) rolls back under presumed abort.
func TestRecoveryMatrix(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t, dir, 4, Options{Sync: wal.SyncOnCommit})
	p := st.DB().Schema().Relation("P")
	a, b := keysOnShards(t, st)
	sa, sb := st.Map().Of(pt(t, p, a, "u")), st.Map().Of(pt(t, p, b, "u"))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	mk := func(k int64) *update.Translation {
		return update.NewTranslation(update.NewInsert(pt(t, p, k, "u")))
	}
	// xid 1: cross-shard commit fully decided — resolve on sa, decision
	// on coordinator sa reaches sb's prepare through the decision table.
	appendRecords(t, dir, sa,
		wal.PrepareRecord(1, "", sa, mk(a)),
		wal.DecisionRecord(1),
		wal.ResolveRecord(1))
	appendRecords(t, dir, sb,
		wal.PrepareRecord(1, "", sa, mk(b)))
	// xid 2: in-doubt — prepare durable on sb, crash before decision.
	appendRecords(t, dir, sb,
		wal.PrepareRecord(2, "", sb, mk(b+sbDistinct(t, st, b))))

	rec, err := Open(dir, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	rep := rec.Report()
	if rep.PreparesCommitted != 2 || rep.PreparesAborted != 1 {
		t.Fatalf("report: %s, want 2 prepares committed, 1 aborted", rep)
	}
	// The reopened store rebuilt its relations from the snapshots, so
	// probe tuples must be built against the recovered schema.
	rp := rec.DB().Schema().Relation("P")
	if !rec.DB().Contains(pt(t, rp, a, "u")) || !rec.DB().Contains(pt(t, rp, b, "u")) {
		t.Fatal("decided cross-shard commit lost")
	}
	if len(rec.DB().Tuples("P")) != 2 {
		t.Fatalf("in-doubt prepare leaked: P holds %v", rec.DB().Tuples("P"))
	}
	if rec.Seq() != 2 {
		t.Fatalf("recovered seq %d, want 2 (aborted xids stay burned)", rec.Seq())
	}
	checkPartition(t, rec)
}

// sbDistinct returns an offset o such that key b+o still lands on b's
// shard (so the in-doubt prepare in the matrix test stays on sb) and
// differs from every key already used.
func sbDistinct(t *testing.T, st *Store, b int64) int64 {
	t.Helper()
	p := st.DB().Schema().Relation("P")
	home := st.Map().Of(pt(t, p, b, "u"))
	for o := int64(1); b+o < 999; o++ {
		if st.Map().Of(pt(t, p, b+o, "u")) == home {
			return o
		}
	}
	t.Fatal("no colocated key found")
	return 0
}

// TestOrphanPrune pins the fence's failure mode repair: a durable child
// whose parent insert was applied on another shard but never became
// durable must be pruned at recovery, leaving a consistent state.
func TestOrphanPrune(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t, dir, 4, Options{Sync: wal.SyncOnCommit})
	sch := st.DB().Schema()
	c := sch.Relation("C")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A committed child insert referencing parent key 77 — which exists
	// nowhere (its shard lost the unsynced parent in the crash).
	child := ct(t, c, 5, 77)
	home := st.Map().Of(child)
	appendRecords(t, dir, home,
		wal.EncodeTranslationKeyed(1, "", update.NewTranslation(update.NewInsert(child))),
		wal.CommitRecord(1))
	rec, err := Open(dir, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Report().OrphansPruned != 1 {
		t.Fatalf("report: %s, want 1 orphan pruned", rec.Report())
	}
	if len(rec.DB().Tuples("C")) != 0 {
		t.Fatal("orphaned child survived recovery")
	}
	if err := rec.DB().CheckAllInclusions(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashInsidePrepareWindow is the store-level acked-implies-durable
// property, on the two crash states inside the two-phase window of a
// live store. A crash after the prepare barrier but before the decision
// (no client was acknowledged) must presume abort for the durable
// prepares; a crash after the decision but before the resolve markers
// (the client may have been acknowledged) must commit them through the
// coordinator's decision.
func TestCrashInsidePrepareWindow(t *testing.T) {
	for _, tc := range []struct {
		name               string
		upTo               int
		committed, aborted int
	}{
		{"prepared-undecided", prepared, 0, 2},
		{"decided-unresolved", decided, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := newTestStore(t, dir, 4, Options{Sync: wal.SyncOnCommit})
			p := st.DB().Schema().Relation("P")
			a, b := keysOnShards(t, st)
			baseline := render(st.DB())
			commit(t, st, update.NewTranslation(
				update.NewInsert(pt(t, p, a, "u")), update.NewInsert(pt(t, p, b, "u")),
			), tc.upTo)
			want := baseline
			if tc.committed > 0 {
				want = render(st.DB())
			}
			// The crash: memory (ahead of the journals when undecided) is lost.
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			rec, err := Open(dir, 4, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			if rep := rec.Report(); rep.PreparesCommitted != tc.committed || rep.PreparesAborted != tc.aborted {
				t.Fatalf("report: %s, want %d prepares committed, %d presumed aborted", rep, tc.committed, tc.aborted)
			}
			if got := render(rec.DB()); got != want {
				t.Fatalf("recovered %s, want %s", got, want)
			}
		})
	}
}

// TestBrokenShardDegrades pins the journaling-failure contract: the
// failing append reports its error and marks the lane broken, later
// appends on it fail fast, commits on healthy lanes keep working,
// checkpoint refuses, and a restart recovers the durable prefix.
func TestBrokenShardDegrades(t *testing.T) {
	dir := t.TempDir()
	sch, _, _ := fkSchema(t)
	probe, err := Create(dir, 4, storage.Open(sch), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := probe.DB().Schema().Relation("P")
	a, b := keysOnShards(t, probe)
	victim := probe.Map().Of(pt(t, p, a, "u"))
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := Open(dir, 4, Options{Sync: wal.SyncOnCommit, WrapWAL: func(i int, f wal.File) wal.File {
		if i == victim {
			return &faultinject.CrashWriter{W: f, Limit: 0}
		}
		return f
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The reopened store rebuilt its relations from the snapshots.
	p = st.DB().Schema().Relation("P")
	onVictim := func(v string) []wal.Record {
		return persist.EncodeBatchRecords(st.NextSeq(), update.NewTranslation(update.NewInsert(pt(t, p, a, v))))
	}
	// Healthy shard commits fine.
	commit(t, st, update.NewTranslation(update.NewInsert(pt(t, p, b, "u"))), resolved)
	// Victim shard: the first write crashes.
	if _, err := st.AppendBatch(victim, onVictim("u")); !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("append on crashed shard: %v, want the media failure", err)
	}
	if st.Broken(victim) == nil || st.BrokenAny() == nil {
		t.Fatal("victim shard not marked broken")
	}
	// Fail-fast on the broken shard, healthy shards still commit.
	if _, err := st.AppendBatch(victim, onVictim("v")); err == nil {
		t.Fatal("append on broken shard should fail fast")
	}
	commit(t, st, update.NewTranslation(update.NewInsert(pt(t, p, b+sbDistinct(t, st, b), "u"))), resolved)
	if err := st.Checkpoint(); err == nil {
		t.Fatal("checkpoint on a broken fleet should refuse")
	}
	want := render(st.DB())
	st.Close()

	rec, err := Open(dir, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := render(rec.DB()); got != want {
		t.Fatalf("recovered %s, want the committed prefix %s", got, want)
	}
}

// TestRecoveredKeys checks idempotency-key recovery merges every lane's
// keys into commit order, across both plain commits and resolved
// prepares — even when the later commit sits on the lower lane.
func TestRecoveredKeys(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t, dir, 2, Options{})
	p := st.DB().Schema().Relation("P")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var k0, k1 int64 = -1, -1
	for k := int64(0); k < 500 && (k0 < 0 || k1 < 0); k++ {
		if st.Map().Of(pt(t, p, k, "u")) == 0 && k0 < 0 {
			k0 = k
		} else if st.Map().Of(pt(t, p, k, "u")) == 1 && k1 < 0 {
			k1 = k
		}
	}
	appendRecords(t, dir, 0,
		wal.EncodeTranslationKeyed(2, "beta", update.NewTranslation(update.NewInsert(pt(t, p, k0, "u")))),
		wal.CommitRecord(2))
	appendRecords(t, dir, 1,
		wal.PrepareRecord(1, "alpha", 1, update.NewTranslation(update.NewInsert(pt(t, p, k1, "u")))),
		wal.ResolveRecord(1))
	rec, err := Open(dir, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if keys := rec.RecoveredKeys(); len(keys) != 2 || keys[0] != "alpha" || keys[1] != "beta" {
		t.Fatalf("recovered keys = %v, want [alpha beta]", keys)
	}
}
