package wal

import (
	"bytes"
	"slices"
	"testing"

	"viewupdate/internal/update"
)

// TestPrepareRecordRoundTrip checks that a prepare record journals its
// translation slice, idempotency key and coordinator shard, and that
// DecodeTranslation accepts it.
func TestPrepareRecordRoundTrip(t *testing.T) {
	sch, p := testSchema(t)
	mem := &MemFile{}
	log := New(mem, SyncNever)
	want := update.NewTranslation(update.NewInsert(pt(t, p, 7, "v")))
	if err := log.Append(PrepareRecord(42, "key-7", 3, want)); err != nil {
		t.Fatal(err)
	}
	res, err := Scan(bytes.NewReader(mem.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Records[0]
	if rec.Kind != KindPrepare || rec.Seq != 42 || rec.Key != "key-7" || rec.Coord != 3 {
		t.Fatalf("prepare record = %+v", rec)
	}
	got, err := DecodeTranslation(sch, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("decoded %s, want %s", got, want)
	}
}

// TestSyncOnCommitBarriers pins which record kinds act as durability
// points under SyncOnCommit: commits, prepares and decisions do;
// translations and resolve markers do not.
func TestSyncOnCommitBarriers(t *testing.T) {
	_, p := testSchema(t)
	tr := update.NewTranslation(update.NewInsert(pt(t, p, 1, "u")))
	cases := []struct {
		name  string
		rec   Record
		syncs int
	}{
		{"translation", EncodeTranslationKeyed(1, "", tr), 0},
		{"commit", CommitRecord(1), 1},
		{"prepare", PrepareRecord(2, "", 0, tr), 1},
		{"decision", DecisionRecord(2), 1},
		{"resolve", ResolveRecord(2), 0},
	}
	for _, tc := range cases {
		mem := &MemFile{}
		log := New(mem, SyncOnCommit)
		if err := log.Append(tc.rec); err != nil {
			t.Fatal(err)
		}
		if mem.Syncs() != tc.syncs {
			t.Errorf("%s: Append synced %d times, want %d", tc.name, mem.Syncs(), tc.syncs)
		}
		mem2 := &MemFile{}
		log2 := New(mem2, SyncOnCommit)
		stats, err := log2.AppendBatchStats([]Record{tc.rec})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Synced != (tc.syncs > 0) || mem2.Syncs() != tc.syncs {
			t.Errorf("%s: batch synced=%v (%d syncs), want %d", tc.name, stats.Synced, mem2.Syncs(), tc.syncs)
		}
	}
}

// scanLog appends recs to a fresh in-memory log and scans it back.
func scanLog(t *testing.T, recs ...Record) *ScanResult {
	t.Helper()
	mem := &MemFile{}
	if err := New(mem, SyncNever).AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	res, err := Scan(bytes.NewReader(mem.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func seqsOf(recs []Record) []uint64 {
	var seqs []uint64
	for _, rec := range recs {
		seqs = append(seqs, rec.Seq)
	}
	return seqs
}

// TestCommittedWithResolvesPrepares covers the 2PC recovery matrix at
// the log level: a prepare followed by a resolve marker commits, a
// prepare whose seq has a decision on another log commits, and an
// in-doubt prepare (neither) is presumed aborted. Ordinary
// translation+commit pairs keep working alongside.
func TestCommittedWithResolvesPrepares(t *testing.T) {
	_, p := testSchema(t)
	mk := func(k int64) *update.Translation {
		return update.NewTranslation(update.NewInsert(pt(t, p, k, "u")))
	}
	res := scanLog(t,
		// seq 1: plain committed translation.
		EncodeTranslationKeyed(1, "", mk(1)), CommitRecord(1),
		// seq 2: prepare resolved in place.
		PrepareRecord(2, "", 0, mk(2)), ResolveRecord(2),
		// seq 3: prepare resolved by the coordinator's decision.
		PrepareRecord(3, "", 1, mk(3)),
		// seq 4: in-doubt prepare — no resolve, no decision.
		PrepareRecord(4, "", 1, mk(4)),
		// seq 5: uncommitted translation.
		EncodeTranslationKeyed(5, "", mk(5)))
	coord := scanLog(t, DecisionRecord(3))

	ra := Reassemble([]*ScanResult{res, coord}, []uint64{0, 0})
	if ra.Discarded != 1 || ra.InDoubt != 1 || ra.PreparesCommitted != 2 {
		t.Fatalf("discarded=%d inDoubt=%d preparesCommitted=%d, want 1, 1 and 2",
			ra.Discarded, ra.InDoubt, ra.PreparesCommitted)
	}
	if seqs := seqsOf(ra.Records); !slices.Equal(seqs, []uint64{1, 2, 3}) {
		t.Fatalf("committed seqs = %v, want [1 2 3]", seqs)
	}
	for _, rec := range ra.Records {
		if rec.Kind != KindTranslation {
			t.Fatalf("reassembled seq %d has kind %d, want a translation", rec.Seq, rec.Kind)
		}
	}
}

// TestDecisionsCollectsSeqs: the decision set is collected across every
// log — prepares on one log commit by decisions on another, and a
// prepare without one stays in doubt.
func TestDecisionsCollectsSeqs(t *testing.T) {
	_, p := testSchema(t)
	mk := func(k int64) *update.Translation {
		return update.NewTranslation(update.NewInsert(pt(t, p, k, "u")))
	}
	coord := scanLog(t, DecisionRecord(9), DecisionRecord(11))
	part := scanLog(t, PrepareRecord(9, "", 0, mk(9)), PrepareRecord(10, "", 0, mk(10)), PrepareRecord(11, "", 0, mk(11)))
	ra := Reassemble([]*ScanResult{coord, part}, []uint64{0, 0})
	if seqs := seqsOf(ra.Records); !slices.Equal(seqs, []uint64{9, 11}) || ra.InDoubt != 1 {
		t.Fatalf("committed %v with %d in doubt, want [9 11] and 1", seqs, ra.InDoubt)
	}
}

// TestReassembleFoldsAndFloors pins the global order across logs: the
// parts of a cross-shard commit fold into one translation record (ops
// in log order, the home part's key), a commit on a later log can
// precede one on an earlier log, records at or below their log's floor
// are dropped before folding — a cross-shard commit half below a
// mixed checkpoint replays only its missing part — and every committed
// key comes back in seq order, the dropped ones too.
func TestReassembleFoldsAndFloors(t *testing.T) {
	_, p := testSchema(t)
	mk := func(k int64) *update.Translation {
		return update.NewTranslation(update.NewInsert(pt(t, p, k, "u")))
	}
	log0 := scanLog(t,
		PrepareRecord(2, "", 1, mk(20)), // not the home part: no key
		EncodeTranslationKeyed(3, "c", mk(3)), CommitRecord(3),
		PrepareRecord(4, "", 1, mk(40)), ResolveRecord(4))
	log1 := scanLog(t,
		EncodeTranslationKeyed(1, "a", mk(1)), CommitRecord(1),
		PrepareRecord(2, "b", 1, mk(21)), DecisionRecord(2), ResolveRecord(2),
		PrepareRecord(4, "d", 1, mk(41)), DecisionRecord(4))

	ra := Reassemble([]*ScanResult{log0, log1}, []uint64{0, 0})
	if seqs := seqsOf(ra.Records); !slices.Equal(seqs, []uint64{1, 2, 3, 4}) {
		t.Fatalf("seqs = %v, want [1 2 3 4]", seqs)
	}
	x := ra.Records[1]
	if x.Kind != KindTranslation || x.Key != "b" || len(x.Ops) != 2 || !slices.Equal(x.Ops[0].Vals, encodeVals(pt(t, p, 20, "u"))) {
		t.Fatalf("folded seq 2 = %+v, want one translation, key b, log 0's op first", x)
	}
	if ra.Parts != 6 || ra.PreparesCommitted != 4 || ra.Skipped != 0 {
		t.Fatalf("parts=%d preparesCommitted=%d skipped=%d, want 6, 4 and 0", ra.Parts, ra.PreparesCommitted, ra.Skipped)
	}
	if !slices.Equal(ra.Keys, []string{"a", "b", "c", "d"}) {
		t.Fatalf("keys = %v, want [a b c d]", ra.Keys)
	}

	// Log 0 checkpointed through seq 3, log 1 did not: seq 2 replays
	// only log 1's part, seq 3 not at all, seq 4 both parts.
	ra = Reassemble([]*ScanResult{log0, log1}, []uint64{3, 0})
	if seqs := seqsOf(ra.Records); !slices.Equal(seqs, []uint64{1, 2, 4}) {
		t.Fatalf("floored seqs = %v, want [1 2 4]", seqs)
	}
	if len(ra.Records[1].Ops) != 1 || ra.Records[1].Key != "b" || len(ra.Records[2].Ops) != 2 {
		t.Fatalf("floored records = %+v", ra.Records)
	}
	if ra.Skipped != 2 || ra.Parts != 4 || !slices.Equal(ra.Keys, []string{"a", "b", "c", "d"}) {
		t.Fatalf("skipped=%d parts=%d keys=%v, want 2, 4 and [a b c d]", ra.Skipped, ra.Parts, ra.Keys)
	}
}
