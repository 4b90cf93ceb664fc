package wal

import (
	"bytes"
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

// TestCommittedWithResolvesPrepares covers the 2PC recovery matrix at
// the log level: a prepare followed by a resolve marker commits, a
// prepare whose seq is in the cross-shard decision set commits, and an
// in-doubt prepare (neither) is presumed aborted. Ordinary
// translation+commit pairs keep working alongside.
func TestCommittedWithResolvesPrepares(t *testing.T) {
	_, p := testSchema(t)
	mem := &MemFile{}
	log := New(mem, SyncNever)
	mk := func(k int64) *update.Translation {
		return update.NewTranslation(update.NewInsert(pt(t, p, k, "u")))
	}
	// seq 1: plain committed translation.
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(log.Append(EncodeTranslationKeyed(1, "", mk(1))))
	must(log.Append(CommitRecord(1)))
	// seq 2: prepare resolved in place.
	must(log.Append(PrepareRecord(2, "", 0, mk(2))))
	must(log.Append(ResolveRecord(2)))
	// seq 3: prepare resolved by remote decision.
	must(log.Append(PrepareRecord(3, "", 1, mk(3))))
	// seq 4: in-doubt prepare — no resolve, no decision.
	must(log.Append(PrepareRecord(4, "", 1, mk(4))))
	// seq 5: uncommitted translation.
	must(log.Append(EncodeTranslationKeyed(5, "", mk(5))))

	res, err := Scan(bytes.NewReader(mem.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	committed, discarded, inDoubt := res.CommittedWith(map[uint64]bool{3: true})
	if discarded != 1 || inDoubt != 1 {
		t.Fatalf("discarded=%d inDoubt=%d, want 1 and 1", discarded, inDoubt)
	}
	var seqs []uint64
	for _, rec := range committed {
		seqs = append(seqs, rec.Seq)
	}
	if len(seqs) != 3 || seqs[0] != 1 || seqs[1] != 2 || seqs[2] != 3 {
		t.Fatalf("committed seqs = %v, want [1 2 3]", seqs)
	}
}

// TestDecisionsCollectsSeqs checks the decision-set scan helper.
func TestDecisionsCollectsSeqs(t *testing.T) {
	mem := &MemFile{}
	log := New(mem, SyncNever)
	if err := log.Append(DecisionRecord(9)); err != nil {
		t.Fatal(err)
	}
	if err := log.Append(DecisionRecord(11)); err != nil {
		t.Fatal(err)
	}
	res, err := Scan(bytes.NewReader(mem.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d := res.Decisions()
	if len(d) != 2 || !d[9] || !d[11] {
		t.Fatalf("decisions = %v", d)
	}
}
