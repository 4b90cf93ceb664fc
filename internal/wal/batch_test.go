package wal

import (
	"bytes"
	"errors"
	"testing"

	"viewupdate/internal/faultinject"
	"viewupdate/internal/obs"
	"viewupdate/internal/update"
)

// batchOf builds n (translation, commit) record pairs with sequence
// numbers starting at seq.
func batchOf(t *testing.T, n int, seq uint64) []Record {
	t.Helper()
	_, p := testSchema(t)
	var recs []Record
	for i := 0; i < n; i++ {
		tr := update.NewTranslation(update.NewInsert(pt(t, p, int64(i), "u")))
		recs = append(recs, EncodeTranslationKeyed(seq+uint64(i), "", tr))
		recs = append(recs, CommitRecord(seq+uint64(i)))
	}
	return recs
}

// TestAppendBatchRoundTrip: a batch lands as consecutive frames that
// Scan reads back intact, indistinguishable from individual appends.
func TestAppendBatchRoundTrip(t *testing.T) {
	sch, _ := testSchema(t)
	mem := &MemFile{}
	log := New(mem, SyncOnCommit)
	if err := log.AppendBatch(batchOf(t, 3, 1)); err != nil {
		t.Fatal(err)
	}
	res, err := Scan(bytes.NewReader(mem.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn() {
		t.Fatalf("batch image torn at %d: %s", res.TornAt, res.Reason)
	}
	committed, discarded := reassembleOne(res)
	if len(committed) != 3 || discarded != 0 {
		t.Fatalf("committed=%d discarded=%d, want 3 and 0", len(committed), discarded)
	}
	for _, rec := range committed {
		if _, err := DecodeTranslation(sch, rec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendBatchOneSync is the group-commit property: a batch of n
// commits costs exactly one durability barrier under SyncOnCommit (and
// SyncAlways — the whole batch is one write), zero under SyncNever or
// when the batch holds no commit markers.
func TestAppendBatchOneSync(t *testing.T) {
	for _, tc := range []struct {
		policy  SyncPolicy
		commits bool
		want    int
	}{
		{SyncOnCommit, true, 1},
		{SyncOnCommit, false, 0},
		{SyncAlways, true, 1},
		{SyncAlways, false, 1},
		{SyncNever, true, 0},
	} {
		mem := &MemFile{}
		log := New(mem, tc.policy)
		recs := batchOf(t, 4, 1)
		if !tc.commits {
			var trOnly []Record
			for _, r := range recs {
				if r.Kind == KindTranslation {
					trOnly = append(trOnly, r)
				}
			}
			recs = trOnly
		}
		if err := log.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
		if mem.Syncs() != tc.want {
			t.Fatalf("%s commits=%v: %d syncs, want %d", tc.policy, tc.commits, mem.Syncs(), tc.want)
		}
	}
}

// TestAppendBatchEmpty: an empty batch touches nothing.
func TestAppendBatchEmpty(t *testing.T) {
	mem := &MemFile{}
	log := New(mem, SyncAlways)
	if err := log.AppendBatch(nil); err != nil {
		t.Fatal(err)
	}
	if len(mem.Bytes()) != 0 || mem.Syncs() != 0 {
		t.Fatal("empty batch reached the media")
	}
}

// TestAppendBatchTornEveryOffset cuts a batched image at every byte
// offset: recovery must always see a clean frame prefix, and every
// commit pair that is wholly before the cut survives — the batch's
// atomicity is per frame, with acked commits never beyond the tear.
func TestAppendBatchTornEveryOffset(t *testing.T) {
	mem := &MemFile{}
	log := New(mem, SyncNever)
	if err := log.AppendBatch(batchOf(t, 3, 1)); err != nil {
		t.Fatal(err)
	}
	raw := mem.Bytes()
	for c := 0; c <= len(raw); c++ {
		res, err := Scan(bytes.NewReader(raw[:c]))
		if err != nil {
			t.Fatalf("cut %d: %v", c, err)
		}
		committed, _ := reassembleOne(res)
		// Commit markers are frames 2,4,6 …: the committed prefix is
		// contiguous from seq 1.
		for i, rec := range committed {
			if rec.Seq != uint64(i+1) {
				t.Fatalf("cut %d: committed seqs %v not a prefix", c, committed)
			}
		}
	}
}

// TestAppendBatchRepairsFailedWrite: a batch write that persists only a
// prefix before failing is truncated away entirely — no half batch ever
// becomes readable, and the log keeps working.
func TestAppendBatchRepairsFailedWrite(t *testing.T) {
	sw := &shortWriter{MemFile: &MemFile{}, failNth: 2}
	log := New(sw, SyncNever)
	if err := log.AppendBatch(batchOf(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	intact := len(sw.Bytes())
	if err := log.AppendBatch(batchOf(t, 3, 2)); err == nil {
		t.Fatal("short batch write did not surface")
	}
	if log.Sealed() != nil {
		t.Fatalf("repairable media sealed the log: %v", log.Sealed())
	}
	if len(sw.Bytes()) != intact {
		t.Fatalf("failed batch left %d bytes, want %d", len(sw.Bytes()), intact)
	}
	if err := log.AppendBatch(batchOf(t, 2, 5)); err != nil {
		t.Fatalf("batch after repair: %v", err)
	}
	res, err := Scan(bytes.NewReader(sw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn() {
		t.Fatalf("repaired log torn at %d: %s", res.TornAt, res.Reason)
	}
	committed, _ := reassembleOne(res)
	if len(committed) != 3 {
		t.Fatalf("committed %d translations, want 3 (1 + 2, none from the failed batch)", len(committed))
	}
}

// TestAppendBatchSealed: a sealed log refuses batches too.
func TestAppendBatchSealed(t *testing.T) {
	log := New(&syncFailFile{}, SyncAlways)
	if err := log.AppendBatch(batchOf(t, 1, 1)); err == nil {
		t.Fatal("failed sync did not surface")
	}
	if err := log.AppendBatch(batchOf(t, 1, 2)); !errors.Is(err, ErrSealed) {
		t.Fatalf("batch on sealed log = %v, want ErrSealed chain", err)
	}
}

// TestAppendBatchFaultInjection: the batch path honours the WAL append
// failpoint, and a failed hit leaves no bytes behind.
func TestAppendBatchFaultInjection(t *testing.T) {
	mem := &MemFile{}
	log := New(mem, SyncNever)
	faultinject.Enable(faultinject.NewPlan(1).
		FailNth(faultinject.SiteWALAppend, 1, errors.New("boom")))
	defer faultinject.Disable()
	if err := log.AppendBatch(batchOf(t, 2, 1)); err == nil {
		t.Fatal("injected batch fault did not surface")
	}
	if len(mem.Bytes()) != 0 {
		t.Fatal("failed batch reached the media")
	}
	if err := log.AppendBatch(batchOf(t, 2, 1)); err != nil {
		t.Fatalf("second batch: %v", err)
	}
}

// TestAppendBatchStats: with instrumentation enabled, the batch append
// reports where its time went — the sync is timed and flagged, and the
// barrier lands in the wal.fsync.ns histogram. With instrumentation
// disabled the stats stay zero (the clock is never read on that path).
func TestAppendBatchStats(t *testing.T) {
	prev := obs.Active()
	s := obs.NewSink(nil)
	obs.Enable(s)
	defer obs.Enable(prev)

	mem := &MemFile{}
	log := New(mem, SyncOnCommit)
	stats, err := log.AppendBatchStats(batchOf(t, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Synced {
		t.Fatal("batch with commit markers under SyncOnCommit must sync")
	}
	if stats.WriteNS < 0 || stats.SyncNS < 0 {
		t.Fatalf("negative timings: write=%d sync=%d", stats.WriteNS, stats.SyncNS)
	}
	if got := s.Metrics().Histogram("wal.fsync.ns").Count(); got != 1 {
		t.Fatalf("wal.fsync.ns count = %d, want 1", got)
	}
	if got := s.Metrics().Counter("wal.append_batch").Value(); got != 1 {
		t.Fatalf("wal.append_batch = %d, want 1", got)
	}

	// Disabled: stats zero-valued except Synced, which reports the
	// durability fact regardless of instrumentation.
	obs.Enable(nil)
	stats, err = log.AppendBatchStats(batchOf(t, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Synced {
		t.Fatal("Synced must be reported even with instrumentation disabled")
	}
	if stats.WriteNS != 0 || stats.SyncNS != 0 {
		t.Fatalf("disabled instrumentation still timed: write=%d sync=%d", stats.WriteNS, stats.SyncNS)
	}
}
