package wal

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"viewupdate/internal/faultinject"
	"viewupdate/internal/schema"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
)

func testSchema(t *testing.T) (*schema.Database, *schema.Relation) {
	t.Helper()
	dk, err := schema.IntRangeDomain("K", 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := schema.StringDomain("V", "u", "v", "w")
	if err != nil {
		t.Fatal(err)
	}
	p := schema.MustRelation("P",
		[]schema.Attribute{{Name: "K", Domain: dk}, {Name: "V", Domain: dv}},
		[]string{"K"})
	sch := schema.NewDatabase()
	if err := sch.AddRelation(p); err != nil {
		t.Fatal(err)
	}
	return sch, p
}

func pt(t *testing.T, p *schema.Relation, k int64, v string) tuple.T {
	t.Helper()
	tp, err := tuple.New(p, value.NewInt(k), value.NewString(v))
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// reassembleOne reassembles a single log with no floor: its committed
// records in seq order, and how many translation records lacked a
// commit marker.
func reassembleOne(res *ScanResult) ([]Record, int) {
	ra := Reassemble([]*ScanResult{res}, []uint64{0})
	return ra.Records, ra.Discarded
}

// appendWorkload appends n committed translations (each inserting tuple
// k=i) plus one trailing uncommitted translation, returning the raw log
// image.
func appendWorkload(t *testing.T, p *schema.Relation, n int) []byte {
	t.Helper()
	mem := &MemFile{}
	log := New(mem, SyncOnCommit)
	for i := 0; i < n; i++ {
		tr := update.NewTranslation(update.NewInsert(pt(t, p, int64(i), "u")))
		if err := log.Append(EncodeTranslationKeyed(uint64(i+1), "", tr)); err != nil {
			t.Fatal(err)
		}
		if err := log.Append(CommitRecord(uint64(i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	// One translation that never committed: recovery must skip it.
	tr := update.NewTranslation(update.NewInsert(pt(t, p, int64(n), "w")))
	if err := log.Append(EncodeTranslationKeyed(uint64(n+1), "", tr)); err != nil {
		t.Fatal(err)
	}
	return mem.Bytes()
}

func TestRoundTrip(t *testing.T) {
	sch, p := testSchema(t)
	raw := appendWorkload(t, p, 3)

	res, err := Scan(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn() {
		t.Fatalf("clean log reported torn at %d: %s", res.TornAt, res.Reason)
	}
	if len(res.Records) != 7 { // 3 × (tr + commit) + 1 uncommitted
		t.Fatalf("scanned %d records, want 7", len(res.Records))
	}
	committed, discarded := reassembleOne(res)
	if len(committed) != 3 || discarded != 1 {
		t.Fatalf("committed=%d discarded=%d, want 3 and 1", len(committed), discarded)
	}
	if got := res.MaxSeq(); got != 4 {
		t.Fatalf("MaxSeq = %d, want 4", got)
	}
	for i, rec := range committed {
		tr, err := DecodeTranslation(sch, rec)
		if err != nil {
			t.Fatal(err)
		}
		want := update.NewTranslation(update.NewInsert(pt(t, p, int64(i), "u")))
		if !tr.Equal(want) {
			t.Fatalf("record %d decoded to %s, want %s", i, tr, want)
		}
	}
}

func TestReplaceOpRoundTrip(t *testing.T) {
	sch, p := testSchema(t)
	mem := &MemFile{}
	log := New(mem, SyncNever)
	want := update.NewTranslation(update.NewReplace(pt(t, p, 1, "u"), pt(t, p, 1, "v")))
	if err := log.Append(EncodeTranslationKeyed(1, "", want)); err != nil {
		t.Fatal(err)
	}
	res, err := Scan(bytes.NewReader(mem.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTranslation(sch, res.Records[0])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("decoded %s, want %s", got, want)
	}
}

// TestTornTailEveryOffset is the package-level half of the crash-safety
// property: truncating the log at EVERY byte offset yields a clean
// prefix of whole records and a torn offset that equals the byte length
// of that prefix — re-scanning the truncated-at-TornAt image must be
// clean.
func TestTornTailEveryOffset(t *testing.T) {
	_, p := testSchema(t)
	raw := appendWorkload(t, p, 3)

	full, err := Scan(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c <= len(raw); c++ {
		res, err := Scan(bytes.NewReader(raw[:c]))
		if err != nil {
			t.Fatalf("cut %d: %v", c, err)
		}
		if len(res.Records) > len(full.Records) {
			t.Fatalf("cut %d: more records than the full log", c)
		}
		for i, rec := range res.Records {
			if rec.Seq != full.Records[i].Seq || rec.Kind != full.Records[i].Kind {
				t.Fatalf("cut %d: record %d differs from full log", c, i)
			}
		}
		if res.Torn() {
			if res.TornAt < 0 || res.TornAt > int64(c) {
				t.Fatalf("cut %d: torn offset %d out of range", c, res.TornAt)
			}
			again, err := Scan(bytes.NewReader(raw[:res.TornAt]))
			if err != nil {
				t.Fatalf("cut %d: rescan: %v", c, err)
			}
			if again.Torn() {
				t.Fatalf("cut %d: truncation to TornAt=%d still torn: %s",
					c, res.TornAt, again.Reason)
			}
			if len(again.Records) != len(res.Records) {
				t.Fatalf("cut %d: truncated log has %d records, scan saw %d",
					c, len(again.Records), len(res.Records))
			}
		} else if c == len(raw) && len(res.Records) != len(full.Records) {
			t.Fatalf("full image lost records")
		}
	}
}

// TestBitCorruptionDetected flips one bit at every payload byte offset
// and checks the checksum catches it: the scan stops at or before the
// corrupted frame and never returns a record differing from the
// original log.
func TestBitCorruptionDetected(t *testing.T) {
	_, p := testSchema(t)
	raw := appendWorkload(t, p, 2)
	full, err := Scan(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(raw); off++ {
		mem := &MemFile{}
		cw := &faultinject.CorruptWriter{W: mem, Offset: int64(off), Mask: 0x04}
		if _, err := cw.Write(raw); err != nil {
			t.Fatal(err)
		}
		res, err := Scan(bytes.NewReader(mem.Bytes()))
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		for i, rec := range res.Records {
			if rec.Seq != full.Records[i].Seq || rec.Kind != full.Records[i].Kind ||
				len(rec.Ops) != len(full.Records[i].Ops) {
				t.Fatalf("offset %d: corrupted record %d surfaced as clean", off, i)
			}
			for j, op := range rec.Ops {
				w := full.Records[i].Ops[j]
				if op.Kind != w.Kind || op.Rel != w.Rel ||
					fmt.Sprint(op.Vals, op.Old, op.New) != fmt.Sprint(w.Vals, w.Old, w.New) {
					t.Fatalf("offset %d: corrupted op %d.%d surfaced as clean", off, i, j)
				}
			}
		}
		if !res.Torn() {
			t.Fatalf("offset %d: corruption not detected", off)
		}
	}
}

func TestSyncPolicies(t *testing.T) {
	_, p := testSchema(t)
	tr := update.NewTranslation(update.NewInsert(pt(t, p, 1, "u")))
	for _, tc := range []struct {
		policy SyncPolicy
		want   int // syncs after tr-record + commit-record
	}{
		{SyncNever, 0},
		{SyncOnCommit, 1},
		{SyncAlways, 2},
	} {
		mem := &MemFile{}
		log := New(mem, tc.policy)
		if err := log.Append(EncodeTranslationKeyed(1, "", tr)); err != nil {
			t.Fatal(err)
		}
		if err := log.Append(CommitRecord(1)); err != nil {
			t.Fatal(err)
		}
		if mem.Syncs() != tc.want {
			t.Fatalf("%s: %d syncs, want %d", tc.policy, mem.Syncs(), tc.want)
		}
	}
	// Round-trip of the policy names.
	for _, p := range []SyncPolicy{SyncOnCommit, SyncAlways, SyncNever} {
		got, err := ParseSyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("ParseSyncPolicy should reject unknown names")
	}
}

func TestAppendFaultInjection(t *testing.T) {
	_, p := testSchema(t)
	mem := &MemFile{}
	log := New(mem, SyncNever)
	faultinject.Enable(faultinject.NewPlan(1).
		FailNth(faultinject.SiteWALAppend, 1, errors.New("boom")))
	defer faultinject.Disable()
	tr := update.NewTranslation(update.NewInsert(pt(t, p, 1, "u")))
	if err := log.Append(EncodeTranslationKeyed(1, "", tr)); err == nil {
		t.Fatal("injected append fault did not surface")
	}
	if len(mem.Bytes()) != 0 {
		t.Fatal("failed append reached the media")
	}
	if err := log.Append(EncodeTranslationKeyed(1, "", tr)); err != nil {
		t.Fatalf("second append: %v", err)
	}
}

// shortWriter fails its failNth-th Write after persisting only half the
// bytes — the prefix a real write(2) can leave behind — then recovers.
// Truncate and Sync come from the embedded MemFile.
type shortWriter struct {
	*MemFile
	failNth int
	calls   int
}

func (s *shortWriter) Write(p []byte) (int, error) {
	s.calls++
	if s.calls == s.failNth {
		n, _ := s.MemFile.Write(p[:len(p)/2])
		return n, errors.New("short write")
	}
	return s.MemFile.Write(p)
}

// TestAppendRepairsPartialWrite: a failed append that left half a frame
// on the media must not let the next append land after the garbage —
// the log truncates back to the last intact frame, so the image stays
// clean and later records remain reachable by Scan.
func TestAppendRepairsPartialWrite(t *testing.T) {
	_, p := testSchema(t)
	sw := &shortWriter{MemFile: &MemFile{}, failNth: 2}
	log := New(sw, SyncNever)
	tr := func(k int64) Record {
		return EncodeTranslationKeyed(uint64(k), "", update.NewTranslation(update.NewInsert(pt(t, p, k, "u"))))
	}
	if err := log.Append(tr(1)); err != nil {
		t.Fatal(err)
	}
	if err := log.Append(tr(2)); err == nil {
		t.Fatal("short write did not surface")
	}
	if log.Sealed() != nil {
		t.Fatalf("repairable media sealed the log: %v", log.Sealed())
	}
	if err := log.Append(tr(3)); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	res, err := Scan(bytes.NewReader(sw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn() {
		t.Fatalf("repaired log still torn at %d: %s", res.TornAt, res.Reason)
	}
	if len(res.Records) != 2 || res.Records[0].Seq != 1 || res.Records[1].Seq != 3 {
		t.Fatalf("scanned %+v, want seqs 1 and 3", res.Records)
	}
}

// noRepairFile is media that fails from its second write on and cannot
// truncate: the log must seal rather than append beyond possible
// garbage.
type noRepairFile struct{ calls int }

func (f *noRepairFile) Write(p []byte) (int, error) {
	f.calls++
	if f.calls >= 2 {
		return len(p) / 2, errors.New("media gone")
	}
	return len(p), nil
}

func (f *noRepairFile) Sync() error { return nil }

func TestAppendSealsWhenUnrepairable(t *testing.T) {
	_, p := testSchema(t)
	log := New(&noRepairFile{}, SyncNever)
	tr := update.NewTranslation(update.NewInsert(pt(t, p, 1, "u")))
	if err := log.Append(EncodeTranslationKeyed(1, "", tr)); err != nil {
		t.Fatal(err)
	}
	if err := log.Append(EncodeTranslationKeyed(2, "", tr)); err == nil {
		t.Fatal("failed write did not surface")
	}
	if log.Sealed() == nil {
		t.Fatal("unrepairable media must seal the log")
	}
	err := log.Append(EncodeTranslationKeyed(3, "", tr))
	if !errors.Is(err, ErrSealed) {
		t.Fatalf("append on sealed log = %v, want ErrSealed chain", err)
	}
	if err := log.Sync(); !errors.Is(err, ErrSealed) {
		t.Fatalf("sync on sealed log = %v, want ErrSealed chain", err)
	}
}

// syncFailFile writes fine but cannot provide a durability barrier.
type syncFailFile struct{ MemFile }

func (f *syncFailFile) Sync() error { return errors.New("barrier lost") }

// TestSyncFailureSealsLog: after a failed fsync the fate of every
// unsynced byte is unknown, so the log refuses further work instead of
// pretending the tail is durable.
func TestSyncFailureSealsLog(t *testing.T) {
	_, p := testSchema(t)
	log := New(&syncFailFile{}, SyncAlways)
	tr := update.NewTranslation(update.NewInsert(pt(t, p, 1, "u")))
	if err := log.Append(EncodeTranslationKeyed(1, "", tr)); err == nil {
		t.Fatal("failed sync did not surface")
	}
	if err := log.Append(EncodeTranslationKeyed(2, "", tr)); !errors.Is(err, ErrSealed) {
		t.Fatalf("append after failed sync = %v, want ErrSealed chain", err)
	}
}

func TestOpenFileAppendAndRescan(t *testing.T) {
	sch, p := testSchema(t)
	path := filepath.Join(t.TempDir(), "x.wal")
	log, size, err := OpenFile(path, SyncOnCommit)
	if err != nil {
		t.Fatal(err)
	}
	if size != 0 {
		t.Fatalf("fresh log has size %d", size)
	}
	tr := update.NewTranslation(update.NewInsert(pt(t, p, 1, "u")))
	if err := log.Append(EncodeTranslationKeyed(1, "", tr)); err != nil {
		t.Fatal(err)
	}
	if err := log.Append(CommitRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-open: size is nonzero, appends land after the old records.
	log, size, err = OpenFile(path, SyncOnCommit)
	if err != nil {
		t.Fatal(err)
	}
	if size == 0 {
		t.Fatal("reopened log lost its records")
	}
	tr2 := update.NewTranslation(update.NewDelete(pt(t, p, 1, "u")))
	if err := log.Append(EncodeTranslationKeyed(2, "", tr2)); err != nil {
		t.Fatal(err)
	}
	if err := log.Append(CommitRecord(2)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	committed, discarded := reassembleOne(res)
	if len(committed) != 2 || discarded != 0 {
		t.Fatalf("committed=%d discarded=%d, want 2 and 0", len(committed), discarded)
	}
	if _, err := DecodeTranslation(sch, committed[1]); err != nil {
		t.Fatal(err)
	}

	// A missing file scans as empty and clean.
	res, err = ScanFile(filepath.Join(t.TempDir(), "absent.wal"))
	if err != nil || res.Torn() || len(res.Records) != 0 {
		t.Fatalf("missing file scan = %+v, %v", res, err)
	}
}

func TestDecodeRejectsSchemaMismatch(t *testing.T) {
	sch, _ := testSchema(t)
	for _, rec := range []Record{
		{Seq: 1, Kind: KindTranslation, Ops: []OpRecord{{Kind: "i", Rel: "NOPE", Vals: []string{"i1", `s"u"`}}}},
		{Seq: 1, Kind: KindTranslation, Ops: []OpRecord{{Kind: "i", Rel: "P", Vals: []string{"i1"}}}},
		{Seq: 1, Kind: KindTranslation, Ops: []OpRecord{{Kind: "i", Rel: "P", Vals: []string{"zz", `s"u"`}}}},
		{Seq: 1, Kind: KindTranslation, Ops: []OpRecord{{Kind: "x", Rel: "P", Vals: []string{"i1", `s"u"`}}}},
		{Seq: 1, Kind: KindCommit},
	} {
		if _, err := DecodeTranslation(sch, rec); err == nil {
			t.Fatalf("DecodeTranslation accepted bad record %+v", rec)
		}
	}
}

// FuzzScan feeds arbitrary bytes to the scanner: it must never panic,
// never return a hard error for in-memory input, and its reported torn
// offset must always be a clean re-scannable prefix length.
func FuzzScan(f *testing.F) {
	dk, _ := schema.IntRangeDomain("K", 0, 9)
	p := schema.MustRelation("P", []schema.Attribute{{Name: "K", Domain: dk}}, []string{"K"})
	mem := &MemFile{}
	log := New(mem, SyncNever)
	tp, _ := tuple.New(p, value.NewInt(1))
	_ = log.Append(EncodeTranslationKeyed(1, "", update.NewTranslation(update.NewInsert(tp))))
	_ = log.Append(CommitRecord(1))
	f.Add(mem.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := Scan(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("in-memory scan errored: %v", err)
		}
		if res.Torn() {
			if res.TornAt < 0 || res.TornAt > int64(len(data)) {
				t.Fatalf("torn offset %d out of [0,%d]", res.TornAt, len(data))
			}
			again, err := Scan(bytes.NewReader(data[:res.TornAt]))
			if err != nil || again.Torn() {
				t.Fatalf("prefix up to TornAt not clean: %+v, %v", again, err)
			}
		}
	})
}
