package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"viewupdate/internal/faultinject"
	"viewupdate/internal/fixtures"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/vuerr"
	"viewupdate/internal/wal"
)

// crashWorkload returns a sequence of valid translations against the
// ABCXD paper instance, exercising inserts, deletes and replacements
// across the inclusion dependency CXD[X] ⊆ AB[A].
func crashWorkload(fx *fixtures.ABCXD) []*update.Translation {
	return []*update.Translation{
		update.NewTranslation( // referencing pair in one step
			update.NewInsert(fx.ABTuple("a1", 5)),
			update.NewInsert(fx.CXDTuple("c3", "a1", 7))),
		update.NewTranslation(update.NewDelete(fx.CXDTuple("c2", "a2", 4))),
		update.NewTranslation(update.NewReplace(fx.CXDTuple("c1", "a", 3), fx.CXDTuple("c1", "a1", 9))),
		update.NewTranslation(update.NewDelete(fx.ABTuple("a2", 2))),
		update.NewTranslation(update.NewInsert(fx.CXDTuple("c2", "a", 4))),
		update.NewTranslation(update.NewInsert(fx.ABTuple("a3", 8))),
		update.NewTranslation(update.NewReplace(fx.ABTuple("a3", 8), fx.ABTuple("a3", 9))),
		update.NewTranslation(update.NewDelete(fx.CXDTuple("c3", "a1", 7))),
	}
}

// runWorkload creates a store in dir, applies the workload, and returns
// the rendered state after the snapshot and after each commit.
func runWorkload(t *testing.T, dir string, fx *fixtures.ABCXD) []string {
	t.Helper()
	st, err := Create(dir, fx.PaperInstance(), Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	states := []string{render(st.DB())}
	for i, tr := range crashWorkload(fx) {
		if err := st.Apply(tr); err != nil {
			t.Fatalf("translation %d: %v", i, err)
		}
		states = append(states, render(st.DB()))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return states
}

func TestStoreCreateApplyReopen(t *testing.T) {
	fx := fixtures.NewABCXD()
	dir := t.TempDir()
	states := runWorkload(t, dir, fx)

	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rep := st.Report()
	if rep.Replayed != len(states)-1 || rep.Discarded != 0 || rep.TornAt != -1 {
		t.Fatalf("report = %s, want %d clean replays", rep, len(states)-1)
	}
	if render(st.DB()) != states[len(states)-1] {
		t.Fatal("recovered state differs from the final committed state")
	}
	// The recovered store keeps accepting work under fresh sequence
	// numbers. Tuples must be built against the recovered schema — the
	// snapshot restore produced fresh relation objects.
	cxd := st.DB().Schema().Relation("CXD")
	tp, err := tuple.New(cxd, value.NewString("c3"), value.NewString("a"), value.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(update.NewTranslation(update.NewInsert(tp))); err != nil {
		t.Fatal(err)
	}
}

// TestCrashSafetyProperty is the headline robustness property: for a
// workload of K translations, crash the log at EVERY byte offset and
// recover. Recovery must always succeed, yield exactly the state of
// the longest fully-committed prefix, and satisfy every inclusion
// dependency — no torn offset may surface a partial translation.
func TestCrashSafetyProperty(t *testing.T) {
	fx := fixtures.NewABCXD()
	src := t.TempDir()
	states := runWorkload(t, src, fx)
	walBytes, err := os.ReadFile(filepath.Join(src, WALFile))
	if err != nil {
		t.Fatal(err)
	}
	snapBytes, err := os.ReadFile(filepath.Join(src, SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	prev := -1
	for c := 0; c <= len(walBytes); c++ {
		if err := os.WriteFile(filepath.Join(dir, SnapshotFile), snapBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, WALFile), walBytes[:c], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", c, err)
		}
		// The state must be the committed prefix the cut preserves.
		res, err := wal.Scan(bytes.NewReader(walBytes[:c]))
		if err != nil {
			t.Fatalf("cut %d: %v", c, err)
		}
		var committed []wal.Record // the workload writes [translation, commit] pairs
		for _, rec := range res.Records {
			if rec.Kind == wal.KindCommit {
				committed = append(committed, rec)
			}
		}
		if st.Report().Replayed != len(committed) {
			t.Fatalf("cut %d: replayed %d, want %d", c, st.Report().Replayed, len(committed))
		}
		if got, want := render(st.DB()), states[len(committed)]; got != want {
			t.Fatalf("cut %d: recovered state is not the %d-commit prefix state", c, len(committed))
		}
		if err := st.DB().CheckAllInclusions(); err != nil {
			t.Fatalf("cut %d: recovered state violates inclusions: %v", c, err)
		}
		// Durability is monotone in the crash offset.
		if len(committed) < prev {
			t.Fatalf("cut %d: committed prefix shrank from %d to %d", c, prev, len(committed))
		}
		prev = len(committed)
		if err := st.Close(); err != nil {
			t.Fatalf("cut %d: %v", c, err)
		}
	}
	if prev != len(states)-1 {
		t.Fatalf("full log recovered %d commits, want %d", prev, len(states)-1)
	}
}

// TestStoreCrashMidWorkload drives the store itself into a simulated
// crash via a CrashWriter on the WAL media, then recovers from disk:
// the recovered state must equal the last state the store successfully
// committed, and the torn tail must be truncated.
func TestStoreCrashMidWorkload(t *testing.T) {
	fx := fixtures.NewABCXD()
	// Learn the full log size, then re-run crashing at awkward offsets.
	probe := t.TempDir()
	runWorkload(t, probe, fx)
	full, err := os.ReadFile(filepath.Join(probe, WALFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int64{3, int64(len(full)) / 3, int64(len(full)) / 2, int64(len(full)) - 5} {
		dir := t.TempDir()
		var cw *faultinject.CrashWriter
		st, err := Create(dir, fx.PaperInstance(), Options{
			Sync: wal.SyncNever,
			WrapWAL: func(f wal.File) wal.File {
				cw = &faultinject.CrashWriter{W: f, Limit: limit}
				return cw
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		states := []string{render(st.DB())}
		lastCommitted := 0
		sawCrash := false
		for i, tr := range crashWorkload(fx) {
			err := st.Apply(tr)
			if err == nil {
				if sawCrash {
					t.Fatalf("limit %d: translation %d committed on crashed media", limit, i)
				}
				lastCommitted = i + 1
				states = append(states, render(st.DB()))
				continue
			}
			// The append that crosses the limit fails with the crash and
			// rolls memory back; a later translation then fails on the
			// sealed log — or, memory first, on validation against the
			// rolled-back state it depended on. Nothing fails before the
			// crash, and the crash itself is never mistaken for a conflict.
			if !cw.Crashed() || (!sawCrash && !errors.Is(err, faultinject.ErrCrashed)) {
				t.Fatalf("limit %d: unexpected apply error: %v", limit, err)
			}
			sawCrash = true
		}
		if !cw.Crashed() {
			t.Fatalf("limit %d: crash writer never fired", limit)
		}
		// In-memory state never runs ahead of the durable commits (an
		// append failure rolls the memory image back), unless the
		// rollback itself failed and the store says so.
		if st.Err() == nil && render(st.DB()) != states[lastCommitted] {
			t.Fatalf("limit %d: memory state diverged from last durable commit", limit)
		}

		rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("limit %d: recovery failed: %v", limit, err)
		}
		if got := render(rec.DB()); got != states[rec.Report().Replayed] {
			t.Fatalf("limit %d: recovered state is not a committed prefix (report %s)", limit, rec.Report())
		}
		if rec.Report().Replayed > lastCommitted {
			t.Fatalf("limit %d: recovery invented commits: %s", limit, rec.Report())
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreTransientAppendRetry checks the transient path end to end: a
// flaky WAL write fails one Apply with a retryable error, the retry
// succeeds, and recovery sees exactly the committed translations.
func TestStoreTransientAppendRetry(t *testing.T) {
	fx := fixtures.NewABCXD()
	dir := t.TempDir()
	st, err := Create(dir, fx.PaperInstance(), Options{
		Sync: wal.SyncNever,
		WrapWAL: func(f wal.File) wal.File {
			return &faultinject.FlakyWriter{W: f, FailNth: 2} // the second commit's write
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	trs := crashWorkload(fx)
	if err := st.Apply(trs[0]); err != nil { // write 1
		t.Fatal(err)
	}
	before := render(st.DB())
	err = st.Apply(trs[1]) // write 2 fails: nothing reaches the log
	if !vuerr.IsTransient(err) || !errors.Is(err, ErrNotDurable) {
		t.Fatalf("flaky append error = %v, want transient and not durable", err)
	}
	if render(st.DB()) != before {
		t.Fatal("failed append left the in-memory state changed")
	}
	if err := st.Apply(trs[1]); err != nil { // retry
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Report().Replayed != 2 || rec.Report().Discarded != 0 || rec.Report().TornAt != -1 {
		t.Fatalf("report = %s, want 2 clean replays", rec.Report())
	}
	// The failed append burned seq 2; the retry committed under seq 3.
	// Reusing sequence numbers could pair a fresh commit marker with a
	// stale record from the failed attempt.
	if rec.Report().MaxSeq != 3 {
		t.Fatalf("max seq = %d, want 3 (failed append burns its seq)", rec.Report().MaxSeq)
	}
	if render(rec.DB()) != render(st.DB()) {
		t.Fatal("recovered state differs")
	}
}

// TestStoreCommitAppendFailureRollsBack pins the append-failure
// contract of the memory-first protocol: when the commit's one write
// fails, the in-memory apply is undone so memory matches disk, and —
// the failed write having been cut back to the last intact frame —
// nothing of the translation is on the log for recovery to discard.
func TestStoreCommitAppendFailureRollsBack(t *testing.T) {
	fx := fixtures.NewABCXD()
	dir := t.TempDir()
	st, err := Create(dir, fx.PaperInstance(), Options{
		Sync: wal.SyncNever,
		WrapWAL: func(f wal.File) wal.File {
			return &faultinject.FlakyWriter{W: f, FailNth: 1} // the first commit's write
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := render(st.DB())
	err = st.Apply(crashWorkload(fx)[0])
	if !vuerr.IsTransient(err) || !errors.Is(err, ErrNotDurable) {
		t.Fatalf("commit failure = %v, want transient and not durable", err)
	}
	if render(st.DB()) != before {
		t.Fatal("failed commit left the in-memory state changed")
	}
	// A translation that fails validation writes nothing either.
	if err := st.Apply(crashWorkload(fx)[2]); err == nil || errors.Is(err, ErrNotDurable) {
		t.Fatalf("replace against a missing parent = %v, want a validation failure", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rep := rec.Report(); rep.Replayed != 0 || rep.Discarded != 0 || rep.MaxSeq != 0 {
		t.Fatalf("report = %s, want an empty log (discards come only from torn writes)", rep)
	}
	if render(rec.DB()) != before {
		t.Fatal("recovery applied an uncommitted translation")
	}
}

func TestCheckpoint(t *testing.T) {
	fx := fixtures.NewABCXD()
	dir := t.TempDir()
	st, err := Create(dir, fx.PaperInstance(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range crashWorkload(fx)[:3] {
		if err := st.Apply(tr); err != nil {
			t.Fatal(err)
		}
	}
	want := render(st.DB())
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(dir, WALFile)); err != nil || st.Size() != 0 {
		t.Fatalf("checkpoint left WAL at %v bytes (%v), want 0", st.Size(), err)
	}
	// The store stays usable after a checkpoint.
	if err := st.Apply(crashWorkload(fx)[3]); err != nil {
		t.Fatal(err)
	}
	want2 := render(st.DB())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Report().Replayed != 1 {
		t.Fatalf("report = %s, want exactly the post-checkpoint commit", rec.Report())
	}
	if render(rec.DB()) != want2 {
		t.Fatal("post-checkpoint recovery differs")
	}
	_ = want
}

// TestCheckpointCrashWindow simulates a crash between the checkpoint's
// snapshot rename and its WAL truncation: the new snapshot is in place
// but the old WAL records survive. The snapshot's applied-sequence
// watermark must make recovery skip them — replaying would apply every
// committed translation twice and fail on the duplicate inserts.
func TestCheckpointCrashWindow(t *testing.T) {
	fx := fixtures.NewABCXD()
	dir := t.TempDir()
	st, err := Create(dir, fx.PaperInstance(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	trs := crashWorkload(fx)
	for _, tr := range trs[:3] {
		if err := st.Apply(tr); err != nil {
			t.Fatal(err)
		}
	}
	want := render(st.DB())
	walPath := filepath.Join(dir, WALFile)
	preCheckpoint, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Undo the truncation: this is the on-disk state if the process died
	// right after the rename.
	if err := os.WriteFile(walPath, preCheckpoint, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery after checkpoint crash: %v", err)
	}
	rep := rec.Report()
	if rep.Replayed != 0 || rep.Skipped != 3 || rep.SnapshotSeq != 3 {
		t.Fatalf("report = %s, want 0 replayed / 3 skipped at watermark 3", rep)
	}
	if render(rec.DB()) != want {
		t.Fatal("recovered state differs from the checkpointed state")
	}
	// The store keeps working past the stale records: new commits get
	// fresh sequence numbers and replay cleanly next time. The tuple is
	// rebuilt against the recovered schema — snapshot restore produced
	// fresh relation objects.
	ab := rec.DB().Schema().Relation("AB")
	tp, err := tuple.New(ab, value.NewString("a2"), value.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Apply(update.NewTranslation(update.NewDelete(tp))); err != nil {
		t.Fatal(err)
	}
	want2 := render(rec.DB())
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Report().Replayed != 1 || again.Report().Skipped != 3 {
		t.Fatalf("report = %s, want 1 replayed / 3 skipped", again.Report())
	}
	if render(again.DB()) != want2 {
		t.Fatal("post-crash-window commit did not survive")
	}
}

func TestOpenErrors(t *testing.T) {
	// No snapshot at all.
	if _, err := Open(t.TempDir(), Options{}); !errors.Is(err, ErrNoStore) {
		t.Fatalf("err = %v, want ErrNoStore", err)
	}
	// A WAL that decodes but disagrees with the schema is corruption.
	fx := fixtures.NewABCXD()
	dir := t.TempDir()
	st, err := Create(dir, fx.PaperInstance(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	log, _, err := wal.OpenFile(filepath.Join(dir, WALFile), wal.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	bad := wal.Record{Seq: 1, Kind: wal.KindTranslation,
		Ops: []wal.OpRecord{{Kind: "i", Rel: "NOPE", Vals: []string{"i1"}}}}
	if err := log.AppendBatch([]wal.Record{bad, wal.CommitRecord(1)}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !vuerr.IsCorrupt(err) {
		t.Fatalf("err = %v, want corrupt chain", err)
	}
}

func TestBrokenStoreRefusesWork(t *testing.T) {
	fx := fixtures.NewABCXD()
	dir := t.TempDir()
	// Fail the commit's append AND the rollback of the in-memory apply:
	// the write fails, and the inverse translation is blocked by an
	// injected storage fault, leaving memory ahead of disk — the store
	// must declare itself broken.
	st, err := Create(dir, fx.PaperInstance(), Options{
		Sync: wal.SyncNever,
		WrapWAL: func(f wal.File) wal.File {
			return &faultinject.FlakyWriter{W: f, FailNth: 1}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.NewPlan(1).
		FailNth(faultinject.SiteApply, 2, vuerr.ErrTransient)) // the rollback apply
	defer faultinject.Disable()
	err = st.Apply(crashWorkload(fx)[0])
	if !vuerr.IsCorrupt(err) {
		t.Fatalf("err = %v, want corrupt chain", err)
	}
	if st.Err() == nil {
		t.Fatal("store should report itself broken")
	}
	faultinject.Disable()
	for _, probe := range []func() error{
		func() error { return st.Apply(crashWorkload(fx)[5]) },
		st.Checkpoint,
	} {
		if err := probe(); !vuerr.IsCorrupt(err) {
			t.Fatalf("broken store accepted work: %v", err)
		}
	}
	// Disk was never told about the failed translation: recovery from
	// the files yields the pre-crash state.
	rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Report().Replayed != 0 || rec.Report().Discarded != 0 {
		t.Fatalf("report = %s, want 0 replayed / 0 discarded (the failed write was cut back)", rec.Report())
	}
}
