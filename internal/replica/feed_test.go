package replica

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"viewupdate/internal/faultinject"
	"viewupdate/internal/wal"
)

func pubRec(seq uint64) wal.Record {
	return wal.Record{Seq: seq, Kind: wal.KindTranslation,
		Ops: []wal.OpRecord{{Kind: "i", Rel: "R", Vals: []string{"x"}}}}
}

// testFeed is a WAL-stream feed retaining about backlog bytes.
func testFeed(backlog int64) *Feed {
	return NewFeed(FeedSpec{Backlog: backlog, Tail: 1024, Site: faultinject.SiteStreamSend,
		Shed: "replica.hub.tail_overrun"}, 0)
}

// take drains the frames a tail holds right now, replay first,
// releasing each.
func take(t *Tail) (bufs [][]byte) {
	for _, fr := range t.Replay {
		bufs = append(bufs, bytes.Clone(fr.Buf))
		fr.Release()
	}
	t.Replay = nil
	for {
		select {
		case fr, ok := <-t.C:
			if !ok {
				return bufs
			}
			bufs = append(bufs, bytes.Clone(fr.Buf))
			fr.Release()
		default:
			return bufs
		}
	}
}

func decodeFrames(t *testing.T, frames [][]byte) []wal.Record {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range frames {
		buf.Write(f)
	}
	var recs []wal.Record
	sr := wal.NewStreamReader(&buf)
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
}

func TestHubAttachReplaysBacklogOnce(t *testing.T) {
	f := testFeed(1 << 20)
	for seq := uint64(1); seq <= 5; seq++ {
		PublishRecord(f, pubRec(seq))
	}
	tail, covered := f.Attach(2)
	if !covered {
		t.Fatal("backlog from seq 0 must be covered, nothing evicted")
	}
	defer f.Detach(tail)
	recs := decodeFrames(t, take(tail))
	if len(recs) != 3 || recs[0].Seq != 3 || recs[2].Seq != 5 {
		t.Fatalf("backlog = %+v, want seqs 3..5", recs)
	}
	if recs[0].TS == 0 {
		t.Fatal("published frames must carry a commit timestamp")
	}
	// Frames published after Attach arrive on the tail, never in both
	// places.
	PublishRecord(f, pubRec(6))
	got := decodeFrames(t, take(tail))
	if len(got) != 1 || got[0].Seq != 6 {
		t.Fatalf("tail got %+v, want the live seq 6 alone", got)
	}
}

func TestHubEvictionForcesWALGapFill(t *testing.T) {
	f := testFeed(1) // evict after every frame beyond the newest
	for seq := uint64(1); seq <= 4; seq++ {
		PublishRecord(f, pubRec(seq))
	}
	if _, covered := f.Attach(1); covered {
		t.Fatal("attach below the evicted range must report uncovered")
	}
	tail, covered := f.Attach(4)
	if !covered || len(tail.Replay) != 0 {
		t.Fatalf("attach at the head: covered=%v backlog=%d", covered, len(tail.Replay))
	}
	f.Detach(tail)
	// A feed seeded at a boot watermark covers nothing below it.
	if _, covered := NewFeed(FeedSpec{Backlog: 1 << 20, Tail: 1}, 7).Attach(6); covered {
		t.Fatal("attach below the seeded watermark must report uncovered")
	}
}

func TestHubShedsSlowTail(t *testing.T) {
	f := testFeed(1 << 20)
	tail, _ := f.Attach(0)
	for seq := uint64(1); seq <= 1024+2; seq++ {
		PublishRecord(f, pubRec(seq))
	}
	if f.Tails() != 0 {
		t.Fatal("overrun tail must be shed")
	}
	// The shed tail's channel is closed after the buffered frames.
	n := 0
	for fr := range tail.C {
		fr.Release()
		n++
	}
	if n != 1024 {
		t.Fatalf("drained %d frames, want %d", n, 1024)
	}
	// Detach after shed is a no-op, not a double close.
	f.Detach(tail)
}

// TestFeedInjectedShedResumes: an error injected at the feed's site
// sheds the tail it was sending to, and a tail that attaches again from
// the last key it took misses nothing and sees nothing twice.
func TestFeedInjectedShedResumes(t *testing.T) {
	plan := faultinject.NewPlan(1).FailNth(faultinject.SiteStreamSend, 3, errors.New("shed"))
	faultinject.Enable(plan)
	defer faultinject.Disable()
	f := testFeed(1 << 20)
	tail, _ := f.Attach(0)
	var seen []uint64
	for seq := uint64(1); seq <= 6; seq++ {
		PublishRecord(f, pubRec(seq))
		for _, rec := range decodeFrames(t, take(tail)) {
			seen = append(seen, rec.Seq)
		}
		if f.Tails() == 0 {
			f.Detach(tail)
			var ok bool
			if tail, ok = f.Attach(seen[len(seen)-1]); !ok {
				t.Fatal("resume inside the backlog must be covered")
			}
		}
	}
	f.Detach(tail)
	if plan.Fired(faultinject.SiteStreamSend) != 1 {
		t.Fatalf("fired %d sheds, want 1", plan.Fired(faultinject.SiteStreamSend))
	}
	if len(seen) != 6 {
		t.Fatalf("saw seqs %v, want 1..6 once each", seen)
	}
	for i, s := range seen {
		if s != uint64(i+1) {
			t.Fatalf("saw seqs %v, want 1..6 once each", seen)
		}
	}
}

// TestFeedIdleAfterWindowRolls: a feed nobody is attached to stays
// resumable until its backlog drops a frame published after the last
// tail went away.
func TestFeedIdleAfterWindowRolls(t *testing.T) {
	f := NewFeed(FeedSpec{Backlog: 8, Tail: 4}, 10)
	tail, _ := f.Attach(10)
	pub := func(key uint64) {
		fr := NewFrame()
		fr.Key, fr.Buf = key, append(fr.Buf, "abcd"...)
		f.Publish(fr)
	}
	pub(11)
	f.Detach(tail)
	if f.Idle(time.Hour) {
		t.Fatal("idle right after the last tail left")
	}
	pub(12) // backlog 11, 12: still covers 11
	if f.Idle(time.Hour) {
		t.Fatal("idle while the backlog still covers the last tail's point")
	}
	pub(13) // evicts 11: a resume from 11 needs only 12 and 13
	if f.Idle(time.Hour) {
		t.Fatal("idle while a resume from the last tail's point is covered")
	}
	pub(14) // evicts 12: a resume from 11 is now uncovered
	if !f.Idle(time.Hour) {
		t.Fatal("not idle once the backlog rolled past the last tail's point")
	}
}

// TestFeedIdleAfterLinger: a feed that still covers where its last
// tail left is idle once that tail has been gone longer than the
// linger, however little was published since; a tail attached again
// keeps it live.
func TestFeedIdleAfterLinger(t *testing.T) {
	f := NewFeed(FeedSpec{Backlog: 1 << 20, Tail: 4}, 0)
	tail, _ := f.Attach(0)
	if f.Idle(0) {
		t.Fatal("idle with a tail attached")
	}
	f.Detach(tail)
	time.Sleep(time.Millisecond)
	if f.Idle(time.Hour) {
		t.Fatal("idle inside the linger")
	}
	if !f.Idle(0) {
		t.Fatal("not idle once the last tail has been gone longer than the linger")
	}
	tail, _ = f.Attach(0)
	defer f.Detach(tail)
	if f.Idle(0) {
		t.Fatal("idle with a tail attached again")
	}
}

func TestHubDropsOutOfOrderPublish(t *testing.T) {
	f := testFeed(1 << 20)
	PublishRecord(f, pubRec(5))
	PublishRecord(f, pubRec(5))
	PublishRecord(f, pubRec(3))
	tail, _ := f.Attach(0)
	defer f.Detach(tail)
	if len(tail.Replay) != 1 {
		t.Fatalf("backlog holds %d frames, want the single in-order one", len(tail.Replay))
	}
}

func TestHubCloseShedsTails(t *testing.T) {
	f := testFeed(0)
	tail, _ := f.Attach(0)
	f.Close()
	if _, ok := <-tail.C; ok {
		t.Fatal("closed feed must close its tails")
	}
	PublishRecord(f, pubRec(1)) // must not panic
	if late, _ := f.Attach(0); late.Replay != nil {
		t.Fatal("publish after close must be dropped")
	}
}
