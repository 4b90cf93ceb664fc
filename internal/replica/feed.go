// Package replica implements change streaming: the primary side (Feed —
// a byte-bounded backlog of keyed frames fanned out to attached tails,
// which serves both the WAL stream and view subscriptions) and the
// follower side (Client — snapshot bootstrap + stream resumption;
// Follower — replay into a local database with a durable applied-seq
// watermark). The protocol and its staleness model are documented in
// docs/REPLICATION.md.
//
// The WAL stream carries exactly two record kinds: KindTranslation (one
// per durable commit, in commit order, stamped with the primary's wall
// clock) and KindHeartbeat (watermark + clock while idle). Commit
// markers never travel — a record is streamed only after its commit is
// durable, so presence implies commitment.
package replica

import (
	"sync"
	"sync/atomic"
	"time"

	"viewupdate/internal/faultinject"
	"viewupdate/internal/obs"
	"viewupdate/internal/wal"
)

// maxPooledFrame caps the buffer capacity a released frame keeps in the
// pool; a rare huge frame is handed to the GC instead of pinning its
// footprint forever.
const maxPooledFrame = 1 << 16

// A Frame is one encoded stream entry, shared by reference count: the
// backlog holds one reference, every tail it is queued on holds one,
// and the last Release returns it to the pool. Key orders the frames
// of one feed (a commit seq, a snapshot version).
type Frame struct {
	refs atomic.Int32
	Key  uint64
	Buf  []byte
}

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// NewFrame returns an empty pooled frame for the caller to fill and
// hand to Publish or Broadcast, which take ownership of it.
func NewFrame() *Frame {
	fr := framePool.Get().(*Frame)
	fr.Buf = fr.Buf[:0]
	return fr
}

// Release drops one reference, recycling the frame when it was the
// last.
func (fr *Frame) Release() {
	if fr.refs.Add(-1) != 0 {
		return
	}
	if cap(fr.Buf) > maxPooledFrame {
		fr.Buf = nil
	}
	framePool.Put(fr)
}

// A Tail is one attached stream consumer. Replay holds the retained
// frames after its attach point, C those published since, in key
// order; the consumer releases each frame it takes. C is closed when
// the tail is shed or the feed closes: the stream ends cleanly and the
// consumer resumes from the last key it saw.
type Tail struct {
	Replay []*Frame
	C      chan *Frame
}

// FeedSpec sizes a feed: Backlog bounds the bytes of frames retained
// for Attach, Tail each tail's queue (a tail that finds it full is
// shed). Site is the faultinject site hit per frame queued on a tail,
// an injected error shedding that tail; Shed counts shed tails.
type FeedSpec struct {
	Backlog    int64
	Tail       int
	Site, Shed string
}

// A Feed retains recently published frames in key order and fans them
// out to attached tails. Attach is atomic with respect to Publish, so a
// consumer that replays the returned backlog and then drains its tail
// sees every frame after its attach point exactly once.
type Feed struct {
	spec   FeedSpec
	mu     sync.Mutex
	ring   []*Frame // the backlog, oldest at ring[head]
	head   int
	n      int
	bytes  int64
	floor  uint64    // keys at or below floor may be gone from the backlog
	last   uint64    // highest published key
	left   uint64    // last when the most recent tail went away
	leftAt time.Time // and when
	tails  map[*Tail]struct{}
	closed bool
}

// NewFeed builds a feed whose keys start after at: an Attach below at
// reports uncovered, since what came before the feed was never in it.
func NewFeed(spec FeedSpec, at uint64) *Feed {
	return &Feed{spec: spec, floor: at, last: at, left: at, leftAt: time.Now(), tails: map[*Tail]struct{}{}}
}

// Publish appends fr to the backlog and queues it on every tail,
// shedding each tail whose queue is full; it never blocks. It takes
// ownership of fr, and reports false (releasing fr) when the feed is
// closed or fr.Key does not follow the last published key.
func (f *Feed) Publish(fr *Frame) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || fr.Key <= f.last {
		fr.refs.Store(1)
		fr.Release()
		return false
	}
	f.last = fr.Key
	fr.refs.Store(int32(1 + len(f.tails)))
	f.sendLocked(fr, true)
	if f.n == len(f.ring) {
		grown := make([]*Frame, max(16, 2*len(f.ring)))
		for i := 0; i < f.n; i++ {
			grown[i] = f.ring[(f.head+i)%len(f.ring)]
		}
		f.ring, f.head = grown, 0
	}
	f.ring[(f.head+f.n)%len(f.ring)] = fr
	f.n++
	f.bytes += int64(len(fr.Buf))
	for f.bytes > f.spec.Backlog && f.n > 1 {
		old := f.ring[f.head]
		f.ring[f.head] = nil
		f.head = (f.head + 1) % len(f.ring)
		f.n--
		f.bytes -= int64(len(old.Buf))
		f.floor = old.Key
		old.Release()
	}
	return true
}

// Broadcast queues fr on every tail without retaining it (heartbeats):
// a full queue skips the frame rather than shedding the tail. It takes
// ownership of fr.
func (f *Feed) Broadcast(fr *Frame) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fr.refs.Store(int32(1 + len(f.tails)))
	if !f.closed {
		f.sendLocked(fr, false)
	}
	fr.Release()
}

// sendLocked queues fr, which already holds a reference per tail, on
// every tail; a tail that cannot take it gives its reference back and,
// when shed is set, is shed.
func (f *Feed) sendLocked(fr *Frame, shed bool) {
	for t := range f.tails {
		if shed && faultinject.Hit(f.spec.Site) != nil {
			fr.Release()
			f.shedLocked(t)
			continue
		}
		select {
		case t.C <- fr:
		default:
			fr.Release()
			if shed {
				f.shedLocked(t)
			}
		}
	}
}

// shedLocked cuts t loose: its queue is closed after the frames already
// in it, and the consumer resumes by attaching again.
func (f *Feed) shedLocked(t *Tail) {
	obs.Inc(f.spec.Shed)
	f.removeLocked(t)
}

func (f *Feed) removeLocked(t *Tail) {
	delete(f.tails, t)
	close(t.C)
	if len(f.tails) == 0 {
		f.left, f.leftAt = f.last, time.Now()
	}
}

// Attach registers a tail resuming after key from. covered is false
// when frames after from have left the backlog (or never entered it):
// the caller must serve the gap some other way or start over. A closed
// feed answers a tail whose queue is already closed.
func (f *Feed) Attach(from uint64) (t *Tail, covered bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if from < f.floor && !f.closed {
		return nil, false
	}
	t = &Tail{C: make(chan *Frame, f.spec.Tail)}
	if f.closed {
		close(t.C)
		return t, true
	}
	for i := 0; i < f.n; i++ {
		if fr := f.ring[(f.head+i)%len(f.ring)]; fr.Key > from {
			fr.refs.Add(1)
			t.Replay = append(t.Replay, fr)
		}
	}
	f.tails[t] = struct{}{}
	return t, true
}

// Detach removes t if it is still attached and releases every frame it
// still holds. Safe on a tail the feed already shed or closed.
func (f *Feed) Detach(t *Tail) {
	f.mu.Lock()
	if _, ok := f.tails[t]; ok {
		f.removeLocked(t)
	}
	f.mu.Unlock()
	for _, fr := range t.Replay {
		fr.Release()
	}
	t.Replay = nil
	for fr := range t.C {
		fr.Release()
	}
}

// Tails reports the number of attached tails.
func (f *Feed) Tails() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.tails)
}

// Idle reports that no tail is attached and none is worth waiting for:
// the last one went away more than linger ago, or the backlog has
// dropped frames past the point it left, so it could not resume.
func (f *Feed) Idle(linger time.Duration) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.tails) == 0 && (f.floor > f.left || time.Since(f.leftAt) > linger)
}

// Close sheds every tail, drops the backlog and refuses further
// frames. Idempotent.
func (f *Feed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for t := range f.tails {
		f.removeLocked(t)
	}
	for i := 0; i < f.n; i++ {
		f.ring[(f.head+i)%len(f.ring)].Release()
	}
	f.ring, f.n = nil, 0
}

// PublishRecord frames one durable commit's record, stamped with the
// wall clock followers turn lag in seqs into lag in time with, and
// publishes it keyed by its seq. Records must arrive in commit order;
// one that does not is dropped (counted as replica.hub.outoforder).
func PublishRecord(f *Feed, rec wal.Record) {
	rec.TS = time.Now().UnixNano()
	data, err := wal.Frame(rec)
	if err != nil {
		// A record that does not encode cannot have landed in the WAL;
		// treat as unreachable but never panic the commit path.
		obs.Inc("replica.hub.encode_error")
		return
	}
	fr := NewFrame()
	fr.Key, fr.Buf = rec.Seq, data
	if !f.Publish(fr) {
		obs.Inc("replica.hub.outoforder")
	}
}

// Heartbeat sends every tail a heartbeat record: the durable watermark
// and the wall clock, kept out of the backlog.
func Heartbeat(f *Feed, seq uint64) {
	data, err := wal.Frame(wal.HeartbeatRecord(seq, time.Now().UnixNano()))
	if err != nil {
		return
	}
	fr := NewFrame()
	fr.Buf = data
	f.Broadcast(fr)
}
