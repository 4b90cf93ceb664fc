package server

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"viewupdate/internal/obs"
	"viewupdate/internal/persist"
	"viewupdate/internal/replica"
	"viewupdate/internal/update"
	"viewupdate/internal/wal"
)

// The primary side of WAL-streaming replication. A durable engine owns
// a replica.Feed keyed by commit seq; every durable commit is framed
// and published to it in commit order, and /wal/stream serves attached
// followers from the feed's backlog (falling back to a disk scan of the
// WAL when a follower's resume point has aged off). /wal/snapshot
// serves the full state for bootstrap. See docs/REPLICATION.md.
//
// The feed is fed through durableStore.SetOnCommit, whatever the store:
//
//   - persist.Store fires the hook under the store lock, post-fsync, in
//     commit order.
//   - Sharded, commits become durable out of order (each shard fsyncs
//     independently), but the stream must carry them in sequence
//     order, and only once durable (the sharded engine publishes
//     snapshots before durability; streaming at publish time would
//     replicate state a crash could still lose). The walFeed below
//     registers every allocated seq in order (under stateMu) and the
//     acker resolves each to publish-or-skip; the feed drains the
//     resolved prefix to the hook, restoring order.

// heartbeatInterval is how often an otherwise idle source streams its
// watermark + wall clock, so followers can measure staleness and
// detect dead connections.
const heartbeatInterval = time.Second

// walGapFillRetries bounds the attach/gap-fill loop: each round serves
// the backlog shortfall from the WAL and retries the attach. More than
// a couple of rounds means a checkpoint is racing the stream; give up
// and let the follower reconnect (or re-bootstrap on 410).
const walGapFillRetries = 3

// The stream feed's sizes: about walBacklogBytes of recent frames are
// retained for resuming followers (older resume points gap-fill from
// the WAL, or past a checkpoint re-bootstrap), and a tail more than
// walTailBuffer frames behind the commit rate is shed.
const (
	walBacklogBytes = 4 << 20
	walTailBuffer   = 1024
)

// A feedEntry is one allocated global seq awaiting its durability
// verdict.
type feedEntry struct {
	seq   uint64
	key   string
	tr    *update.Translation
	state feedState
}

type feedState uint8

const (
	feedPending feedState = iota
	feedPublish
	feedSkip
)

// A walFeed reorders the sharded engine's out-of-order durability
// notifications back into global sequence order for the stream feed. Every
// allocated seq is registered exactly once (in order — the sequencer
// holds stateMu across allocation and registration) and resolved
// exactly once: publish when the commit's durability conditions came
// true, skip when it failed (the seq is burned; followers never see
// it, exactly like recovery).
type walFeed struct {
	mu        sync.Mutex
	out       func(recs []wal.Record)
	pending   []feedEntry
	published uint64 // last seq offered to out (boot watermark at start)
}

// open points the feed at its consumer, starting from the boot
// watermark. Called once, before the first register.
func (f *walFeed) open(boot uint64, out func(recs []wal.Record)) {
	f.mu.Lock()
	f.out, f.published = out, boot
	f.mu.Unlock()
}

// register appends seq to the feed. Callers serialize in sequence
// order: settle runs under stateMu, for pipeline batches and script
// statements alike.
func (f *walFeed) register(seq uint64, key string, tr *update.Translation) {
	f.mu.Lock()
	f.pending = append(f.pending, feedEntry{seq: seq, key: key, tr: tr})
	f.mu.Unlock()
}

// resolve delivers seq's verdict and drains the resolved prefix to the
// consumer. Encoding happens here, off the pipeline's critical path,
// and only for commits that actually publish.
func (f *walFeed) resolve(seq uint64, publish bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.pending {
		if f.pending[i].seq == seq {
			if publish {
				f.pending[i].state = feedPublish
			} else {
				f.pending[i].state = feedSkip
			}
			break
		}
	}
	for len(f.pending) > 0 && f.pending[0].state != feedPending {
		ent := f.pending[0]
		f.pending = f.pending[1:]
		if ent.state == feedPublish {
			f.out([]wal.Record{wal.EncodeTranslationKeyed(ent.seq, ent.key, ent.tr)})
			f.published = ent.seq
		}
	}
	if len(f.pending) == 0 {
		f.pending = nil
	}
}

// publishedSeq is the highest seq the feed has offered its consumer —
// the sharded engine's durable replication watermark.
func (f *walFeed) publishedSeq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.published
}

// runHeartbeats periodically streams the durable watermark to attached
// tails until the engine shuts down.
func (e *Engine) runHeartbeats() {
	t := time.NewTicker(heartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-e.hbStop:
			return
		case <-t.C:
			replica.Heartbeat(e.stream, e.dur.CommittedSeq())
		}
	}
}

// stopReplication shuts the replication source down: heartbeats stop
// and every attached tail is closed (followers see a clean end of
// stream and reconnect elsewhere or give up). Called once, after the
// pipeline drained.
func (e *Engine) stopReplication() {
	if e.stream == nil {
		return
	}
	close(e.hbStop)
	e.stream.Close()
}

// handleWalSnapshot serves the full state for follower bootstrap,
// stamped with the watermark the stream resumes from. The pipelined
// discipline publishes before durability, so the pipeline is quiesced
// first: the captured state is exactly the durable prefix, never ahead
// of it.
func (e *Engine) handleWalSnapshot(w http.ResponseWriter, r *http.Request) {
	if e.stream == nil {
		writeJSON(w, http.StatusNotFound, errorReply{
			Error: "server: not a replication source (no durable store)", Code: "not_found"})
		return
	}
	e.stateMu.Lock()
	e.disc.quiesce()
	db := e.db.CloneShared()
	seq := e.dur.CommittedSeq()
	e.stateMu.Unlock()
	snap, err := persist.Capture(db)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorReply{Error: err.Error(), Code: "internal"})
		return
	}
	snap.Seq = seq
	obs.Inc("server.walstream.snapshots")
	writeJSON(w, http.StatusOK, snap)
}

// handleWalStream streams CRC-framed commit records with seq > from,
// in commit order, until the client disconnects or the engine drains.
// Resume points below the snapshot floor answer 410 (the follower must
// re-bootstrap); resume points behind the in-memory backlog are served
// from the WAL on disk first. Exempt from the per-request deadline.
func (e *Engine) handleWalStream(w http.ResponseWriter, r *http.Request) {
	if e.stream == nil {
		writeJSON(w, http.StatusNotFound, errorReply{
			Error: "server: not a replication source (no durable store)", Code: "not_found"})
		return
	}
	from := uint64(0)
	if s := r.URL.Query().Get("from"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorReply{
				Error: fmt.Sprintf("server: bad from=%q: %v", s, err), Code: "bad_request"})
			return
		}
		from = v
	}
	if floor := e.dur.SnapshotSeq(); from < floor {
		writeJSON(w, http.StatusGone, errorReply{
			Error: fmt.Sprintf("server: resume point %d predates snapshot floor %d; bootstrap from /wal/snapshot", from, floor),
			Code:  "snapshot_required"})
		return
	}
	flush := func() {}
	if fl, ok := w.(http.Flusher); ok {
		flush = fl.Flush
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	obs.Inc("server.walstream.opened")
	obs.AddGauge("server.walstream.streams", 1)
	defer obs.AddGauge("server.walstream.streams", -1)

	count := func(n int) {
		obs.Inc("server.walstream.frames")
		obs.Add("server.walstream.bytes", int64(n))
	}
	send := func(data []byte) bool {
		if _, err := w.Write(data); err != nil {
			return false
		}
		count(len(data))
		return true
	}

	cursor := from
	var tail *replica.Tail
	for attempt := 0; ; attempt++ {
		t, covered := e.stream.Attach(cursor)
		if covered {
			tail = t
			break
		}
		if attempt >= walGapFillRetries {
			// A checkpoint keeps racing the catch-up; end the stream and
			// let the follower reconnect (it will see 410 and bootstrap).
			return
		}
		recs, err := e.dur.CommittedAfter(cursor)
		if err != nil {
			e.logf("walstream gap-fill failed", "err", err.Error())
			return
		}
		for _, rec := range recs {
			if rec.Seq <= cursor {
				continue
			}
			data, ferr := wal.Frame(rec)
			if ferr != nil {
				e.logf("walstream gap-fill frame failed", "err", ferr.Error())
				return
			}
			if !send(data) {
				return
			}
			cursor = rec.Seq
		}
		flush()
	}
	defer e.stream.Detach(tail)
	pump(r.Context(), w, flush, tail, nil, count)
}
