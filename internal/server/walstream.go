package server

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"viewupdate/internal/obs"
	"viewupdate/internal/persist"
	"viewupdate/internal/replica"
	"viewupdate/internal/wal"
)

// The primary side of WAL-streaming replication. A durable engine owns
// a replica.Feed keyed by commit seq; every durable commit is framed
// and published to it in commit order, and /wal/stream serves attached
// followers from the feed's backlog (falling back to the committed
// records on disk, reassembled by wal.Reassemble, when a follower's
// resume point has aged off). /wal/snapshot serves the full state for
// bootstrap. See docs/REPLICATION.md.
//
// The feed is fed through durableStore.SetOnCommit, whatever the store:
//
//   - persist.Store fires the hook under the store lock, post-fsync, in
//     commit order.
//   - Sharded, commits become durable out of order (each shard fsyncs
//     independently), but the stream must carry them in sequence
//     order, and only once durable (the sharded engine publishes
//     snapshots before durability; streaming at publish time would
//     replicate state a crash could still lose). The acker keeps one
//     seq-ordered list of pending acks (settle appends under stateMu):
//     it answers each waiter as soon as its verdict is in, then pops
//     the answered prefix onto the hook — durable commits published,
//     failed ones burned (shard.go).

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
