package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"viewupdate/internal/faultinject"
	"viewupdate/internal/obs"
	"viewupdate/internal/replica"
	"viewupdate/internal/tuple"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
)

// Live view subscriptions: GET /subscribe/{view} holds a Server-Sent
// Events stream open and pushes each commit's view-row delta — the
// O(delta) changes incremental view maintenance computes — as a change
// event. Each subscribed view has one replica.Feed keyed by snapshot
// version, the type /wal/stream serves followers from. A subscriber
// that cannot keep up is shed rather than allowed to stall the commit
// pipeline, and reconnects with Last-Event-ID to replay what it missed.
// Versions restart at 0 on every boot and each node counts its own, so
// an event's id is <run>.<version>, run drawn at random per engine, and
// an id another run issued is never replayed. See docs/REPLICATION.md.

const (
	// subBuffer is each subscriber's queue: commits it lags behind by
	// more than this many events shed it.
	subBuffer = 256
	// subBacklogBytes bounds each view's retained events: the window a
	// shed or disconnected subscriber can resume within.
	subBacklogBytes = 1 << 20
	// subLinger is how long a view's feed outlives its last subscriber
	// so a reconnect can resume; after it, the next commit drops the
	// feed rather than keep computing deltas nobody reads.
	subLinger = 30 * time.Second
	// subKeepalive is the comment-ping interval keeping idle streams'
	// connections (and intermediaries) from timing out.
	subKeepalive = 15 * time.Second
)

// A viewFeed is the change feed of one subscribed view, pinned to the
// view value it was opened against: if DDL drops or rebinds the name,
// the feed is cut (the rows it carried deltas for no longer exist).
type viewFeed struct {
	name, run string
	v         view.View
	*replica.Feed
}

// publish encodes one commit's delta for the view into a pooled frame
// and hands it to the feed. Steady state this allocates nothing.
func (fd *viewFeed) publish(version uint64, rem, add []tuple.T) {
	if len(rem) == 0 && len(add) == 0 {
		return
	}
	fr := replica.NewFrame()
	fr.Key = version
	fr.Buf = appendChangeEvent(fr.Buf, fd.run, fd.name, version, rem, add)
	fd.Publish(fr)
}

// viewFeeds holds the feed of every subscribed view. n mirrors
// len(feeds), so the per-commit fast path — no feed anywhere — is one
// atomic load, no lock. A feed outlives its last subscriber for linger,
// or until its window rolls past where that subscriber left. run tags
// every event id. NewEngine sets run, linger and feeds.
type viewFeeds struct {
	n      atomic.Int32
	run    string
	linger time.Duration
	mu     sync.Mutex
	feeds  map[string]*viewFeed
	closed bool
}

// open returns the named view's feed, creating it — keyed after
// version — on first use. Returns nil once the engine is shutting down.
// Callers hold stateMu, so version is the published one, no delta is
// in flight, and publish has cut any feed DDL left behind.
func (s *viewFeeds) open(name string, v view.View, version uint64) *viewFeed {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if fd := s.feeds[name]; fd != nil {
		return fd
	}
	s.n.Add(1)
	fd := &viewFeed{name: name, run: s.run, v: v, Feed: replica.NewFeed(replica.FeedSpec{
		Backlog: subBacklogBytes, Tail: subBuffer,
		Site: faultinject.SiteSubscribeSend, Shed: "server.replica.dropped_events",
	}, version)}
	s.feeds[name] = fd
	return fd
}

// active returns every open feed (nil when there are none — the common
// case, answered without the lock).
func (s *viewFeeds) active() []*viewFeed {
	if s.n.Load() == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*viewFeed, 0, len(s.feeds))
	for _, fd := range s.feeds {
		out = append(out, fd)
	}
	return out
}

// drop closes fd, ending its subscribers' streams, and forgets it.
func (s *viewFeeds) drop(fd *viewFeed) {
	s.mu.Lock()
	if s.feeds[fd.name] == fd {
		delete(s.feeds, fd.name)
		s.n.Add(-1)
	}
	s.mu.Unlock()
	fd.Close()
}

// close drops every feed and refuses new ones. Called once at engine
// shutdown, after the commit pipeline drained.
func (s *viewFeeds) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	for _, fd := range s.active() {
		s.drop(fd)
	}
}

// pump writes a tail's frames to w — the replayed window first, then
// live frames, one flush per burst — until the tail is shed or closed,
// the client goes away, or a write fails. ping, when non-nil, paces
// keepalive comments; sent, when non-nil, counts each frame's bytes.
func pump(ctx context.Context, w io.Writer, flush func(), t *replica.Tail, ping <-chan time.Time, sent func(n int)) {
	write := func(fr *replica.Frame) bool {
		_, err := w.Write(fr.Buf)
		if err == nil && sent != nil {
			sent(len(fr.Buf))
		}
		fr.Release()
		return err == nil
	}
	for len(t.Replay) > 0 {
		fr := t.Replay[0]
		t.Replay = t.Replay[1:]
		if !write(fr) {
			return
		}
	}
	flush()
	for {
		select {
		case fr, ok := <-t.C:
			// Write whatever is already queued before paying one flush
			// for the lot. A closed queue ends the stream: shed (slow
			// consumer), feed cut, or shutdown.
			for ok && fr != nil {
				if !write(fr) {
					return
				}
				fr = nil
				select {
				case fr, ok = <-t.C:
				default:
				}
			}
			flush()
			if !ok {
				return
			}
		case <-ping:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			flush()
		case <-ctx.Done():
			return
		}
	}
}

// --- SSE encoding -----------------------------------------------------

var hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal. Hand-rolled
// because the fan-out path must not allocate: control characters get
// \uXXXX escapes, multi-byte UTF-8 passes through raw (valid JSON).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// appendWireValue appends v in the same plain string form the read API
// uses (wireString): ints and bools render as their text inside a JSON
// string, so a row cell is one JSON string regardless of kind.
func appendWireValue(dst []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.Int:
		return append(strconv.AppendInt(append(dst, '"'), v.Int(), 10), '"')
	case value.Bool:
		return append(strconv.AppendBool(append(dst, '"'), v.Bool()), '"')
	case value.String:
		return appendJSONString(dst, v.Str())
	default:
		return appendJSONString(dst, v.String())
	}
}

// appendRowArray appends rows as a JSON array of arrays of cell
// strings, cells in schema order.
func appendRowArray(dst []byte, rows []tuple.T) []byte {
	dst = append(dst, '[')
	for i, t := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range t.Values() {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendWireValue(dst, v)
		}
		dst = append(dst, ']')
	}
	return append(dst, ']')
}

// appendEventHead appends an SSE event's id (<run>.<version>) and name
// lines and opens its JSON data with the view and the version.
func appendEventHead(dst []byte, run, event, view string, version uint64) []byte {
	dst = append(dst, "id: "...)
	dst = append(dst, run...)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, version, 10)
	dst = append(dst, "\nevent: "...)
	dst = append(dst, event...)
	dst = append(dst, "\ndata: {\"view\":"...)
	dst = appendJSONString(dst, view)
	dst = append(dst, ",\"version\":"...)
	return strconv.AppendUint(dst, version, 10)
}

// appendChangeEvent appends one complete SSE change frame.
func appendChangeEvent(dst []byte, run, view string, version uint64, rem, add []tuple.T) []byte {
	dst = appendEventHead(dst, run, "change", view, version)
	dst = append(dst, ",\"removed\":"...)
	dst = appendRowArray(dst, rem)
	dst = append(dst, ",\"added\":"...)
	dst = appendRowArray(dst, add)
	return append(dst, "}\n\n"...)
}

// appendOpenEvent appends the stream-opening frame, hello or resync:
// the view's columns (so clients can map row arrays) and the version
// the stream's changes follow.
func appendOpenEvent(dst []byte, run, event, view string, version uint64, cols []string) []byte {
	dst = appendEventHead(dst, run, event, view, version)
	dst = append(dst, ",\"columns\":["...)
	for i, c := range cols {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, c)
	}
	return append(dst, "]}\n\n"...)
}

// --- handler ----------------------------------------------------------

// handleSubscribe holds a Server-Sent Events stream open on the named
// view. It opens with a "hello" event carrying the columns and the
// version V the stream is live after; then come "change" events, each
// the removed and added rows at its version, with id: <run>.<version>.
// A request carrying Last-Event-ID L resumes: hello at L, then the
// retained changes after L. If L is no longer retained, or another run
// (an earlier boot, another node) issued it, the stream opens with one
// "resync" event at V instead — re-read the view and apply only the
// changes after the version read. A dropped or
// redefined view closes the stream. Exempt from the per-request
// deadline.
func (e *Engine) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("view")
	// Under stateMu no commit is publishing: the version read and the
	// attach point agree, and the name is bound to what DDL last left.
	e.stateMu.Lock()
	v := e.sess.View(name)
	version := e.snap.Load().version
	var fd *viewFeed
	if v != nil {
		fd = e.subs.open(name, v, version)
	}
	var tail *replica.Tail
	at, event := version, "hello"
	if fd != nil {
		if h := r.Header.Get("Last-Event-ID"); h != "" {
			event = "resync"
			run, id, _ := strings.Cut(h, ".")
			if from, err := strconv.ParseUint(id, 10, 64); err == nil && run == e.subs.run && from <= version {
				if tail, _ = fd.Attach(from); tail != nil {
					at, event = from, "hello"
				}
			}
		}
		if tail == nil {
			tail, _ = fd.Attach(version)
		}
	}
	e.stateMu.Unlock()
	switch {
	case v == nil:
		writeError(w, fmt.Errorf("%w: %s", ErrNoView, name))
		return
	case fd == nil:
		writeError(w, ErrDraining)
		return
	}
	defer fd.Detach(tail)
	flush := func() {}
	if fl, ok := w.(http.Flusher); ok {
		flush = fl.Flush
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	obs.Inc("server.subscribe.opened")
	obs.AddGauge("server.replica.subscribers", 1)
	defer obs.AddGauge("server.replica.subscribers", -1)

	if _, err := w.Write(appendOpenEvent(nil, e.subs.run, event, name, at, v.Schema().AttributeNames())); err != nil {
		return
	}
	ping := time.NewTicker(subKeepalive)
	defer ping.Stop()
	pump(r.Context(), w, flush, tail, ping.C, nil)
}
