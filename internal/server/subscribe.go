package server

import (
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"viewupdate/internal/obs"
	"viewupdate/internal/tuple"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
)

// Live view subscriptions: GET /subscribe/{view} holds a Server-Sent
// Events stream open and pushes each commit's view-row delta — the
// same O(delta) changes incremental view maintenance computes — to
// every subscriber. The fan-out path is allocation-free in steady
// state: one pooled event buffer is encoded per (commit, view) and
// shared by reference count across that view's subscribers; per-
// subscriber queues are bounded, and a subscriber that cannot keep up
// is shed (its channel closed) rather than allowed to stall the commit
// pipeline. See docs/REPLICATION.md.

const (
	// subBuffer is each subscriber's queue: commits it lags behind by
	// more than this many events shed it.
	subBuffer = 256
	// subKeepalive is the comment-ping interval keeping idle streams'
	// connections (and intermediaries) from timing out.
	subKeepalive = 15 * time.Second
	// maxPooledEventBuf caps the buffer capacity returned to the event
	// pool; a rare huge delta is handed to the GC instead of pinning
	// its footprint forever.
	maxPooledEventBuf = 1 << 16
)

// A subEvent is one encoded SSE frame, shared by every subscriber of
// the view it belongs to. The publisher sets refs to the number of
// queues it was placed on; the last release returns it to the pool.
type subEvent struct {
	refs atomic.Int32
	buf  []byte
}

var subEventPool = sync.Pool{New: func() any { return new(subEvent) }}

// release drops one reference, recycling the event when it was the
// last.
func (ev *subEvent) release() {
	if ev.refs.Add(-1) != 0 {
		return
	}
	if cap(ev.buf) > maxPooledEventBuf {
		ev.buf = nil
	}
	subEventPool.Put(ev)
}

// A subscriber is one open /subscribe stream: a bounded event queue
// the publisher feeds and the handler drains. The publisher closes ch
// to shed a slow consumer or on shutdown; only the publisher ever
// closes it.
type subscriber struct {
	view string
	ch   chan *subEvent
}

// viewSubs is the fan-out set of one view, pinned to the view value
// the subscribers attached against — if DDL rebinds the name, the set
// is cut loose (the rows they were promised deltas for no longer
// exist).
type viewSubs struct {
	v    view.View
	subs map[*subscriber]struct{}
}

// subHub fans view deltas out to subscribers. The zero value is ready
// to use. total is kept redundantly so the per-commit fast path — no
// subscribers anywhere — is one atomic load, no lock.
type subHub struct {
	total  atomic.Int32
	mu     sync.Mutex
	views  map[string]*viewSubs
	closed bool
}

// attach registers a new subscriber of the named view. Returns nil
// when the hub is already closed (engine shutting down). If the name
// was rebound since earlier subscribers attached, they are shed and
// the entry re-pinned to v.
func (h *subHub) attach(name string, v view.View) *subscriber {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	if h.views == nil {
		h.views = make(map[string]*viewSubs)
	}
	entry := h.views[name]
	if entry != nil && entry.v != v {
		h.dropLocked(name, entry)
		entry = nil
	}
	if entry == nil {
		entry = &viewSubs{v: v, subs: make(map[*subscriber]struct{})}
		h.views[name] = entry
	}
	s := &subscriber{view: name, ch: make(chan *subEvent, subBuffer)}
	entry.subs[s] = struct{}{}
	h.total.Add(1)
	obs.SetGauge("server.replica.subscribers", int64(h.total.Load()))
	return s
}

// detach removes s from the hub (idempotent; a shed subscriber is
// already gone). The caller must drain s.ch afterwards — events queued
// before detach still hold references.
func (h *subHub) detach(s *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	entry := h.views[s.view]
	if entry == nil {
		return
	}
	if _, ok := entry.subs[s]; !ok {
		return
	}
	delete(entry.subs, s)
	if len(entry.subs) == 0 {
		delete(h.views, s.view)
	}
	h.total.Add(-1)
	obs.SetGauge("server.replica.subscribers", int64(h.total.Load()))
}

// active returns the names of views with at least one subscriber (nil
// when there are none — the common case, answered without the lock).
func (h *subHub) active() []string {
	if h.total.Load() == 0 {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.views) == 0 {
		return nil
	}
	names := make([]string, 0, len(h.views))
	for name := range h.views {
		names = append(names, name)
	}
	return names
}

// drop sheds every subscriber of the named view (dropped or redefined
// views).
func (h *subHub) drop(name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if entry := h.views[name]; entry != nil {
		h.dropLocked(name, entry)
	}
}

func (h *subHub) dropLocked(name string, entry *viewSubs) {
	for s := range entry.subs {
		close(s.ch)
		h.total.Add(-1)
	}
	delete(h.views, name)
	obs.SetGauge("server.replica.subscribers", int64(h.total.Load()))
}

// publish fans one commit's delta for the named view out to its
// subscribers: encode once into a pooled event, reference-count it
// across the queues, shed whoever's queue is full. Steady state this
// allocates nothing. Called from the commit path (under stateMu);
// sends never block.
func (h *subHub) publish(name string, v view.View, version uint64, rem, add []tuple.T) {
	if h.total.Load() == 0 {
		return
	}
	if len(rem) == 0 && len(add) == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	entry := h.views[name]
	if entry == nil || len(entry.subs) == 0 {
		return
	}
	if entry.v != v {
		// The name was rebound under the subscribers; their row state is
		// no longer meaningful. Cut them loose to re-subscribe.
		h.dropLocked(name, entry)
		return
	}
	ev := subEventPool.Get().(*subEvent)
	ev.buf = appendChangeEvent(ev.buf[:0], name, version, rem, add)
	ev.refs.Store(int32(len(entry.subs)))
	shed := false
	for s := range entry.subs {
		select {
		case s.ch <- ev:
		default:
			// Slow consumer: drop it rather than block commits or buffer
			// without bound. The handler sees the closed channel, drains
			// what it had queued, and ends the stream.
			ev.release()
			delete(entry.subs, s)
			close(s.ch)
			h.total.Add(-1)
			obs.Inc("server.replica.dropped_events")
			shed = true
		}
	}
	if shed {
		if len(entry.subs) == 0 {
			delete(h.views, name)
		}
		obs.SetGauge("server.replica.subscribers", int64(h.total.Load()))
	}
}

// close sheds every subscriber and refuses new ones. Called once at
// engine shutdown, after the commit pipeline drained.
func (h *subHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for name, entry := range h.views {
		h.dropLocked(name, entry)
	}
	h.views = nil
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
		dst = append(dst, '"')
		dst = strconv.AppendInt(dst, v.Int(), 10)
		return append(dst, '"')
	case value.Bool:
		dst = append(dst, '"')
		dst = strconv.AppendBool(dst, v.Bool())
		return append(dst, '"')
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

// appendChangeEvent appends one complete SSE change frame.
func appendChangeEvent(dst []byte, view string, version uint64, rem, add []tuple.T) []byte {
	dst = append(dst, "event: change\ndata: {\"view\":"...)
	dst = appendJSONString(dst, view)
	dst = append(dst, ",\"version\":"...)
	dst = strconv.AppendUint(dst, version, 10)
	dst = append(dst, ",\"removed\":"...)
	dst = appendRowArray(dst, rem)
	dst = append(dst, ",\"added\":"...)
	dst = appendRowArray(dst, add)
	return append(dst, "}\n\n"...)
}

// appendHelloEvent appends the stream-opening frame: the view's
// columns (so clients can map row arrays) and the snapshot version the
// stream is live from — changes the client read at or below it are
// already reflected in a fresh GET /views/{name}.
func appendHelloEvent(dst []byte, view string, version uint64, cols []string) []byte {
	dst = append(dst, "event: hello\ndata: {\"view\":"...)
	dst = appendJSONString(dst, view)
	dst = append(dst, ",\"version\":"...)
	dst = strconv.AppendUint(dst, version, 10)
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
// view and pushes each commit's row delta ("change" events: removed
// and added rows at a version). The stream opens with a "hello" event
// carrying the columns and the version it is live from. Slow
// consumers and redefined views get the stream closed; clients
// re-read and re-subscribe. Exempt from the per-request deadline.
func (e *Engine) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("view")
	v, _, err := e.lookupView(name, nil)
	if err != nil {
		writeError(w, err)
		return
	}
	sub := e.subs.attach(name, v)
	if sub == nil {
		writeError(w, ErrDraining)
		return
	}
	defer func() {
		e.subs.detach(sub)
		// Events queued before detach still hold references; put them
		// back. After detach (or a shed close) nothing sends on ch.
		for {
			select {
			case ev, ok := <-sub.ch:
				if !ok {
					return
				}
				ev.release()
			default:
				return
			}
		}
	}()
	flush := func() {}
	if fl, ok := w.(http.Flusher); ok {
		flush = fl.Flush
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	obs.Inc("server.subscribe.opened")

	_, version := e.Snapshot()
	hello := appendHelloEvent(nil, name, version, v.Schema().AttributeNames())
	if _, err := w.Write(hello); err != nil {
		return
	}
	flush()

	ping := time.NewTicker(subKeepalive)
	defer ping.Stop()
	ctx := r.Context()
	for {
		select {
		case ev, ok := <-sub.ch:
			if !ok {
				return // shed (slow consumer), view redefined, or shutdown
			}
			_, werr := w.Write(ev.buf)
			ev.release()
			if werr != nil {
				return
			}
			// Drain whatever is already queued before paying one flush
			// for the lot.
			for drained := false; !drained; {
				select {
				case more, ok := <-sub.ch:
					if !ok {
						flush()
						return
					}
					_, werr := w.Write(more.buf)
					more.release()
					if werr != nil {
						return
					}
				default:
					drained = true
				}
			}
			flush()
		case <-ping.C:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			flush()
		case <-ctx.Done():
			return
		}
	}
}
