package server

import (
	"errors"
	"sync"

	"viewupdate/internal/obs"
)

// ErrIdemRetry marks a request that waited on a concurrent attempt
// with the same idempotency key, only to see that attempt fail cleanly
// (nothing applied). The client should simply retry: the key is free
// again and the retry will execute fresh. Mapped to 503 + Retry-After.
var ErrIdemRetry = errors.New("server: concurrent request with same idempotency key failed; retry")

// An idemEntry tracks one idempotency key from its first sighting.
// Until done is closed the original attempt is in flight; afterwards
// either ok is true and the recorded outcome is final, or the attempt
// failed cleanly and the entry has been removed from the table.
type idemEntry struct {
	done    chan struct{}
	ok      bool
	version uint64
	class   string // translator class of the original outcome ("" when recovered)
	// replayed marks entries seeded from WAL recovery: the commit is
	// durable but its reply details (class, exact version) died with
	// the crashed process.
	replayed bool
}

// An idemTable is the bounded durable-idempotency dedup table: request
// keys of landed commits map to their recorded outcome, so a retry
// after an ambiguous ack (client timeout mid-fsync, crash before the
// response) returns the original outcome instead of re-translating and
// double-applying. Keys reach the table three ways: reserved by a live
// request, fulfilled by the commit pipeline, or seeded at boot from
// the keys recovery found in the WAL.
//
// The table is bounded: once more than cap fulfilled entries exist,
// the oldest are evicted FIFO. In-flight reservations are never
// evicted (they are bounded by admission control).
type idemTable struct {
	mu   sync.Mutex
	cap  int
	m    map[string]*idemEntry
	fifo []string // fulfilled keys in completion order, for eviction
}

// reserve claims key for the calling request. The second result is
// false when the key was free and is now reserved by the caller —
// the caller must later fulfill or release it. It is true when the key
// is already known: the returned entry is either complete (done
// closed) or still in flight, and the caller should wait on done.
func (t *idemTable) reserve(key string) (*idemEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = map[string]*idemEntry{}
	}
	if e, ok := t.m[key]; ok {
		return e, true
	}
	e := &idemEntry{done: make(chan struct{})}
	t.m[key] = e
	return e, false
}

// fulfill records the landed outcome for key and wakes every waiter.
// The entry's class was stashed by the reserving handler before
// submission; fulfill only records the landing version. No-op for
// unknown keys (a reservation released by a racing path).
func (t *idemTable) fulfill(key string, version uint64) {
	t.mu.Lock()
	e, ok := t.m[key]
	if !ok || e.ok {
		t.mu.Unlock()
		return
	}
	e.ok = true
	e.version = version
	t.fifo = append(t.fifo, key)
	t.evictLocked()
	close(e.done)
	t.mu.Unlock()
}

// release frees a reservation whose attempt failed cleanly (nothing
// applied): the key becomes reusable and current waiters are told to
// retry. Fulfilled entries are never released — an ambiguous ack must
// keep resolving to its original outcome.
func (t *idemTable) release(key string) {
	t.mu.Lock()
	e, ok := t.m[key]
	if !ok || e.ok {
		t.mu.Unlock()
		return
	}
	delete(t.m, key)
	close(e.done)
	t.mu.Unlock()
}

// seed installs a key recovered from the WAL as already fulfilled at
// the given version (the engine's boot version: the pre-crash version
// numbering died with the process).
func (t *idemTable) seed(key string, version uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = map[string]*idemEntry{}
	}
	if _, ok := t.m[key]; ok {
		return
	}
	e := &idemEntry{done: make(chan struct{}), ok: true, version: version, replayed: true}
	close(e.done)
	t.m[key] = e
	t.fifo = append(t.fifo, key)
	t.evictLocked()
}

// evictLocked drops the oldest fulfilled entries beyond the capacity.
// Callers hold t.mu.
func (t *idemTable) evictLocked() {
	for t.cap > 0 && len(t.fifo) > t.cap {
		old := t.fifo[0]
		t.fifo = t.fifo[1:]
		delete(t.m, old)
		obs.Inc("server.idem.evicted")
	}
	obs.SetGauge("server.idem.entries", int64(len(t.m)))
}

// size reports the number of tracked keys (in-flight + fulfilled).
func (t *idemTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}
