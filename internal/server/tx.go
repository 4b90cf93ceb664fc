package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"viewupdate/internal/core"
	"viewupdate/internal/obs"
	"viewupdate/internal/storage"
	"viewupdate/internal/view"
)

// ErrNoTx marks a request carrying an unknown or expired transaction
// token.
var ErrNoTx = errors.New("server: unknown or expired transaction")

// txTTL is how long a wire transaction may sit idle before the sweeper
// reaps it.
const txTTL = 60 * time.Second

// A wireTx is one open wire transaction: a copy-on-write overlay all
// its statements run against, the version of the snapshot it was
// staged from (checked strictly at commit), and a deadline after which
// the sweeper reaps it.
type wireTx struct {
	token       string
	mu          sync.Mutex // serializes statements on one token
	staged      *storage.Overlay
	baseVersion uint64
	expires     time.Time // guarded by the table's mu, not tx.mu
	ops         int
}

// txTable tracks open transactions by token. It owns every deadline:
// put sets one and get pushes it out, both under mu, which is also what
// the sweep reads them under.
type txTable struct {
	mu  sync.Mutex
	m   map[string]*wireTx
	ttl time.Duration
}

func (t *txTable) open() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// sweepLocked drops expired transactions. Called under t.mu.
func (t *txTable) sweepLocked(now time.Time) {
	for tok, tx := range t.m {
		if now.After(tx.expires) {
			delete(t.m, tok)
			obs.Inc("server.tx.expired")
		}
	}
	obs.SetGauge("server.tx.open", int64(len(t.m)))
}

func (t *txTable) put(tx *wireTx) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = map[string]*wireTx{}
	}
	now := time.Now()
	t.sweepLocked(now)
	tx.expires = now.Add(t.ttl)
	t.m[tx.token] = tx
	obs.SetGauge("server.tx.open", int64(len(t.m)))
}

func (t *txTable) get(token string) (*wireTx, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	t.sweepLocked(now)
	tx := t.m[token]
	if tx == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoTx, token)
	}
	tx.expires = now.Add(t.ttl)
	return tx, nil
}

func (t *txTable) drop(token string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.m, token)
	obs.SetGauge("server.tx.open", int64(len(t.m)))
}

// newToken returns a fresh 16-byte random hex token.
func newToken() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: generating token: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// BeginTx opens a wire transaction against the current snapshot and
// returns its token. The staged state is a copy-on-write overlay over
// the snapshot — statements record deltas in the overlay; the snapshot
// stays immutable for concurrent readers and nothing is copied.
func (e *Engine) BeginTx() (string, error) {
	if e.fol != nil {
		// Transactions exist to stage writes; fail at BEGIN rather than
		// at a commit the client already invested statements in.
		return "", ErrReadOnly
	}
	snap, version := e.Snapshot()
	token, err := newToken()
	if err != nil {
		return "", err
	}
	e.txs.put(&wireTx{
		token:       token,
		staged:      storage.NewOverlay(snap),
		baseVersion: version,
	})
	obs.Inc("server.tx.begin")
	return token, nil
}

// TxUpdate translates and applies one view update inside the
// transaction's staged state. Nothing reaches the live database until
// TxCommit.
func (e *Engine) TxUpdate(ctx context.Context, token, viewName string, prefer []string, build func(view.View, storage.Source) (core.Request, error)) (core.Candidate, *core.Effects, error) {
	tx, err := e.txs.get(token)
	if err != nil {
		return core.Candidate{}, nil, err
	}
	v, pol, err := e.lookupView(viewName, prefer)
	if err != nil {
		return core.Candidate{}, nil, err
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	req, err := build(v, tx.staged)
	if err != nil {
		return core.Candidate{}, nil, err
	}
	cand, eff, err := translateOn(ctx, tx.staged, v, pol, req)
	if err != nil {
		return core.Candidate{}, nil, err
	}
	if err := tx.staged.Apply(cand.Translation); err != nil {
		return core.Candidate{}, nil, fmt.Errorf("server: staging %s: %w", cand.Translation, err)
	}
	tx.ops++
	obs.Inc("server.tx.update")
	return cand, eff, nil
}

// TxView returns a readable source for the transaction's staged state,
// so clients can read their own uncommitted writes.
func (e *Engine) TxView(token string) (storage.Source, error) {
	tx, err := e.txs.get(token)
	if err != nil {
		return nil, err
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	// Snapshot the overlay (the delta is copied, the base is shared) so
	// the caller reads a stable state even if another request on the
	// same token stages more updates concurrently.
	return tx.staged.Snapshot(), nil
}

// TxCommit turns the staged overlay's delta into a translation and
// submits it as a strict commit: it lands only if the database is
// still at the version the transaction was staged from, otherwise
// ErrConflict. The token is consumed either way — a conflicted
// transaction must be restaged from a fresh snapshot, matching the
// sqlish session's first-writer-wins semantics.
func (e *Engine) TxCommit(ctx context.Context, token string) (int, uint64, error) {
	tx, err := e.txs.get(token)
	if err != nil {
		return 0, 0, err
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	e.txs.drop(token)
	diff := tx.staged.Diff()
	if diff.Len() == 0 {
		_, v := e.Snapshot()
		obs.Inc("server.tx.commit.empty")
		return 0, v, nil
	}
	version, err := e.Commit(ctx, diff, true, tx.baseVersion)
	if err != nil {
		return 0, 0, err
	}
	obs.Inc("server.tx.commit")
	return diff.Len(), version, nil
}

// TxRollback discards the transaction.
func (e *Engine) TxRollback(token string) error {
	if _, err := e.txs.get(token); err != nil {
		return err
	}
	e.txs.drop(token)
	obs.Inc("server.tx.rollback")
	return nil
}
