package sqlish

import (
	"fmt"

	"viewupdate/internal/persist"
	"viewupdate/internal/storage"
	"viewupdate/internal/update"
)

// txState holds an open transaction, staged the way a wire transaction
// is: base is the copy-on-write snapshot taken at BEGIN (nothing is
// copied until the live side next writes; it is what COMMIT's
// optimistic conflict check compares against), staged the overlay over
// it that every statement reads and writes, stmts the buffered journal
// texts (appended to the session journal only on COMMIT, so SAVE TO
// scripts replay exactly the committed statements).
type txState struct {
	base   *storage.Database
	staged *storage.Overlay
	stmts  []string
}

// cur returns the state statements should read: the staged overlay
// inside a transaction, the live database otherwise.
func (s *Session) cur() storage.Source {
	if s.tx != nil {
		return s.tx.staged
	}
	return s.db
}

// applyTr applies a translation at the right level: the staged overlay
// inside a transaction, the live state otherwise.
func (s *Session) applyTr(tr *update.Translation) error {
	if s.tx != nil {
		return s.tx.staged.Apply(tr)
	}
	return s.applyLive(tr)
}

// applyLive commits a translation to the live state: through the
// installed durable applier, or on the plain in-memory database.
func (s *Session) applyLive(tr *update.Translation) error {
	if s.applier != nil {
		return s.applier(tr)
	}
	return s.db.Apply(tr)
}

// InTx reports whether a transaction is open.
func (s *Session) InTx() bool { return s.tx != nil }

// AttachStore couples the session to a durable store: translations
// committed outside a transaction journal through it and DDL
// checkpoints it. A store created from this session's database simply
// starts journaling; one recovered from disk is adopted first (see
// AdoptRecovered), which requires the session to be empty.
func (s *Session) AttachStore(st *persist.Store) error {
	if s.tx != nil {
		return fmt.Errorf("sqlish: cannot attach a store inside a transaction")
	}
	if st.DB() != s.db {
		if err := s.AdoptRecovered(st.DB()); err != nil {
			return err
		}
	}
	s.applier = st.Apply
	s.schemaChanged = st.Checkpoint
	return nil
}

func (s *Session) execBegin() (string, error) {
	if s.tx != nil {
		return "", fmt.Errorf("sqlish: transaction already open (nesting is not supported)")
	}
	if err := s.db.Err(); err != nil {
		return "", err
	}
	base := s.db.CloneShared()
	s.tx = &txState{base: base, staged: storage.NewOverlay(base)}
	return "transaction started", nil
}

func (s *Session) execCommit() (string, error) {
	if s.tx == nil {
		return "", fmt.Errorf("sqlish: no open transaction")
	}
	// Optimistic concurrency: the staged delta is only meaningful
	// relative to the state the transaction started from. If the live
	// database moved in the meantime, applying it would silently
	// clobber the concurrent changes.
	if !s.db.Equal(s.tx.base) {
		return "", fmt.Errorf("sqlish: commit conflict: database changed since BEGIN (transaction still open)")
	}
	diff := s.tx.staged.Diff()
	if diff.Len() == 0 {
		s.tx = nil
		return "committed (no changes)", nil
	}
	if err := s.applyLive(diff); err != nil {
		// The staged state survives: a transient failure can be
		// retried with another COMMIT, or abandoned with ROLLBACK.
		return "", fmt.Errorf("sqlish: commit failed (transaction still open): %w", err)
	}
	s.journal = append(s.journal, s.tx.stmts...)
	n := diff.Len()
	s.tx = nil
	return fmt.Sprintf("committed %d operation(s)", n), nil
}

func (s *Session) execRollback() (string, error) {
	if s.tx == nil {
		return "", fmt.Errorf("sqlish: no open transaction")
	}
	n := len(s.tx.stmts)
	s.tx = nil
	return fmt.Sprintf("rolled back %d statement(s)", n), nil
}

// txAllowed reports whether stmt may run inside a transaction: data
// statements and reads only. DDL, policy configuration and file I/O
// change session state that the staged overlay cannot isolate, so they
// must happen outside.
func txAllowed(stmt Stmt) bool {
	switch stmt.(type) {
	case Insert, Delete, Update, Select, Show, ShowCandidates, ShowEffects, Commit, Rollback:
		return true
	}
	return false
}
