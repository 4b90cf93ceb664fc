package core

import (
	"fmt"

	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/view"
)

// Effects describes what applying a translation does to a view beyond
// the requested change — the paper's "side effects in the view", which
// are impossible for SP views under the five criteria but inherent to
// some join-view updates ("there are some updates for views involving
// joins that cannot be translated without side effects in the view").
type Effects struct {
	// ExtraAdded holds view rows that appear although the request did
	// not ask for them.
	ExtraAdded *tuple.Set
	// ExtraRemoved holds view rows that disappear although the request
	// did not ask for their removal.
	ExtraRemoved *tuple.Set
}

// None reports whether the translation has no view side effects.
func (e *Effects) None() bool {
	return e.ExtraAdded.Len() == 0 && e.ExtraRemoved.Len() == 0
}

// String renders the effects compactly.
func (e *Effects) String() string {
	if e.None() {
		return "no view side effects"
	}
	return fmt.Sprintf("view side effects: +%d rows, -%d rows", e.ExtraAdded.Len(), e.ExtraRemoved.Len())
}

// SideEffects applies tr to a copy-on-write overlay of db and reports
// the view changes beyond those requested by r. The database itself is
// not modified. An error is returned if the translation cannot be
// applied.
func SideEffects(db storage.Source, v view.View, r Request, tr *update.Translation) (*Effects, error) {
	return NewVerifier(db, v, r).SideEffects(tr)
}
