package core

import (
	"viewupdate/internal/obs"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/view"
)

// A Verifier evaluates candidate translations for one (state, view,
// request) triple: validity under both semantics, the five criteria,
// and view side effects. It judges a candidate by its row delta: the
// candidate is applied to a copy-on-write storage.Overlay and
// view.DeltaForChange names the rows that leave and enter the view.
// V(DB′) = U(V(DB)) holds iff that delta is the request's own, so no
// view extension is ever built; the few membership questions about
// V(DB) itself are key lookups (view.Lookup). Cost is O(candidate),
// independent of the size of the view.
//
// A Verifier is immutable and safe for concurrent use: every
// evaluation works on its own overlay.
type Verifier struct {
	src storage.Source
	v   view.View
	r   Request
}

// NewVerifier returns a verifier for candidates of r against v over src.
func NewVerifier(src storage.Source, v view.View, r Request) *Verifier {
	return &Verifier{src: src, v: v, r: r}
}

// NewVerifierWithBefore is NewVerifier: its before argument, a
// materialization of v over src, is unused — the verifier builds no
// extension to save. It survives only until a benchmark PR can drop the
// call in bench/trace.go.
func NewVerifierWithBefore(src storage.Source, v view.View, r Request, _ *tuple.Set) *Verifier {
	return NewVerifier(src, v, r)
}

// delta applies tr to a fresh overlay and returns the view rows it
// removes and adds (disjoint; the caller owns both sets).
func (vf *Verifier) delta(tr *update.Translation) (removedRows, addedRows *tuple.Set, err error) {
	ov := storage.NewOverlay(vf.src)
	if err := ov.Apply(tr); err != nil {
		return nil, nil, err
	}
	obs.Inc("core.verify.delta")
	var removed, added []tuple.T
	for _, o := range tr.Ops() {
		switch o.Kind {
		case update.Insert:
			added = append(added, o.Tuple)
		case update.Delete:
			removed = append(removed, o.Tuple)
		case update.Replace:
			removed, added = append(removed, o.Old), append(added, o.New)
		}
	}
	removedRows, addedRows = vf.v.DeltaForChange(vf.src, ov, removed, added)
	return removedRows, addedRows, nil
}

// inView reports whether t is a row of V(DB).
func (vf *Verifier) inView(t tuple.T) bool {
	row, ok := vf.v.Lookup(vf.src, t)
	return ok && row.Equal(t)
}

// Valid implements the paper's exact validity — V(DB′) = U(V(DB)) — for
// the verifier's request, against the candidate translation: the
// candidate's row delta must be exactly what U does to V(DB), and U
// must be defined there (Request.ApplyToViewSet is the executable
// spec). A matching non-empty delta implies the latter — removed rows
// are in V(DB), added rows are not — so only the degenerate replace of
// a row by itself has to look.
func (vf *Verifier) Valid(tr *update.Translation) bool {
	removedRows, addedRows, err := vf.delta(tr)
	if err != nil {
		return false
	}
	switch r := vf.r; {
	case r.Kind == update.Insert:
		return removedRows.Len() == 0 && only(addedRows, r.Tuple)
	case r.Kind == update.Delete:
		return only(removedRows, r.Tuple) && addedRows.Len() == 0
	case r.Kind == update.Replace && !r.Old.Equal(r.New):
		return only(removedRows, r.Old) && only(addedRows, r.New)
	case r.Kind == update.Replace:
		return removedRows.Len() == 0 && addedRows.Len() == 0 && vf.inView(r.Old)
	}
	return false
}

// only reports whether s is exactly {t}.
func only(s *tuple.Set, t tuple.T) bool { return s.Len() == 1 && s.Contains(t) }

// ValidRequested implements the relaxed validity applicable to join
// views: requested additions present, requested removals absent, other
// rows free to change.
func (vf *Verifier) ValidRequested(tr *update.Translation) bool {
	removedRows, addedRows, err := vf.delta(tr)
	if err != nil {
		return false
	}
	// A row is in V(DB′) if the candidate adds it, or it was in V(DB)
	// and the candidate leaves it alone.
	after := func(t tuple.T) bool {
		return addedRows.Contains(t) || (!removedRows.Contains(t) && vf.inView(t))
	}
	for _, t := range vf.r.AddedTuples() {
		if !after(t) {
			return false
		}
	}
	for _, t := range vf.r.RemovedTuples() {
		if after(t) {
			return false
		}
	}
	return true
}

// SideEffects reports the view changes of tr beyond those requested. An
// error is returned if the translation cannot be applied.
func (vf *Verifier) SideEffects(tr *update.Translation) (*Effects, error) {
	removedRows, addedRows, err := vf.delta(tr)
	if err != nil {
		return nil, err
	}
	for _, t := range vf.r.AddedTuples() {
		addedRows.Remove(t)
	}
	for _, t := range vf.r.RemovedTuples() {
		removedRows.Remove(t)
	}
	return &Effects{ExtraAdded: addedRows, ExtraRemoved: removedRows}, nil
}
