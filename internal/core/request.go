// Package core implements the paper's contribution: translation of view
// update requests into database update translations.
//
// It provides
//
//   - Request: single-tuple view insert/delete/replace requests and
//     their validity conditions (§4-2);
//   - the five criteria for acceptable translations (§3) as executable
//     checkers;
//   - the complete translation enumerators for SP views — algorithm
//     classes I-1, I-2 (with extend-insert), D-1, D-2, and R-1 … R-5
//     (with extend-replace) (§4);
//   - the join-view algorithms SPJ-D, SPJ-I and SPJ-R and their
//     composition with SP views (§5);
//   - policies that select one translation among the candidates (the
//     paper's "additional semantics" chosen by the DBA).
package core

import (
	"fmt"

	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
)

// A Request is a single-tuple update expressed against a view. For
// Insert and Delete, Tuple is the fully specified view tuple. For
// Replace, Old and New are the replaced and replacement view tuples.
type Request struct {
	Kind  update.Kind
	Tuple tuple.T
	Old   tuple.T
	New   tuple.T
}

// InsertRequest asks that t appear in the view.
func InsertRequest(t tuple.T) Request { return Request{Kind: update.Insert, Tuple: t} }

// DeleteRequest asks that t disappear from the view.
func DeleteRequest(t tuple.T) Request { return Request{Kind: update.Delete, Tuple: t} }

// ReplaceRequest asks that old be replaced by new in the view, as one
// atomic action.
func ReplaceRequest(old, new tuple.T) Request {
	return Request{Kind: update.Replace, Old: old, New: new}
}

// BuildRequest turns a statement against v — an insert's positional
// values, or a delete's or replace's where plus a replace's set — into
// the single-tuple request it means over src. The where names its row
// through view.Select over that same state, so every front door (the
// wire, a wire transaction, sqlish) refuses a where that names no row
// or several with the same verdict.
func BuildRequest(v view.View, src storage.Source, kind update.Kind, values []value.Value, where, set []view.Eq) (Request, error) {
	switch {
	case kind == update.Insert:
		t, err := tuple.New(v.Schema(), values...)
		if err != nil {
			return Request{}, err
		}
		return InsertRequest(t), nil
	case kind != update.Delete && kind != update.Replace:
		return Request{}, fmt.Errorf("core: unsupported update kind %v", kind)
	case kind == update.Replace && len(set) == 0:
		return Request{}, fmt.Errorf("core: replace needs a set clause")
	case len(where) == 0:
		return Request{}, fmt.Errorf("core: where clause required")
	}
	// Folding set with tuple.With would let the last of two assignments
	// to one attribute win silently.
	if err := view.CheckEq(v.Schema(), set); err != nil {
		return Request{}, err
	}
	rows, err := view.Select(v, src, where)
	if err != nil {
		return Request{}, err
	}
	if len(rows) == 0 {
		return Request{}, fmt.Errorf("core: no row of %s matches", v.Name())
	}
	if len(rows) > 1 {
		return Request{}, fmt.Errorf("core: %d rows of %s match; requests are single-tuple — refine the where clause", len(rows), v.Name())
	}
	if kind == update.Delete {
		return DeleteRequest(rows[0]), nil
	}
	newRow := rows[0]
	for _, c := range set {
		if newRow, err = newRow.With(c.Attr, c.Val); err != nil {
			return Request{}, err
		}
	}
	return ReplaceRequest(rows[0], newRow), nil
}

// AddedTuples returns the view tuples the request adds (insert tuple,
// replacement new tuple).
func (r Request) AddedTuples() []tuple.T {
	switch r.Kind {
	case update.Insert:
		return []tuple.T{r.Tuple}
	case update.Replace:
		return []tuple.T{r.New}
	}
	return nil
}

// RemovedTuples returns the view tuples the request removes.
func (r Request) RemovedTuples() []tuple.T {
	switch r.Kind {
	case update.Delete:
		return []tuple.T{r.Tuple}
	case update.Replace:
		return []tuple.T{r.Old}
	}
	return nil
}

// Mentioned returns all view tuples mentioned by the request.
func (r Request) Mentioned() []tuple.T {
	return append(r.RemovedTuples(), r.AddedTuples()...)
}

// String renders the request.
func (r Request) String() string {
	switch r.Kind {
	case update.Insert:
		return fmt.Sprintf("view-insert %s", r.Tuple)
	case update.Delete:
		return fmt.Sprintf("view-delete %s", r.Tuple)
	case update.Replace:
		return fmt.Sprintf("view-replace %s -> %s", r.Old, r.New)
	}
	return "<invalid request>"
}

// ApplyToViewSet computes U(V): the view extension after performing the
// request directly on the given extension, "were the view an ordinary
// relation". It fails when the request is not applicable to the
// extension (e.g. deleting an absent tuple).
func (r Request) ApplyToViewSet(s *tuple.Set) (*tuple.Set, error) {
	out := s.Clone()
	switch r.Kind {
	case update.Insert:
		if out.Contains(r.Tuple) {
			return nil, fmt.Errorf("core: inserted tuple %s already in view", r.Tuple)
		}
		out.Add(r.Tuple)
	case update.Delete:
		if !out.Remove(r.Tuple) {
			return nil, fmt.Errorf("core: deleted tuple %s not in view", r.Tuple)
		}
	case update.Replace:
		if !out.Remove(r.Old) {
			return nil, fmt.Errorf("core: replaced tuple %s not in view", r.Old)
		}
		if out.Contains(r.New) {
			return nil, fmt.Errorf("core: replacement tuple %s already in view", r.New)
		}
		out.Add(r.New)
	default:
		return nil, fmt.Errorf("core: invalid request kind")
	}
	return out, nil
}

// ValidateRequest checks the paper's applicability conditions of a
// request against the current database state (§4-3, §4-4, §4-5 for SP
// views; §5-2 adds join consistency for join views):
//
//   - insert: the new view tuple satisfies the selection condition
//     (restricted to visible attributes) and no view tuple with its key
//     exists;
//   - delete: the view tuple is currently in the view;
//   - replace: the replaced tuple is in the view, the replacement tuple
//     is not, both satisfy the selection condition, and any existing
//     view tuple with the replacement's key is the replaced tuple.
func ValidateRequest(db storage.Source, v view.View, r Request) error {
	var selects func(t tuple.T) error
	switch vv := v.(type) {
	case *view.SP:
		selects = func(t tuple.T) error {
			if !vv.Selection().MatchesProjected(t) {
				return fmt.Errorf("core: %s does not satisfy the selection condition of %s", t, v.Name())
			}
			return nil
		}
	case *view.Join:
		selects = func(t tuple.T) error {
			if err := vv.JoinConsistent(t); err != nil {
				return err
			}
			for i, n := range vv.Nodes() {
				if !n.SP.Selection().MatchesProjected(vv.ProjectNode(i, t)) {
					return fmt.Errorf("core: %s fails the selection of node %s of %s", t, n.SP.Name(), v.Name())
				}
			}
			return nil
		}
	default:
		return fmt.Errorf("core: unsupported view type %T", v)
	}
	if err := checkSchema(v, r.Mentioned()...); err != nil {
		return err
	}
	inView := func(t tuple.T) bool {
		row, ok := v.Lookup(db, t)
		return ok && row.Equal(t)
	}
	switch r.Kind {
	case update.Insert:
		if err := selects(r.Tuple); err != nil {
			return err
		}
		if row, ok := v.Lookup(db, r.Tuple); ok {
			return fmt.Errorf("core: view %s already contains %s with the key of %s", v.Name(), row, r.Tuple)
		}
	case update.Delete:
		if !inView(r.Tuple) {
			return fmt.Errorf("core: %s is not currently in view %s", r.Tuple, v.Name())
		}
	case update.Replace:
		if r.Old.Equal(r.New) {
			return fmt.Errorf("core: replacement does not change the tuple")
		}
		if !inView(r.Old) {
			return fmt.Errorf("core: replaced tuple %s is not in view %s", r.Old, v.Name())
		}
		if err := selects(r.New); err != nil {
			return err
		}
		if newRow, ok := v.Lookup(db, r.New); ok {
			if newRow.Equal(r.New) {
				return fmt.Errorf("core: replacement tuple %s is already in view %s", r.New, v.Name())
			}
			if !newRow.Equal(r.Old) {
				return fmt.Errorf("core: view %s contains %s conflicting with the replacement's key", v.Name(), newRow)
			}
		}
	default:
		return fmt.Errorf("core: invalid request kind")
	}
	return nil
}

func checkSchema(v view.View, ts ...tuple.T) error {
	for _, t := range ts {
		if t.IsZero() || t.Relation() != v.Schema() {
			return fmt.Errorf("core: tuple %s is not of view %s's schema", t, v.Name())
		}
	}
	return nil
}
