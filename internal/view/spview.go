// Package view implements the paper's view class: select-project (SP)
// views over a single BCNF relation, and select-project-join (SPJ)
// views in SPJNF whose joins are reference connections forming a rooted
// tree.
//
// Both classes key their rows by one base relation's key (the SP base,
// the join root), so a base change moves only the rows of the keys it
// reaches. DeltaForChange is that fact as an API, with one contract for
// both classes: given the states before and after a base change and
// the base tuples the change removed and added (a replace contributes
// to both; tuples of relations the view does not read are ignored),
//
//	Materialize(after) == Materialize(before) - removedRows + addedRows
//
// with removedRows ⊆ Materialize(before), addedRows ∩
// Materialize(before) = ∅ and removedRows ∩ addedRows = ∅: a row
// identical in both states is in neither set. Rows are looked up in the
// two states by key, so the result is exact even when removed and added
// overlap, and costs O(touched keys), never O(view).
package view

import (
	"fmt"

	"viewupdate/internal/algebra"
	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/value"
)

// A View is anything that can be materialized from a database state
// and maintained by row delta. The two implementations are *SP and
// *Join.
type View interface {
	// Name returns the view's name.
	Name() string
	// Schema returns the relation schema of the view rows.
	Schema() *schema.Relation
	// Materialize computes the view extension on db.
	Materialize(db storage.Source) *tuple.Set
	// Lookup returns the row of Materialize(db) whose key matches
	// probe's key (probe is a tuple of the view schema); ok is false if
	// there is no such row.
	Lookup(db storage.Source, probe tuple.T) (row tuple.T, ok bool)
	// DeltaForChange returns the exact row delta of a base change; see
	// the package comment for the contract.
	DeltaForChange(before, after storage.Source, removed, added []tuple.T) (removedRows, addedRows *tuple.Set)
}

// An SP view is a selection and projection of one base relation. The
// paper's requirements, enforced at construction: the selection is a
// conjunction of "attribute ∈ set" terms, all key attributes are
// projected (so "the key of the database is the key of the view"), and
// any selecting attribute may be projected out.
type SP struct {
	name string
	base *schema.Relation
	sel  *algebra.Selection
	proj *algebra.Projection
	vrel *schema.Relation
}

// NewSP builds an SP view named name over sel's relation, projecting
// the given attributes (which must include the base key).
func NewSP(name string, sel *algebra.Selection, projAttrs []string) (*SP, error) {
	base := sel.Relation()
	proj, err := algebra.NewProjection(base, projAttrs)
	if err != nil {
		return nil, err
	}
	vrel, err := proj.DerivedSchema(name)
	if err != nil {
		return nil, fmt.Errorf("view: %s: %w", name, err)
	}
	return &SP{name: name, base: base, sel: sel.Clone(), proj: proj, vrel: vrel}, nil
}

// MustNewSP is NewSP, panicking on error.
func MustNewSP(name string, sel *algebra.Selection, projAttrs []string) *SP {
	v, err := NewSP(name, sel, projAttrs)
	if err != nil {
		panic(err)
	}
	return v
}

// Identity returns the identity view of base ("the SP view could be the
// identity view, i.e., no selection or projection").
func Identity(name string, base *schema.Relation) *SP {
	return MustNewSP(name, algebra.NewSelection(base), base.AttributeNames())
}

// Name implements View.
func (v *SP) Name() string { return v.name }

// Base returns the underlying relation schema.
func (v *SP) Base() *schema.Relation { return v.base }

// Selection returns the view's selection condition.
func (v *SP) Selection() *algebra.Selection { return v.sel }

// Projection returns the view's projection.
func (v *SP) Projection() *algebra.Projection { return v.proj }

// Schema implements View: the derived relation schema, whose key is the
// base key.
func (v *SP) Schema() *schema.Relation { return v.vrel }

// IsIdentity reports whether the view has no selection and keeps all
// attributes.
func (v *SP) IsIdentity() bool { return v.sel.IsTrue() && v.proj.IsIdentity() }

// ProjectedOut returns the base attributes not visible in the view.
func (v *SP) ProjectedOut() []string { return v.proj.RemovedAttributes() }

// RowFor maps a base tuple to its view row; ok is false if the tuple
// fails the selection.
func (v *SP) RowFor(base tuple.T) (tuple.T, bool) {
	if !v.sel.Matches(base) {
		return tuple.T{}, false
	}
	row, err := v.proj.Apply(v.vrel, base)
	if err != nil {
		panic(fmt.Sprintf("view: projecting %s into %s: %v", base, v.name, err))
	}
	return row, true
}

// Materialize implements View. When the base relation carries a
// secondary index on one of the view's selecting attributes, only the
// tuples holding selecting values of that attribute are visited.
func (v *SP) Materialize(db storage.Source) *tuple.Set {
	out := tuple.NewSet()
	base := v.base.Name()
	for _, attr := range v.sel.SelectingAttributes() {
		if db.HasIndex(base, attr) {
			db.ScanValues(base, attr, v.sel.SelectingValues(attr), func(t tuple.T) bool {
				if row, ok := v.RowFor(t); ok {
					out.Add(row)
				}
				return true
			})
			return out
		}
	}
	db.Each(base, func(t tuple.T) bool {
		if row, ok := v.RowFor(t); ok {
			out.Add(row)
		}
		return true
	})
	return out
}

// Lookup implements View.
func (v *SP) Lookup(db storage.Source, probe tuple.T) (tuple.T, bool) {
	base, ok := v.BaseForKey(db, probe)
	if !ok {
		return tuple.T{}, false
	}
	return v.RowFor(base)
}

// DeltaForChange implements View. The base key is the view key, so the
// rows that can differ are those of the touched base keys.
func (v *SP) DeltaForChange(before, after storage.Source, removed, added []tuple.T) (removedRows, addedRows *tuple.Set) {
	removedRows, addedRows = tuple.NewSet(), tuple.NewSet()
	for _, ts := range [2][]tuple.T{removed, added} {
		for _, t := range ts {
			if t.Relation().Name() == v.base.Name() {
				diffRow(before, after, t, v.rowOf, removedRows, addedRows)
			}
		}
	}
	return removedRows, addedRows
}

func (v *SP) rowOf(_ storage.Source, base tuple.T) (tuple.T, bool) { return v.RowFor(base) }

// diffRow records how the row generated by the base tuple with probe's
// key differs between two states: nothing if it is the same row (or
// absent) in both, otherwise its before-row as removed and its
// after-row as added.
func diffRow(before, after storage.Source, probe tuple.T, rowOf func(storage.Source, tuple.T) (tuple.T, bool), removedRows, addedRows *tuple.Set) {
	var rowB, rowA tuple.T
	var okB, okA bool
	if b, ok := before.LookupKey(probe); ok {
		rowB, okB = rowOf(before, b)
	}
	if a, ok := after.LookupKey(probe); ok {
		rowA, okA = rowOf(after, a)
	}
	if okB && okA && rowB.Equal(rowA) {
		return
	}
	if okB {
		removedRows.Add(rowB)
	}
	if okA {
		addedRows.Add(rowA)
	}
}

// BaseForKey returns the base tuple whose key matches probe's key
// (probe is of the view schema — the view and base keys coincide),
// whether or not it satisfies the selection.
func (v *SP) BaseForKey(db storage.Source, probe tuple.T) (tuple.T, bool) {
	if p, ok := keyProbe(v.base, probe.Get); ok {
		return db.LookupKey(p)
	}
	return tuple.T{}, false
}

// keyProbe builds a tuple of rel whose key attributes take the values
// key reports for their names (ok is false if it lacks one); non-key
// attributes take an arbitrary domain value. The result is only good
// for key lookups.
func keyProbe(rel *schema.Relation, key func(attr string) (value.Value, bool)) (tuple.T, bool) {
	attrs := rel.Attributes()
	vals := make([]value.Value, len(attrs))
	for i, a := range attrs {
		vals[i] = a.Domain.At(0)
		if rel.IsKey(a.Name) {
			var ok bool
			if vals[i], ok = key(a.Name); !ok {
				return tuple.T{}, false
			}
		}
	}
	return tuple.MustNew(rel, vals...), true
}
