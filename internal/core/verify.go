package core

import (
	"viewupdate/internal/obs"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/view"
)

// A Verifier evaluates candidate translations for one (state, view,
// request) triple: validity, the five criteria, and view side effects.
// It judges a candidate by its row delta: the candidate is applied to a
// copy-on-write storage.Overlay and view.DeltaForChange names the rows
// that leave and enter the view, so no view extension is ever built;
// the few membership questions about V(DB) itself are key lookups
// (view.Lookup). Cost is O(candidate), independent of the size of the
// view.
//
// A Verifier is immutable and safe for concurrent use: every
// evaluation works on its own overlay.
type Verifier struct {
	src storage.Source
	v   view.View
	r   Request
	// nodes are the view's SP nodes, root first; an SP view is its own
	// one-node tree.
	nodes []*view.SP
}

// NewVerifier returns a verifier for candidates of r against v over src.
func NewVerifier(src storage.Source, v view.View, r Request) *Verifier {
	return &Verifier{src: src, v: v, r: r, nodes: relationsOf(v)}
}

// NewVerifierWithBefore is NewVerifier: its before argument, a
// materialization of v over src, is unused — the verifier builds no
// extension to save. It survives only until a benchmark PR can drop the
// call in bench/trace.go.
func NewVerifierWithBefore(src storage.Source, v view.View, r Request, _ *tuple.Set) *Verifier {
	return NewVerifier(src, v, r)
}

// delta applies tr to a fresh overlay and returns it with the view
// rows tr removes and adds (disjoint; the caller owns both sets).
func (vf *Verifier) delta(tr *update.Translation) (after storage.Source, removedRows, addedRows *tuple.Set, err error) {
	ov := storage.NewOverlay(vf.src)
	if err := ov.Apply(tr); err != nil {
		return nil, nil, nil, err
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
	return ov, removedRows, addedRows, nil
}

// Valid is the one validity notion, for SP and join views alike: an SP
// view is a one-node tree. A translation is valid iff it applies and
//
//  1. U is defined on V(DB) and done: every row the request adds
//     enters the view, and every row it removes leaves it;
//  2. every root node row an op makes is the projection of the
//     request's new row onto the root; and each op on a non-root
//     node's relation inserts a tuple or replaces one in place (same
//     key), and the tuple's node row is the projection of the request's
//     new row onto that node. A delete request has no such op;
//  3. every other view row that changes keeps its root key: the key is
//     no requested row's, the row stays in the view, and no op touches
//     its root tuple — so it changes only through the nodes (2)
//     replaced in place.
//
// On an SP view (2) and (3) admit nothing more: Valid is exactly the
// paper's V(DB′) = U(V(DB)). On a join view (3) admits §5's one
// exception, the side effect of SPJ-I Case 3: a non-root tuple the
// request needs is replaced in place, and the rows referencing it
// follow. Cost: one overlay apply, one DeltaForChange, and a node
// lookup or two per op.
func (vf *Verifier) Valid(tr *update.Translation) bool {
	after, removedRows, addedRows, err := vf.delta(tr)
	if err != nil {
		return false
	}
	r := vf.r
	if r.Kind == update.Replace && r.Old.Equal(r.New) {
		row, ok := vf.v.Lookup(vf.src, r.Old)
		return removedRows.Len() == 0 && addedRows.Len() == 0 && ok && row.Equal(r.Old)
	}
	// (1): a requested row in the delta was absent from V(DB) (added)
	// or present in it (removed), so U is defined there.
	for _, t := range r.AddedTuples() {
		if !addedRows.Remove(t) {
			return false
		}
	}
	for _, t := range r.RemovedTuples() {
		if !removedRows.Remove(t) {
			return false
		}
	}
	rootKeys, ok := vf.nodeOpsValid(tr, after)
	if !ok {
		return false
	}
	// (3): what is left of the delta are the other rows that change.
	for _, t := range r.Mentioned() {
		rootKeys[keyOf(t)] = true
	}
	stays := map[string]bool{}
	for _, t := range addedRows.Slice() {
		k := keyOf(t)
		if rootKeys[k] {
			return false
		}
		stays[k] = true
	}
	for _, t := range removedRows.Slice() {
		if !stays[keyOf(t)] {
			return false
		}
	}
	return true
}

// nodeOpsValid checks clause (2) of Valid against the state after tr
// and returns the keys of the root tuples tr touches.
func (vf *Verifier) nodeOpsValid(tr *update.Translation, after storage.Source) (rootKeys map[string]bool, ok bool) {
	rootKeys = map[string]bool{}
	root := vf.nodes[0]
	var newRow tuple.T
	if added := vf.r.AddedTuples(); len(added) == 1 {
		newRow = added[0]
	}
	// enters reports whether an op makes a root node row for t's key
	// other than the projection of the request's new row.
	enters := func(t tuple.T) bool {
		a, okA := nodeRow(root, after, t)
		if !okA || (!newRow.IsZero() && a.Equal(projectOnto(root, newRow))) {
			return false
		}
		b, okB := nodeRow(root, vf.src, t)
		return !okB || !b.Equal(a)
	}
	for _, o := range tr.Ops() {
		t := o.Tuple
		if o.Kind == update.Replace {
			t = o.New
		}
		idx := -1
		for i, n := range vf.nodes {
			if n.Base() == t.Relation() {
				idx = i
				break
			}
		}
		switch {
		case idx == 0:
			rootKeys[keyOf(t)] = true
			if o.Kind == update.Replace {
				rootKeys[keyOf(o.Old)] = true
			}
			if o.Kind != update.Delete && enters(t) {
				return nil, false
			}
		case idx > 0:
			if o.Kind == update.Delete || newRow.IsZero() ||
				(o.Kind == update.Replace && o.Old.Key() != o.New.Key()) {
				return nil, false
			}
			row, visible := vf.nodes[idx].RowFor(t)
			if !visible || !row.Equal(projectOnto(vf.nodes[idx], newRow)) {
				return nil, false
			}
		}
	}
	return rootKeys, true
}

// nodeRow returns node n's row of the base tuple with t's key in src,
// if n selects it.
func nodeRow(n *view.SP, src storage.Source, t tuple.T) (tuple.T, bool) {
	base, ok := src.LookupKey(t)
	if !ok {
		return tuple.T{}, false
	}
	return n.RowFor(base)
}

// keyOf encodes t's key values without its relation's name, so a view
// row and its root base tuple share one encoding: the view key is the
// root's key.
func keyOf(t tuple.T) string {
	k, _ := t.ProjectEncode(t.Relation().Key())
	return k
}

// projectOnto projects a view row onto node n's SP view: "the
// projections of the join view to the attributes listed in each SP
// view".
func projectOnto(n *view.SP, row tuple.T) tuple.T {
	p, _ := n.Projection().Apply(n.Schema(), row)
	return p
}

// SideEffects reports the view changes of tr beyond those requested. An
// error is returned if the translation cannot be applied.
func (vf *Verifier) SideEffects(tr *update.Translation) (*Effects, error) {
	_, removedRows, addedRows, err := vf.delta(tr)
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
