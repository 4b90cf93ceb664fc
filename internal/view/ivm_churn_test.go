package view_test

import (
	"math/rand"
	"testing"

	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
	"viewupdate/internal/workload"
)

// These churn property tests pin incremental view maintenance to full
// rebuilds, for both view classes through the one View.DeltaForChange
// contract: a maintained set patched with each step's delta must stay
// byte-for-byte equal to Materialize after every commit of a randomized
// base-update stream — payload replaces at every tree level (including
// ones only a projected-out attribute sees), foreign-key retargets,
// root and non-root inserts and deletes, and multi-relation
// translations.

// sameRows compares two sets byte-for-byte via their canonical
// encodings in deterministic order.
func sameRows(a, b *tuple.Set) bool {
	as, bs := a.Slice(), b.Slice()
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i].Encode() != bs[i].Encode() {
			return false
		}
	}
	return true
}

// patched returns set edited by the row delta, copy-on-write.
func patched(set, removedRows, addedRows *tuple.Set) *tuple.Set {
	out := set.Clone()
	for _, r := range removedRows.Slice() {
		out.Remove(r)
	}
	for _, r := range addedRows.Slice() {
		out.Add(r)
	}
	return out
}

// stepDelta checks v.DeltaForChange for the change tr makes between
// before (whose extension is maintained) and after, and returns the
// maintained set carried across it. The delta must be disjoint,
// normalized (only rows of the before state leave, no row of the before
// state enters — a row identical in both states is in neither set) and
// exact (patching reproduces Materialize(after)).
func stepDelta(t *testing.T, iter int, v view.View, before, after storage.Source, tr *update.Translation, maintained *tuple.Set) *tuple.Set {
	t.Helper()
	remRows, addRows := v.DeltaForChange(before, after, tr.Removed().Slice(), tr.Added().Slice())
	for _, r := range remRows.Slice() {
		if addRows.Contains(r) {
			t.Fatalf("iter %d: row in both delta sets: %s", iter, r)
		}
		if !maintained.Contains(r) {
			t.Fatalf("iter %d: removed row was not maintained: %s", iter, r)
		}
	}
	for _, r := range addRows.Slice() {
		if maintained.Contains(r) {
			t.Fatalf("iter %d: added row was already maintained: %s", iter, r)
		}
	}
	got := patched(maintained, remRows, addRows)
	if want := v.Materialize(after); !sameRows(got, want) {
		t.Fatalf("iter %d: IVM of %s diverges from rebuild after %s\n got %d rows, want %d",
			iter, v.Name(), tr, got.Len(), want.Len())
	}
	return got
}

// treeChurn generates random base translations against a TreeWorkload.
type treeChurn struct {
	w   *workload.TreeWorkload
	rng *rand.Rand
}

// referencedParent resolves the parent relation of child's FK attr.
func referencedParent(sch *schema.Database, child, attr string) string {
	for _, d := range sch.InclusionsFrom(child) {
		if len(d.ChildAttrs) == 1 && d.ChildAttrs[0] == attr {
			return d.Parent
		}
	}
	return ""
}

// randomExisting picks a random current tuple of rel, or ok=false.
func (s *treeChurn) randomExisting(rel *schema.Relation) (tuple.T, bool) {
	ts := s.w.DB.Tuples(rel.Name())
	if len(ts) == 0 {
		return tuple.T{}, false
	}
	return ts[s.rng.Intn(len(ts))], true
}

// freshTuple builds a tuple of rel under an unused key, foreign keys
// pointing at random existing parent tuples.
func (s *treeChurn) freshTuple(rel *schema.Relation) (tuple.T, bool) {
	used := make(map[int64]bool)
	for _, t := range s.w.DB.Tuples(rel.Name()) {
		used[t.At(0).Int()] = true
	}
	keyDom := rel.Attributes()[0].Domain
	var key value.Value
	found := false
	for i := 0; i < 64 && !found; i++ {
		kv := keyDom.Values()[s.rng.Intn(keyDom.Size())]
		if !used[kv.Int()] {
			key, found = kv, true
		}
	}
	if !found {
		return tuple.T{}, false
	}
	vals := make([]value.Value, rel.Arity())
	for i, a := range rel.Attributes() {
		switch {
		case i == 0:
			vals[i] = key
		case a.Name[0] == 'P':
			vals[i] = a.Domain.Values()[s.rng.Intn(a.Domain.Size())]
		default: // foreign key
			target := referencedParent(s.w.Schema, rel.Name(), a.Name)
			parent, ok := s.randomExisting(s.w.Schema.Relation(target))
			if !ok {
				return tuple.T{}, false
			}
			vals[i] = parent.At(0)
		}
	}
	return tuple.MustNew(rel, vals...), true
}

// randomOp draws one base operation. The mix favors non-root payload
// replaces and FK retargets — the cases the old verifier could only
// handle by rematerializing — but also exercises root deletes, inserts
// at every level, and (sometimes invalid, then skipped) non-root
// deletes.
func (s *treeChurn) randomOp() (update.Op, bool) {
	rels := s.w.Relations
	rel := rels[s.rng.Intn(len(rels))]
	switch c := s.rng.Intn(10); {
	case c < 4: // payload replace anywhere
		old, ok := s.randomExisting(rel)
		if !ok {
			return update.Op{}, false
		}
		pa := rel.Attributes()[1]
		nv := pa.Domain.Values()[s.rng.Intn(pa.Domain.Size())]
		if nv == old.At(1) {
			return update.Op{}, false
		}
		return update.NewReplace(old, old.MustWith(pa.Name, nv)), true
	case c < 7: // FK retarget anywhere a relation has FKs
		if rel.Arity() < 3 {
			return update.Op{}, false
		}
		old, ok := s.randomExisting(rel)
		if !ok {
			return update.Op{}, false
		}
		fk := rel.Attributes()[2+s.rng.Intn(rel.Arity()-2)]
		target := referencedParent(s.w.Schema, rel.Name(), fk.Name)
		parent, ok := s.randomExisting(s.w.Schema.Relation(target))
		if !ok {
			return update.Op{}, false
		}
		if parent.At(0) == old.MustGet(fk.Name) {
			return update.Op{}, false
		}
		return update.NewReplace(old, old.MustWith(fk.Name, parent.At(0))), true
	case c < 8: // insert at any level
		t, ok := s.freshTuple(rel)
		if !ok {
			return update.Op{}, false
		}
		return update.NewInsert(t), true
	case c < 9: // root delete (always reference-safe)
		old, ok := s.randomExisting(rels[0])
		if !ok {
			return update.Op{}, false
		}
		return update.NewDelete(old), true
	default: // non-root delete; rejected by Apply when referenced
		old, ok := s.randomExisting(rel)
		if !ok {
			return update.Op{}, false
		}
		return update.NewDelete(old), true
	}
}

// randomTranslation combines up to three ops on distinct tuples.
func (s *treeChurn) randomTranslation() *update.Translation {
	tr := update.NewTranslation()
	touched := make(map[string]bool)
	n := 1 + s.rng.Intn(3)
	for i := 0; i < n; i++ {
		op, ok := s.randomOp()
		if !ok {
			continue
		}
		var key string
		if op.Kind == update.Replace {
			key = op.Old.Key()
		} else {
			key = op.Tuple.Key()
		}
		if touched[key] {
			continue
		}
		touched[key] = true
		tr.Add(op)
	}
	return tr
}

func runTreeChurn(t *testing.T, cfg workload.TreeConfig, iters int) {
	t.Helper()
	w := workload.MustNewTree(cfg)
	maintained := w.View.Materialize(w.DB)
	s := &treeChurn{w: w, rng: rand.New(rand.NewSource(cfg.Seed + 1))}

	applied := 0
	for i := 0; i < iters; i++ {
		tr := s.randomTranslation()
		if tr.Len() == 0 {
			continue
		}
		ov := storage.NewOverlay(w.DB)
		if err := ov.Apply(tr); err != nil {
			continue // e.g. deleting a referenced non-root tuple
		}
		got := stepDelta(t, i, w.View, w.DB, ov, tr, maintained)
		if err := w.DB.Apply(tr); err != nil {
			t.Fatalf("iter %d: overlay accepted but database rejected: %v", i, err)
		}
		maintained = got
		applied++
	}
	if applied < iters/2 {
		t.Fatalf("only %d/%d random translations were applicable", applied, iters)
	}
	if !sameRows(maintained, w.View.Materialize(w.DB)) {
		t.Fatal("final maintained set diverges from full rebuild")
	}
}

func TestIVMChurnTreeDepth2Fanout2(t *testing.T) {
	runTreeChurn(t, workload.TreeConfig{
		Depth: 2, Fanout: 2, Keys: 40, TuplesPerRelation: 24, Seed: 7,
	}, 120)
}

func TestIVMChurnTreeDepth3Fanout1(t *testing.T) {
	runTreeChurn(t, workload.TreeConfig{
		Depth: 3, Fanout: 1, Keys: 32, TuplesPerRelation: 20, Seed: 11,
	}, 120)
}

// randomSPOp draws one operation on the SP workload's (non-empty) base
// relation: a replace of a random attribute (may toggle visibility), a
// delete, or an insert under a fresh key; ok is false for a draw that
// would change nothing.
func randomSPOp(w *workload.SPWorkload, rng *rand.Rand) (update.Op, bool) {
	ts := w.DB.Tuples(w.Rel.Name())
	switch rng.Intn(3) {
	case 0:
		old := ts[rng.Intn(len(ts))]
		a := w.Rel.Attributes()[1+rng.Intn(w.Rel.Arity()-1)]
		nv := a.Domain.Values()[rng.Intn(a.Domain.Size())]
		if nv == old.MustGet(a.Name) {
			return update.Op{}, false
		}
		return update.NewReplace(old, old.MustWith(a.Name, nv)), true
	case 1:
		return update.NewDelete(ts[rng.Intn(len(ts))]), true
	default:
		used := make(map[int64]bool)
		for _, t := range ts {
			used[t.At(0).Int()] = true
		}
		keyDom := w.Rel.Attributes()[0].Domain
		kv := keyDom.Values()[rng.Intn(keyDom.Size())]
		if used[kv.Int()] {
			return update.Op{}, false
		}
		vals := make([]value.Value, w.Rel.Arity())
		vals[0] = kv
		for ai := 1; ai < w.Rel.Arity(); ai++ {
			d := w.Rel.Attributes()[ai].Domain
			vals[ai] = d.Values()[rng.Intn(d.Size())]
		}
		return update.NewInsert(tuple.MustNew(w.Rel, vals...)), true
	}
}

// TestIVMChurnSP runs the same per-step contract check on an SP view
// with a selecting and a hidden attribute: replaces toggle visibility,
// or change only what the view projects out (an empty delta).
func TestIVMChurnSP(t *testing.T) {
	w := workload.MustNewSP(workload.SPConfig{
		Keys: 64, Attrs: 3, DomainSize: 4, SelectingAttrs: 1, HiddenAttrs: 1,
		Tuples: 40, Seed: 13,
	})
	rng := rand.New(rand.NewSource(17))
	maintained := w.View.Materialize(w.DB)

	applied := 0
	for i := 0; i < 150; i++ {
		if w.DB.Len(w.Rel.Name()) == 0 {
			break
		}
		op, ok := randomSPOp(w, rng)
		if !ok {
			continue
		}
		tr := update.NewTranslation(op)
		ov := storage.NewOverlay(w.DB)
		if err := ov.Apply(tr); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		got := stepDelta(t, i, w.View, w.DB, ov, tr, maintained)
		if err := w.DB.Apply(tr); err != nil {
			t.Fatal(err)
		}
		maintained = got
		applied++
	}
	if applied < 50 {
		t.Fatalf("only %d SP translations applied", applied)
	}
	if !sameRows(maintained, w.View.Materialize(w.DB)) {
		t.Fatal("final maintained SP set diverges from full rebuild")
	}
}
