package view_test

import (
	"math/rand"
	"testing"

	"viewupdate/internal/algebra"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
	"viewupdate/internal/workload"
)

// Select's safety net: over random states — a database, and an overlay
// staging inserts, deletes and replaces over it — and every shape of
// equality set, view.Select must return exactly the rows a filter over
// v.Materialize(src).Slice() returns, in the same order. The keyed arm
// never materializes, so this is what keeps it honest.

// selectCases draws equality sets over v's schema (single-attribute
// key, as both generators build): empty; every key of the key domain —
// rows in the view, base tuples the selection or a join hides, absent
// keys; each key with a random non-key value, non-key first; each
// current row's key with one of the row's own values; per non-key
// attribute a value some row holds and a random one; random non-key
// pairs.
func selectCases(rng *rand.Rand, v view.View, src storage.Source) [][]view.Eq {
	rel := v.Schema()
	key, _ := rel.Attribute(rel.Key()[0])
	var nonKey []string
	for _, a := range rel.AttributeNames() {
		if !rel.IsKey(a) {
			nonKey = append(nonKey, a)
		}
	}
	randomEq := func() view.Eq {
		a, _ := rel.Attribute(nonKey[rng.Intn(len(nonKey))])
		return view.Eq{Attr: a.Name, Val: a.Domain.Values()[rng.Intn(a.Domain.Size())]}
	}
	cases := [][]view.Eq{nil}
	for _, k := range key.Domain.Values() {
		keyed := view.Eq{Attr: key.Name, Val: k}
		cases = append(cases, []view.Eq{keyed}, []view.Eq{randomEq(), keyed})
	}
	rows := v.Materialize(src).Slice()
	for _, row := range rows {
		own := nonKey[rng.Intn(len(nonKey))]
		cases = append(cases, []view.Eq{
			{Attr: key.Name, Val: row.MustGet(key.Name)},
			{Attr: own, Val: row.MustGet(own)},
			{Attr: key.Name, Val: row.MustGet(key.Name)}, // repeated, same value
		})
	}
	for _, name := range nonKey {
		if len(rows) > 0 {
			cases = append(cases, []view.Eq{{Attr: name, Val: rows[rng.Intn(len(rows))].MustGet(name)}})
		}
		cases = append(cases, []view.Eq{randomEq()}, []view.Eq{randomEq(), randomEq()})
	}
	return cases
}

// checkSelect compares Select with the reference on every case; a pair
// of random equalities may contradict itself, which both sides must
// agree is an error.
func checkSelect(t *testing.T, ctx string, rng *rand.Rand, v view.View, src storage.Source) {
	t.Helper()
	all := v.Materialize(src).Slice()
	for _, eq := range selectCases(rng, v, src) {
		contradiction := len(eq) == 2 && eq[0].Attr == eq[1].Attr && eq[0].Val != eq[1].Val
		got, err := view.Select(v, src, eq)
		if (err != nil) != contradiction {
			t.Fatalf("%s: Select(%s, %v): err = %v, contradiction = %v", ctx, v.Name(), eq, err, contradiction)
		}
		if contradiction {
			continue
		}
		var want []tuple.T
		for _, row := range all {
			keep := true
			for _, c := range eq {
				keep = keep && row.MustGet(c.Attr) == c.Val
			}
			if keep {
				want = append(want, row)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: Select(%s, %v) = %v, filter of Materialize = %v", ctx, v.Name(), eq, got, want)
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: Select(%s, %v)[%d] = %s, want %s", ctx, v.Name(), eq, i, got[i], want[i])
			}
		}
	}
}

// runSelectChurn checks v over db and over an overlay staging up to
// three of next's translations, then lands the first of them so the
// next round starts from a new state.
func runSelectChurn(t *testing.T, rng *rand.Rand, v view.View, db *storage.Database, iters int, next func() *update.Translation) {
	t.Helper()
	for i := 0; i < iters; i++ {
		checkSelect(t, "database", rng, v, db)
		ov := storage.NewOverlay(db)
		var first *update.Translation
		for n := 0; n < 3; n++ {
			tr := next()
			if tr.Len() == 0 || ov.Apply(tr) != nil {
				continue // drawn against db; may not apply over what is staged
			}
			if first == nil {
				first = tr
			}
		}
		if removed, added := ov.DeltaSize(); removed+added > 0 {
			checkSelect(t, "overlay", rng, v, ov)
		}
		if first != nil {
			if err := db.Apply(first); err != nil {
				t.Fatalf("iter %d: overlay accepted but database rejected: %v", i, err)
			}
		}
	}
}

func TestSelectMatchesFilteredMaterializeSP(t *testing.T) {
	w := workload.MustNewSP(workload.SPConfig{
		Keys: 64, Attrs: 3, DomainSize: 4, SelectingAttrs: 1, HiddenAttrs: 1,
		Tuples: 40, Seed: 19,
	})
	rng := rand.New(rand.NewSource(23))
	runSelectChurn(t, rng, w.View, w.DB, 40, func() *update.Translation {
		if op, ok := randomSPOp(w, rng); ok {
			return update.NewTranslation(op)
		}
		return update.NewTranslation()
	})
}

func TestSelectMatchesFilteredMaterializeTree(t *testing.T) {
	w := workload.MustNewTree(workload.TreeConfig{
		Depth: 2, Fanout: 2, Keys: 40, TuplesPerRelation: 24, Seed: 29,
	})
	s := &treeChurn{w: w, rng: rand.New(rand.NewSource(31))}
	runSelectChurn(t, s.rng, w.View, w.DB, 25, s.randomTranslation)
}

// TestSelectJoinParentHidden: the root tuple of a key exists but the
// tuple it references fails its node's selection, so the key names no
// row — for Lookup as for Materialize — and a staged replace of the
// parent's payload moves rows in and out of the view.
func TestSelectJoinParentHidden(t *testing.T) {
	w := workload.MustNewTree(workload.TreeConfig{
		Depth: 1, Fanout: 1, Keys: 40, TuplesPerRelation: 24, Seed: 37,
	})
	root, parent := w.Relations[0], w.Relations[1]
	low := make([]value.Value, 50)
	for i := range low {
		low[i] = value.NewInt(int64(i))
	}
	sel := algebra.NewSelection(parent)
	if err := sel.AddTerm(parent.AttributeNames()[1], low...); err != nil {
		t.Fatal(err)
	}
	v := view.MustNewJoin("LOW", w.Schema, &view.Node{
		SP: view.Identity("rootv", root),
		Refs: []view.Ref{{
			Attrs:  []string{root.AttributeNames()[2]},
			Target: &view.Node{SP: view.MustNewSP("lowv", sel, parent.AttributeNames())},
		}},
	})
	if n := v.Materialize(w.DB).Len(); n == 0 || n == w.DB.Len(root.Name()) {
		t.Fatalf("fixture: %d of %d root tuples join; want some hidden, some not", n, w.DB.Len(root.Name()))
	}
	s := &treeChurn{w: w, rng: rand.New(rand.NewSource(41))}
	runSelectChurn(t, s.rng, v, w.DB, 25, s.randomTranslation)
}

// TestSelectRefusesMeaninglessEqualities: a conjunction nobody could
// mean is an error naming the attribute, never an empty result — keyed
// or not, and the same for SelectBase over the base relation.
func TestSelectRefusesMeaninglessEqualities(t *testing.T) {
	w := workload.MustNewSP(workload.SPConfig{Keys: 8, Attrs: 2, DomainSize: 2, Tuples: 4, Seed: 1})
	k := func(i int64) view.Eq { return view.Eq{Attr: "K", Val: value.NewInt(i)} }
	for _, tc := range []struct {
		name string
		eq   []view.Eq
	}{
		{"unknown attribute", []view.Eq{{Attr: "Nope", Val: value.NewInt(1)}}},
		{"unknown attribute beside the key", []view.Eq{k(1), {Attr: "Nope", Val: value.NewInt(1)}}},
		{"key outside its domain", []view.Eq{k(99)}},
		{"key of the wrong kind", []view.Eq{{Attr: "K", Val: value.NewString("x")}}},
		{"non-key outside its domain", []view.Eq{{Attr: "A0", Val: value.NewString("zz")}}},
		{"key given two values", []view.Eq{k(1), k(2)}},
	} {
		if rows, err := view.Select(w.View, w.DB, tc.eq); err == nil {
			t.Errorf("Select, %s: %d rows and no error", tc.name, len(rows))
		}
		if rows, err := view.SelectBase(w.Rel, w.DB, tc.eq); err == nil {
			t.Errorf("SelectBase, %s: %d tuples and no error", tc.name, len(rows))
		}
	}
}

// runMaterializeChurn stages up to three of next's translations on an
// overlay over db and applies the same ones to a clone of db, then
// checks that Materialize — whose scan visits the base in no particular
// order — returns the same set over both, and that SelectBase lists
// every relation of the schema the way the clone's key-ordered Tuples
// does. The first staged translation then lands on db.
func runMaterializeChurn(t *testing.T, v view.View, db *storage.Database, iters int, next func() *update.Translation) {
	t.Helper()
	for i := 0; i < iters; i++ {
		ov, eq := storage.NewOverlay(db), db.Clone()
		var first *update.Translation
		for n := 0; n < 3; n++ {
			tr := next()
			if tr.Len() == 0 || ov.Apply(tr) != nil {
				continue
			}
			if err := eq.Apply(tr); err != nil {
				t.Fatalf("iter %d: overlay accepted but the clone rejected %s: %v", i, tr, err)
			}
			if first == nil {
				first = tr
			}
		}
		if got, want := v.Materialize(ov), v.Materialize(eq); !got.Equal(want) {
			t.Fatalf("iter %d: Materialize over the overlay = %d rows, over an equal database = %d", i, got.Len(), want.Len())
		}
		for _, name := range db.Schema().RelationNames() {
			got, err := view.SelectBase(db.Schema().Relation(name), ov, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := eq.Tuples(name)
			if len(got) != len(want) {
				t.Fatalf("iter %d: SelectBase(%s) over the overlay = %d tuples, want %d", i, name, len(got), len(want))
			}
			for j := range got {
				if !got[j].Equal(want[j]) {
					t.Fatalf("iter %d: SelectBase(%s)[%d] = %s, want %s", i, name, j, got[j], want[j])
				}
			}
		}
		if first != nil {
			if err := db.Apply(first); err != nil {
				t.Fatalf("iter %d: overlay accepted but database rejected: %v", i, err)
			}
		}
	}
}

func TestMaterializeOverOverlayMatchesDatabase(t *testing.T) {
	t.Run("SP", func(t *testing.T) {
		w := workload.MustNewSP(workload.SPConfig{
			Keys: 64, Attrs: 3, DomainSize: 4, SelectingAttrs: 1, HiddenAttrs: 1,
			Tuples: 40, Seed: 43,
		})
		rng := rand.New(rand.NewSource(47))
		runMaterializeChurn(t, w.View, w.DB, 40, func() *update.Translation {
			if op, ok := randomSPOp(w, rng); ok {
				return update.NewTranslation(op)
			}
			return update.NewTranslation()
		})
	})
	t.Run("Join", func(t *testing.T) {
		w := workload.MustNewTree(workload.TreeConfig{
			Depth: 2, Fanout: 2, Keys: 40, TuplesPerRelation: 24, Seed: 53,
		})
		s := &treeChurn{w: w, rng: rand.New(rand.NewSource(59))}
		runMaterializeChurn(t, w.View, w.DB, 25, s.randomTranslation)
	})
}
