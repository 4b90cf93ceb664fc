package core

import (
	"testing"

	"viewupdate/internal/algebra"
	"viewupdate/internal/fixtures"
	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
)

// indepFixture builds R(K*, A) with K ∈ {1,2,3} and A ∈ {a,b,c}, plus
// views used by the independence witnesses.
type indepFixture struct {
	sch *schema.Database
	rel *schema.Relation
}

func newIndepFixture(t testing.TB) *indepFixture {
	t.Helper()
	kDom := schema.MustDomain("K", value.NewInt(1), value.NewInt(2), value.NewInt(3))
	aDom := schema.MustDomain("A", value.NewString("a"), value.NewString("b"), value.NewString("c"))
	rel := schema.MustRelation("R", []schema.Attribute{
		{Name: "K", Domain: kDom},
		{Name: "A", Domain: aDom},
	}, []string{"K"})
	sch := schema.NewDatabase()
	if err := sch.AddRelation(rel); err != nil {
		t.Fatal(err)
	}
	return &indepFixture{sch: sch, rel: rel}
}

func (f *indepFixture) tup(t testing.TB, k int64, a string) tuple.T {
	t.Helper()
	return tuple.MustNew(f.rel, value.NewInt(k), value.NewString(a))
}

// violatedSet runs CheckCriteria and returns the violated criterion
// numbers.
func violatedSet(db storage.Source, v view.View, r Request, tr *update.Translation) map[int]bool {
	out := map[int]bool{}
	for _, viol := range CheckCriteria(db, v, r, tr, CheckOptions{}) {
		out[viol.Criterion] = true
	}
	return out
}

func wantOnly(t *testing.T, got map[int]bool, want int) {
	t.Helper()
	if len(got) != 1 || !got[want] {
		t.Fatalf("want exactly criterion %d violated, got %v", want, got)
	}
}

// TestCriteriaIndependence reproduces the theorem "the five criteria
// are independent": for each criterion there is a translation (in a
// suitable context) violating it and only it.
func TestCriteriaIndependence(t *testing.T) {
	f := newIndepFixture(t)

	t.Run("criterion1", func(t *testing.T) {
		// View selects on the key only, so D-2 does not exist and a
		// key-changing replacement to a hidden key violates only the
		// side-effect criterion.
		sel := algebra.NewSelection(f.rel).MustAddTerm("K", value.NewInt(1), value.NewInt(2))
		v := view.MustNewSP("V", sel, f.rel.AttributeNames())
		db := storage.Open(f.sch)
		if err := db.Load("R", f.tup(t, 1, "a")); err != nil {
			t.Fatal(err)
		}
		u := tuple.MustNew(v.Schema(), value.NewInt(1), value.NewString("a"))
		r := DeleteRequest(u)
		tr := update.NewTranslation(update.NewReplace(f.tup(t, 1, "a"), f.tup(t, 3, "a")))
		if !Valid(db, v, r, tr) {
			t.Fatal("witness should be a valid translation")
		}
		wantOnly(t, violatedSet(db, v, r, tr), 1)
	})

	t.Run("criterion2", func(t *testing.T) {
		// A replacement chain affects (1,b) twice. (Not applicable as a
		// set-based translation, but the criteria are predicates over
		// translations regardless of validity.)
		v := view.Identity("V", f.rel)
		db := storage.Open(f.sch)
		if err := db.Load("R", f.tup(t, 1, "a")); err != nil {
			t.Fatal(err)
		}
		u1 := tuple.MustNew(v.Schema(), value.NewInt(1), value.NewString("a"))
		u2 := tuple.MustNew(v.Schema(), value.NewInt(1), value.NewString("c"))
		r := ReplaceRequest(u1, u2)
		tr := update.NewTranslation(
			update.NewReplace(f.tup(t, 1, "a"), f.tup(t, 1, "b")),
			update.NewReplace(f.tup(t, 1, "b"), f.tup(t, 1, "c")),
		)
		wantOnly(t, violatedSet(db, v, r, tr), 2)
	})

	t.Run("criterion3", func(t *testing.T) {
		// Join view: inserting a root row under an existing parent while
		// also rewriting the parent's hidden attribute (its key appears
		// in the request) performs an unnecessary extra step — but no
		// database side effect, no multi-step tuple, no simplifiable
		// replacement, no delete-insert pair.
		fx := fixtures.NewSelABCXD(false)
		db := fx.Load(fx.ABTuple("a", 1, "h1"), fx.CXDTuple("c1", "a", 1))
		r := InsertRequest(fx.ViewTuple("c2", "a", 2, 1))
		tr := update.NewTranslation(
			update.NewInsert(fx.CXDTuple("c2", "a", 2)),
			update.NewReplace(fx.ABTuple("a", 1, "h1"), fx.ABTuple("a", 1, "h2")),
		)
		if !Valid(db, fx.View, r, tr) {
			t.Fatal("witness should be valid (the parent's view row is unchanged)")
		}
		wantOnly(t, violatedSet(db, fx.View, r, tr), 3)
	})

	t.Run("criterion4", func(t *testing.T) {
		// Replacement changing more attributes than the request needs:
		// the same-changes sub-replacement is valid, so the original
		// can be simplified.
		bDom := schema.MustDomain("B", value.NewString("x"), value.NewString("y"))
		rel := schema.MustRelation("R2", []schema.Attribute{
			{Name: "K", Domain: schema.MustDomain("K2", value.NewInt(1), value.NewInt(2))},
			{Name: "A", Domain: schema.MustDomain("A2", value.NewString("a"), value.NewString("b"), value.NewString("c"))},
			{Name: "B", Domain: bDom},
		}, []string{"K"})
		sch := schema.NewDatabase()
		if err := sch.AddRelation(rel); err != nil {
			t.Fatal(err)
		}
		v := view.Identity("V", rel)
		db := storage.Open(sch)
		base := tuple.MustNew(rel, value.NewInt(1), value.NewString("a"), value.NewString("x"))
		if err := db.Load("R2", base); err != nil {
			t.Fatal(err)
		}
		u1 := tuple.MustNew(v.Schema(), value.NewInt(1), value.NewString("a"), value.NewString("x"))
		u2 := tuple.MustNew(v.Schema(), value.NewInt(1), value.NewString("c"), value.NewString("x"))
		r := ReplaceRequest(u1, u2)
		// Changes A (needed) and B (gratuitous).
		tr := update.NewTranslation(update.NewReplace(base,
			tuple.MustNew(rel, value.NewInt(1), value.NewString("c"), value.NewString("y"))))
		wantOnly(t, violatedSet(db, v, r, tr), 4)
	})

	t.Run("criterion5", func(t *testing.T) {
		// The delete-insert pair that should have been a replacement.
		v := view.Identity("V", f.rel)
		db := storage.Open(f.sch)
		if err := db.Load("R", f.tup(t, 1, "a")); err != nil {
			t.Fatal(err)
		}
		u1 := tuple.MustNew(v.Schema(), value.NewInt(1), value.NewString("a"))
		u2 := tuple.MustNew(v.Schema(), value.NewInt(2), value.NewString("a"))
		r := ReplaceRequest(u1, u2)
		tr := update.NewTranslation(
			update.NewDelete(f.tup(t, 1, "a")),
			update.NewInsert(f.tup(t, 2, "a")),
		)
		if !Valid(db, v, r, tr) {
			t.Fatal("witness should be valid")
		}
		wantOnly(t, violatedSet(db, v, r, tr), 5)
	})
}

// TestCriterion1Positions verifies the "respective positions" clause:
// a key-changing database replacement must take its old key from the
// request's removed side and its new key from the added side.
func TestCriterion1Positions(t *testing.T) {
	f := newIndepFixture(t)
	v := view.Identity("V", f.rel)
	db := storage.Open(f.sch)
	if err := db.Load("R", f.tup(t, 1, "a")); err != nil {
		t.Fatal(err)
	}
	u1 := tuple.MustNew(v.Schema(), value.NewInt(1), value.NewString("a"))
	u2 := tuple.MustNew(v.Schema(), value.NewInt(2), value.NewString("a"))
	r := ReplaceRequest(u1, u2)
	// Backwards replacement: old key from the added side.
	tr := update.NewTranslation(update.NewReplace(f.tup(t, 2, "a"), f.tup(t, 1, "a")))
	got := violatedSet(db, v, r, tr)
	if !got[1] {
		t.Fatalf("backwards key movement should violate criterion 1, got %v", got)
	}
}

// TestValidRejectsInapplicable verifies that Valid is false for
// translations that cannot apply.
func TestValidRejectsInapplicable(t *testing.T) {
	f := newIndepFixture(t)
	v := view.Identity("V", f.rel)
	db := storage.Open(f.sch)
	if err := db.Load("R", f.tup(t, 1, "a")); err != nil {
		t.Fatal(err)
	}
	u := tuple.MustNew(v.Schema(), value.NewInt(1), value.NewString("a"))
	r := DeleteRequest(u)
	// Deleting a tuple that is not there.
	tr := update.NewTranslation(update.NewDelete(f.tup(t, 2, "a")))
	if Valid(db, v, r, tr) {
		t.Fatal("inapplicable translation must be invalid")
	}
	// The empty translation does not implement a delete.
	if Valid(db, v, r, update.NewTranslation()) {
		t.Fatal("empty translation must be invalid for a real request")
	}
}

// TestCompositionLemma reproduces the §5-3 lemma: translations of
// requests on views over disjoint relations compose — their union
// collectively satisfies the five criteria for the combined request.
// We model the combined request on a two-node join view whose nodes
// carry the two SP views, issuing per-node requests whose translations
// are unioned.
func TestCompositionLemma(t *testing.T) {
	fx := fixtures.NewABCXD()
	db := storage.Open(fx.Schema)
	if err := db.LoadAll(
		fx.ABTuple("a", 1), fx.ABTuple("a2", 2),
		fx.CXDTuple("c1", "a", 3),
	); err != nil {
		t.Fatal(err)
	}

	// View 1: identity over CXD; View 2: identity over AB. Disjoint
	// base relations.
	v1 := view.Identity("V1", fx.CXD)
	v2 := view.Identity("V2", fx.AB)

	// U1: delete (c1,a,3) from V1. U2: replace (a2,2) by (a2,1) in V2.
	u1 := tuple.MustNew(v1.Schema(), value.NewString("c1"), value.NewString("a"), value.NewInt(3))
	r1 := DeleteRequest(u1)
	c1s, err := EnumerateSP(db, v1, r1)
	if err != nil {
		t.Fatal(err)
	}
	old2 := tuple.MustNew(v2.Schema(), value.NewString("a2"), value.NewInt(2))
	new2 := tuple.MustNew(v2.Schema(), value.NewString("a2"), value.NewInt(1))
	r2 := ReplaceRequest(old2, new2)
	c2s, err := EnumerateSP(db, v2, r2)
	if err != nil {
		t.Fatal(err)
	}

	// Each side satisfies the criteria alone.
	if err := CheckCandidates(db, v1, r1, c1s, true); err != nil {
		t.Fatal(err)
	}
	if err := CheckCandidates(db, v2, r2, c2s, true); err != nil {
		t.Fatal(err)
	}

	// The union T = T1 ∪ T2 applies atomically and realizes both view
	// changes at once — and each criterion holds collectively: we check
	// the structural criteria (1, 2, 5) directly against the combined
	// request tuples and validity of the whole against both views.
	for _, c1 := range c1s {
		for _, c2 := range c2s {
			union := c1.Translation.Clone()
			union.AddAll(c2.Translation)
			clone := db.Clone()
			if err := clone.Apply(union); err != nil {
				t.Fatalf("union failed to apply: %v", err)
			}
			// Both views changed exactly as requested.
			want1, err := r1.ApplyToViewSet(v1.Materialize(db))
			if err != nil {
				t.Fatal(err)
			}
			if !v1.Materialize(clone).Equal(want1) {
				t.Fatalf("V1 did not change exactly: %s", union)
			}
			want2, err := r2.ApplyToViewSet(v2.Materialize(db))
			if err != nil {
				t.Fatal(err)
			}
			if !v2.Materialize(clone).Equal(want2) {
				t.Fatalf("V2 did not change exactly: %s", union)
			}
			// Structural criteria on the union w.r.t. the combined
			// request tuples.
			if viol := checkCriterion2(union); viol != nil {
				t.Fatalf("union violates criterion 2: %v", viol)
			}
			if viol := checkCriterion5(union); viol != nil {
				t.Fatalf("union violates criterion 5: %v", viol)
			}
		}
	}
}

// TestCheckOptionsCustomValid confirms criteria 3/4 use the supplied
// validity notion.
func TestCheckOptionsCustomValid(t *testing.T) {
	f := newIndepFixture(t)
	v := view.Identity("V", f.rel)
	db := storage.Open(f.sch)
	if err := db.Load("R", f.tup(t, 1, "a"), f.tup(t, 2, "b")); err != nil {
		t.Fatal(err)
	}
	u := tuple.MustNew(v.Schema(), value.NewInt(1), value.NewString("a"))
	r := DeleteRequest(u)
	tr := update.NewTranslation(
		update.NewDelete(f.tup(t, 1, "a")),
		update.NewDelete(f.tup(t, 2, "b")),
	)
	// Under "everything is valid", the proper-subset rule fires.
	viols := CheckCriteria(db, v, r, tr, CheckOptions{
		Valid: func(*update.Translation) bool { return true },
	})
	found := false
	for _, viol := range viols {
		if viol.Criterion == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("criterion 3 should fire under permissive validity, got %v", viols)
	}
	// Violation message renders.
	if len(viols) > 0 && viols[0].Error() == "" {
		t.Fatal("Violation.Error empty")
	}
}
