package bruteforce

import (
	"testing"

	"viewupdate/internal/algebra"
	"viewupdate/internal/core"
	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
)

// oracleFixture is a deliberately tiny instance over which exhaustive
// search is feasible: R(K*, A, S, H) with K ∈ {1,2,3}, A ∈ {x,y},
// S ∈ {s1,s2,s3}, H ∈ {h1,h2}; the view selects A ∈ {x} ∧ S ∈ {s1,s2}
// and projects K, A — so A is a visible selecting attribute, S a hidden
// selecting attribute, and H a hidden non-selecting attribute,
// exercising every branch of the algorithm classes.
type oracleFixture struct {
	sch *schema.Database
	rel *schema.Relation
	v   *view.SP
}

func newOracleFixture(t testing.TB) *oracleFixture {
	t.Helper()
	kDom, err := schema.IntRangeDomain("K", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	aDom, err := schema.StringDomain("A", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	sDom, err := schema.StringDomain("S", "s1", "s2", "s3")
	if err != nil {
		t.Fatal(err)
	}
	hDom, err := schema.StringDomain("H", "h1", "h2")
	if err != nil {
		t.Fatal(err)
	}
	rel := schema.MustRelation("R", []schema.Attribute{
		{Name: "K", Domain: kDom},
		{Name: "A", Domain: aDom},
		{Name: "S", Domain: sDom},
		{Name: "H", Domain: hDom},
	}, []string{"K"})
	sch := schema.NewDatabase()
	if err := sch.AddRelation(rel); err != nil {
		t.Fatal(err)
	}
	sel := algebra.NewSelection(rel).
		MustAddTerm("A", value.NewString("x")).
		MustAddTerm("S", value.NewString("s1"), value.NewString("s2"))
	v, err := view.NewSP("V", sel, []string{"K", "A"})
	if err != nil {
		t.Fatal(err)
	}
	return &oracleFixture{sch: sch, rel: rel, v: v}
}

func (f *oracleFixture) tuple(t testing.TB, k int64, a, s, h string) tuple.T {
	tp, err := tuple.New(f.rel,
		value.NewInt(k), value.NewString(a), value.NewString(s), value.NewString(h))
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func (f *oracleFixture) viewTuple(t testing.TB, k int64, a string) tuple.T {
	tp, err := tuple.New(f.v.Schema(), value.NewInt(k), value.NewString(a))
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// loadState opens a database holding one visible tuple (key 1) and one
// hidden tuple (key 2, excluded by both A and S).
func (f *oracleFixture) loadState(t testing.TB) *storage.Database {
	db := storage.Open(f.sch)
	if err := db.Load("R",
		f.tuple(t, 1, "x", "s1", "h1"), // visible as (1, x)
		f.tuple(t, 2, "y", "s3", "h2"), // hidden
	); err != nil {
		t.Fatal(err)
	}
	return db
}

// mustAgree runs the oracle and the generator on the same request and
// fails the test on any difference — the executable form of the
// paper's completeness theorems.
func mustAgree(t *testing.T, db *storage.Database, f *oracleFixture, r core.Request, cfg Config, wantCount int) {
	t.Helper()
	oracle, err := Search(db, f.v, r, cfg)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	gen, err := core.Enumerate(db, f.v, r)
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	onlyOracle, onlyGenerated := Diff(oracle, gen)
	if len(onlyOracle) > 0 {
		t.Errorf("oracle found %d translations the generators missed (incompleteness):\n%v", len(onlyOracle), onlyOracle)
	}
	if len(onlyGenerated) > 0 {
		t.Errorf("generators produced %d translations the oracle rejected (unsoundness):\n%v", len(onlyGenerated), onlyGenerated)
	}
	if wantCount >= 0 && len(gen) != wantCount {
		t.Errorf("want %d candidates, got %d:\n%s", wantCount, len(gen), core.DescribeCandidates(gen))
	}
}

// TestInsertCompletenessI1 validates the theorem "the set of update
// translations that satisfy the 5 criteria for individual view
// insertions are precisely those in algorithm classes I-1 and I-2" for
// the I-1 (no key conflict) regime.
func TestInsertCompletenessI1(t *testing.T) {
	f := newOracleFixture(t)
	db := f.loadState(t)
	// Key 3 is fresh: extend-insert chooses S ∈ {s1,s2} × H ∈ {h1,h2}.
	r := core.InsertRequest(f.viewTuple(t, 3, "x"))
	mustAgree(t, db, f, r, Config{MaxOps: 2}, 4)
}

// TestInsertCompletenessI2 validates the same theorem in the I-2
// (hidden key conflict) regime.
func TestInsertCompletenessI2(t *testing.T) {
	f := newOracleFixture(t)
	db := f.loadState(t)
	// Key 2 exists hidden with A=y (visible attr excluded) and S=s3
	// (hidden attr excluded): I-2 must set A:=x and flip S to s1 or s2,
	// keeping H; exactly 2 translations.
	r := core.InsertRequest(f.viewTuple(t, 2, "x"))
	mustAgree(t, db, f, r, Config{MaxOps: 2}, 2)
}

// TestDeleteCompleteness validates "the set of update translations that
// satisfy the 5 criteria for individual view deletions are precisely
// those in algorithm classes D-1 and D-2".
func TestDeleteCompleteness(t *testing.T) {
	f := newOracleFixture(t)
	db := f.loadState(t)
	// Deleting visible (1, x): D-1 (delete) + D-2 on A (y) + D-2 on S
	// (s3) = 3 translations.
	r := core.DeleteRequest(f.viewTuple(t, 1, "x"))
	mustAgree(t, db, f, r, Config{MaxOps: 2}, 3)
}

// TestReplaceCompleteness validates "the set of update translations
// that satisfy the five criteria for candidate update translations for
// individual view replacements are precisely those generated by
// algorithm classes R-1, R-2, R-3, R-4 and R-5". The main oracle
// fixture's only visible attributes are the key and a selecting
// attribute pinned by the selection, so key-preserving replacements
// would leave the view; this test therefore uses a view with a visible
// non-selecting attribute B.
func TestReplaceCompleteness(t *testing.T) {
	kDom, _ := schema.IntRangeDomain("K", 1, 3)
	bDom, _ := schema.StringDomain("B", "b1", "b2")
	sDom, _ := schema.StringDomain("S", "s1", "s2", "s3")
	rel := schema.MustRelation("R", []schema.Attribute{
		{Name: "K", Domain: kDom},
		{Name: "B", Domain: bDom},
		{Name: "S", Domain: sDom},
	}, []string{"K"})
	sch := schema.NewDatabase()
	if err := sch.AddRelation(rel); err != nil {
		t.Fatal(err)
	}
	sel := algebra.NewSelection(rel).MustAddTerm("S", value.NewString("s1"), value.NewString("s2"))
	v, err := view.NewSP("V", sel, []string{"K", "B"})
	if err != nil {
		t.Fatal(err)
	}
	db := storage.Open(sch)
	mk := func(k int64, b, s string) tuple.T {
		return tuple.MustNew(rel, value.NewInt(k), value.NewString(b), value.NewString(s))
	}
	if err := db.Load("R", mk(1, "b1", "s1"), mk(2, "b2", "s3")); err != nil {
		t.Fatal(err)
	}
	vt := func(k int64, b string) tuple.T {
		return tuple.MustNew(v.Schema(), value.NewInt(k), value.NewString(b))
	}

	// Key-preserving replacement (1,b1) -> (1,b2): R-1 only.
	r := core.ReplaceRequest(vt(1, "b1"), vt(1, "b2"))
	oracle, err := Search(db, v, r, Config{MaxOps: 2})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := core.Enumerate(db, v, r)
	if err != nil {
		t.Fatal(err)
	}
	oo, og := Diff(oracle, gen)
	if len(oo) > 0 || len(og) > 0 {
		t.Fatalf("R-1 mismatch: onlyOracle=%v onlyGenerated=%v", oo, og)
	}
	if len(gen) != 1 || gen[0].Class != "R-1" {
		t.Fatalf("want exactly R-1, got %s", core.DescribeCandidates(gen))
	}

	// Key-changing replacement to fresh key 3: R-2 + R-4 (D-2 on S ×
	// extend-insert S ∈ {s1,s2}) = 1 + 1*2 = 3.
	r = core.ReplaceRequest(vt(1, "b1"), vt(3, "b1"))
	oracle, err = Search(db, v, r, Config{MaxOps: 2})
	if err != nil {
		t.Fatal(err)
	}
	gen, err = core.Enumerate(db, v, r)
	if err != nil {
		t.Fatal(err)
	}
	oo, og = Diff(oracle, gen)
	if len(oo) > 0 || len(og) > 0 {
		t.Fatalf("R-2/R-4 mismatch: onlyOracle=%v onlyGenerated=%v", oo, og)
	}
	if len(gen) != 3 {
		t.Fatalf("want 3 candidates (R-2 + 2×R-4), got %s", core.DescribeCandidates(gen))
	}

	// Key-changing replacement onto hidden key 2: R-3 (I-2 flips S to
	// s1|s2 and rewrites B) + R-5 (D-2 × I-2) = 2 + 1*2*... D-2 on S
	// has one excluding value (s3); I-2 on hidden (2,b2,s3) must set
	// B:=b1 and flip S: 2 choices. R-3: 2, R-5: 1×2=2. Total 4.
	r = core.ReplaceRequest(vt(1, "b1"), vt(2, "b1"))
	oracle, err = Search(db, v, r, Config{MaxOps: 2})
	if err != nil {
		t.Fatal(err)
	}
	gen, err = core.Enumerate(db, v, r)
	if err != nil {
		t.Fatal(err)
	}
	oo, og = Diff(oracle, gen)
	if len(oo) > 0 || len(og) > 0 {
		t.Fatalf("R-3/R-5 mismatch: onlyOracle=%v onlyGenerated=%v", oo, og)
	}
	if len(gen) != 4 {
		t.Fatalf("want 4 candidates (2×R-3 + 2×R-5), got %s", core.DescribeCandidates(gen))
	}
}

// TestReplaceCompletenessSize3 re-runs the key-change cases allowing
// three-op translations, confirming nothing beyond the classes appears
// at larger sizes (criteria 3–5 prune them all).
func TestReplaceCompletenessSize3(t *testing.T) {
	if testing.Short() {
		t.Skip("size-3 exhaustive search skipped in -short mode")
	}
	f := newOracleFixture(t)
	db := f.loadState(t)
	r := core.ReplaceRequest(f.viewTuple(t, 1, "x"), f.viewTuple(t, 3, "x"))
	mustAgree(t, db, f, r, Config{MaxOps: 3, MaxUniverse: 5000}, -1)
}

// TestInsertCompletenessSize3 likewise for insertion.
func TestInsertCompletenessSize3(t *testing.T) {
	if testing.Short() {
		t.Skip("size-3 exhaustive search skipped in -short mode")
	}
	f := newOracleFixture(t)
	db := f.loadState(t)
	r := core.InsertRequest(f.viewTuple(t, 3, "x"))
	mustAgree(t, db, f, r, Config{MaxOps: 3, MaxUniverse: 5000}, 4)
}

// TestSimplificationTheorem validates "for every valid translation,
// there is (at least one) translation at least as simple that satisfies
// the 5 criteria" over the oracle instance, for all three request
// kinds.
func TestSimplificationTheorem(t *testing.T) {
	f := newOracleFixture(t)
	db := f.loadState(t)
	reqs := []core.Request{
		core.InsertRequest(f.viewTuple(t, 3, "x")),
		core.InsertRequest(f.viewTuple(t, 2, "x")),
		core.DeleteRequest(f.viewTuple(t, 1, "x")),
		core.ReplaceRequest(f.viewTuple(t, 1, "x"), f.viewTuple(t, 3, "x")),
		core.ReplaceRequest(f.viewTuple(t, 1, "x"), f.viewTuple(t, 2, "x")),
	}
	sawStrictFailure := false
	for _, r := range reqs {
		res, err := CheckSimplification(db, f.v, r, Config{MaxOps: 2})
		if err != nil {
			t.Fatalf("%s: %v", r, err)
		}
		if res.ChainFailures > 0 {
			t.Fatalf("%s: valid translation %s reaches no accepted translation by simplification",
				r, res.ChainExample)
		}
		if res.Checked == 0 {
			t.Fatalf("%s: no valid translations checked", r)
		}
		if res.StrictFailures > 0 {
			sawStrictFailure = true
		}
	}
	// Reproduction note: the literal subset-order reading of "at least
	// as simple" admits counterexamples (see SimplificationResult); the
	// chain reading holds everywhere. Pin the observation so a future
	// semantics change is noticed.
	if !sawStrictFailure {
		t.Log("no strict-order counterexample observed (expected at least one for the I-2 insert)")
	}
}

// TestInsertCompletenessDoubleFlip exercises I-2 with TWO hidden
// selecting attributes holding excluding values: the rewrite must flip
// both, and the choice product (2 x 2 selecting values) matches the
// oracle exactly.
func TestInsertCompletenessDoubleFlip(t *testing.T) {
	kDom, _ := schema.IntRangeDomain("K", 1, 2)
	aDom, _ := schema.StringDomain("A", "x", "y")
	s1Dom, _ := schema.StringDomain("S1", "p1", "p2", "p3")
	s2Dom, _ := schema.StringDomain("S2", "q1", "q2", "q3")
	rel := schema.MustRelation("R", []schema.Attribute{
		{Name: "K", Domain: kDom},
		{Name: "A", Domain: aDom},
		{Name: "S1", Domain: s1Dom},
		{Name: "S2", Domain: s2Dom},
	}, []string{"K"})
	sch := schema.NewDatabase()
	if err := sch.AddRelation(rel); err != nil {
		t.Fatal(err)
	}
	sel := algebra.NewSelection(rel).
		MustAddTerm("S1", value.NewString("p1"), value.NewString("p2")).
		MustAddTerm("S2", value.NewString("q1"), value.NewString("q2"))
	v, err := view.NewSP("V", sel, []string{"K", "A"})
	if err != nil {
		t.Fatal(err)
	}
	db := storage.Open(sch)
	// Hidden tuple with BOTH selecting attributes excluding.
	if err := db.Load("R", tuple.MustNew(rel,
		value.NewInt(2), value.NewString("y"), value.NewString("p3"), value.NewString("q3"))); err != nil {
		t.Fatal(err)
	}
	u := tuple.MustNew(v.Schema(), value.NewInt(2), value.NewString("x"))
	r := core.InsertRequest(u)

	gen, err := core.Enumerate(db, v, r)
	if err != nil {
		t.Fatal(err)
	}
	// 2 selecting values for S1 x 2 for S2 = 4 I-2 rewrites.
	if len(gen) != 4 {
		t.Fatalf("want 4 I-2 candidates, got %s", core.DescribeCandidates(gen))
	}
	oracle, err := Search(db, v, r, Config{MaxOps: 2})
	if err != nil {
		t.Fatal(err)
	}
	oo, og := Diff(oracle, gen)
	if len(oo) > 0 || len(og) > 0 {
		t.Fatalf("double-flip mismatch: onlyOracle=%v onlyGenerated=%v", oo, og)
	}
}
