package core

import (
	"strings"
	"testing"

	"viewupdate/internal/algebra"
	"viewupdate/internal/fixtures"
	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
)

// TestSPJDeleteTouchesOnlyRoot validates SPJ-D: "delete the tuple from
// the root relation (or SP view) only".
func TestSPJDeleteTouchesOnlyRoot(t *testing.T) {
	f := fixtures.NewABCXD()
	db := f.PaperInstance()
	row := f.ViewTuple("c1", "a", 3, 1)

	cands, err := EnumerateJoinDelete(db, f.View, row)
	if err != nil {
		t.Fatal(err)
	}
	// Identity SP views: no selection, so no D-2 — exactly D-1.
	if len(cands) != 1 {
		t.Fatalf("want 1 candidate, got %s", DescribeCandidates(cands))
	}
	c := cands[0]
	if !strings.Contains(c.Class, "SPJ-D") || !strings.Contains(c.Class, "D-1") {
		t.Fatalf("class = %s", c.Class)
	}
	for _, op := range c.Translation.Ops() {
		if op.RelationName() != "CXD" {
			t.Fatalf("SPJ-D must only touch the root, got %s", op)
		}
	}
	if err := db.Apply(c.Translation); err != nil {
		t.Fatal(err)
	}
	if f.View.Materialize(db).Contains(row) {
		t.Fatal("row should be gone")
	}
	// AB is untouched.
	if db.Len("AB") != 2 {
		t.Fatal("parent relation must be untouched")
	}
}

// TestSPJInsertCases exercises SPJ-I's three cases.
func TestSPJInsertCases(t *testing.T) {
	f := fixtures.NewABCXD()
	db := f.PaperInstance()

	// Case 2 everywhere: new root c3 referencing new parent a1.
	u := f.ViewTuple("c3", "a1", 5, 7)
	cands, err := EnumerateJoinInsert(db, f.View, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 {
		t.Fatalf("identity views should give exactly 1 candidate, got %s", DescribeCandidates(cands))
	}
	tr := cands[0].Translation
	if len(tr.Inserts()) != 2 {
		t.Fatalf("expected inserts into CXD and AB, got %s", tr)
	}
	if err := db.Apply(tr); err != nil {
		t.Fatal(err)
	}
	if !f.View.Materialize(db).Contains(u) {
		t.Fatal("inserted row missing")
	}

	// Case 1 at a parent (exists exactly): new root referencing the
	// existing (a,1): only the root insert happens.
	u2 := f.ViewTuple("c4", "a", 6, 1)
	cands, err = EnumerateJoinInsert(db, f.View, u2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 {
		t.Fatalf("got %s", DescribeCandidates(cands))
	}
	ops := cands[0].Translation.Ops()
	if len(ops) != 1 || ops[0].RelationName() != "CXD" || ops[0].Kind != update.Insert {
		t.Fatalf("existing parent must be untouched, got %s", cands[0].Translation)
	}

	// Case 3 at a parent (key exists, data conflicts): inserting a row
	// claiming (a, 9) while AB holds (a, 1) replaces the parent — a
	// view side effect on other rows referencing a.
	u3 := f.ViewTuple("c4", "a", 6, 9)
	cands, err = EnumerateJoinInsert(db, f.View, u3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 {
		t.Fatalf("got %s", DescribeCandidates(cands))
	}
	var sawReplace bool
	for _, op := range cands[0].Translation.Ops() {
		if op.Kind == update.Replace && op.RelationName() == "AB" {
			sawReplace = true
			if op.New.MustGet("B") != value.NewInt(9) {
				t.Fatalf("parent replace wrong: %s", op)
			}
		}
	}
	if !sawReplace {
		t.Fatalf("case 3 should replace the conflicting parent, got %s", cands[0].Translation)
	}
	if !strings.Contains(cands[0].Class, "R-1") {
		t.Fatalf("case 3 replacement should be key-preserving R-1, class=%s", cands[0].Class)
	}

	// With identity SP views, a root projection that exists exactly
	// implies the view row exists (inclusion dependencies always
	// resolve), so the request itself is invalid — the validator, not
	// case 1, rejects it.
	u4 := f.ViewTuple("c1", "a", 3, 9)
	if _, err := EnumerateJoinInsert(db, f.View, u4); err == nil ||
		!strings.Contains(err.Error(), "already contains") {
		t.Fatalf("identity-view duplicate key should be invalid, got %v", err)
	}
}

// TestSPJInsertCase1RootRejects pins where the paper's rejection of
// SPJ-I's Case 1 at the root still holds: the root projection exists
// exactly and so does its view row, so the insertion "violates an FD in
// the view" and is refused before any node is visited.
func TestSPJInsertCase1RootRejects(t *testing.T) {
	f := fixtures.NewABCXD()
	db := f.PaperInstance()
	// Row (c1, a, 3, a, 1) is in the view; the insert reuses its key
	// and root projection with another parent.
	u := f.ViewTuple("c1", "a", 3, 9)
	if _, err := EnumerateJoinInsert(db, f.View, u); err == nil ||
		!strings.Contains(err.Error(), "already contains") {
		t.Fatalf("root case 1 over a visible row should reject, got %v", err)
	}
}

// TestSPJInsertCase1RootIsNoOp builds the one state where SPJ-I's Case
// 1 fires at the root: the root projection exists exactly but the view
// row is hidden by a parent selection. The insertion is a valid view
// request. The paper rejects Case 1 at the root "as it violates an FD
// in the view", which holds only when the row is visible; here the
// root is kept like any other node and the parent is made to match.
func TestSPJInsertCase1RootIsNoOp(t *testing.T) {
	f := fixtures.NewABCXD()
	// Parent SP view selects B ∈ {1}.
	selAB := algebra.NewSelection(f.AB).MustAddTerm("B", value.NewInt(1))
	parent := &view.Node{SP: view.MustNewSP("ABsel", selAB, f.AB.AttributeNames())}
	root := &view.Node{SP: view.Identity("CXDv", f.CXD), Refs: []view.Ref{{Attrs: []string{"X"}, Target: parent}}}
	jv := view.MustNewJoin("SelParent", f.Schema, root)

	db := storage.Open(f.Schema)
	// Parent (a,2) fails the selection, so c1's row is hidden.
	if err := db.LoadAll(f.ABTuple("a", 2), f.CXDTuple("c1", "a", 3)); err != nil {
		t.Fatal(err)
	}
	if jv.Materialize(db).Len() != 0 {
		t.Fatal("precondition: view empty")
	}
	// Insert (c1, a, 3, a, 1): valid request (no view row with key c1),
	// root projection (c1,a,3) exists exactly -> Case 1 at root.
	u, err := MakeRow(jv.Schema(), "c1", "a", 3, "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	r := InsertRequest(u)
	if err := ValidateRequest(db, jv, r); err != nil {
		t.Fatalf("request should be valid: %v", err)
	}
	cands, err := EnumerateJoinInsert(db, jv, u)
	if err != nil {
		t.Fatal(err)
	}
	want := update.NewTranslation(update.NewReplace(f.ABTuple("a", 2), f.ABTuple("a", 1)))
	if len(cands) != 1 || !cands[0].Translation.Equal(want) {
		t.Fatalf("want the one parent replace %s, got:\n%s", want, DescribeCandidates(cands))
	}
	if err := CheckCandidates(db, jv, r, cands, false); err != nil {
		t.Fatal(err)
	}
}

// TestSPJInsertSideEffectOnSiblings verifies the paper's point that
// join-view updates may have view side effects: replacing a shared
// parent changes sibling rows.
func TestSPJInsertSideEffectOnSiblings(t *testing.T) {
	f := fixtures.NewABCXD()
	db := f.PaperInstance()
	before := f.View.Materialize(db)
	sibling := f.ViewTuple("c1", "a", 3, 1)
	if !before.Contains(sibling) {
		t.Fatal("precondition: sibling row present")
	}
	// c4 claims (a, 9): replaces parent (a,1) -> (a,9).
	u := f.ViewTuple("c4", "a", 6, 9)
	tr := NewTranslator(f.View, Simplest{})
	if _, err := tr.Apply(db, InsertRequest(u)); err != nil {
		t.Fatal(err)
	}
	after := f.View.Materialize(db)
	if !after.Contains(u) {
		t.Fatal("inserted row missing")
	}
	if after.Contains(sibling) {
		// Sibling must have mutated to B=9: the view side effect.
		t.Fatal("sibling should have changed")
	}
	if !after.Contains(f.ViewTuple("c1", "a", 3, 9)) {
		t.Fatal("sibling should now show B=9")
	}
	// The side effect is the one §5 admits (Case 3 replaces a needed
	// parent in place), so the translation is valid.
	db2 := f.PaperInstance()
	cands, err := EnumerateJoinInsert(db2, f.View, u)
	if err != nil {
		t.Fatal(err)
	}
	if !Valid(db2, f.View, InsertRequest(u), cands[0].Translation) {
		t.Fatal("Case 3's in-place parent replace should be valid")
	}
}

// TestSPJReplaceStateWalk exercises SPJ-R's state machine on the
// three-level university tree.
func TestSPJReplaceStateWalk(t *testing.T) {
	u := fixtures.NewUniversity(10)
	db := u.SmallInstance()

	// Old row: enrollment 1 = (s1 Ada, db Databases cs Gates).
	old := u.ViewTuple(1, "s1", "db", 4, "Ada", 2, "Databases", "cs", "Gates")
	if !u.View.Materialize(db).Contains(old) {
		t.Fatalf("precondition: old row present; view = %v", u.View.Materialize(db).Slice())
	}

	// Case R-1 chain then R-2 at a leaf-ish node: change only Grade
	// (root attribute) — everything else matches: root R-2, parents
	// untouched (state I cases I-3/case R-1... the root's projection
	// changes with the same key, parents' projections match exactly).
	new1 := u.ViewTuple(1, "s1", "db", 3, "Ada", 2, "Databases", "cs", "Gates")
	cands, err := EnumerateJoinReplace(db, u.View, old, new1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 {
		t.Fatalf("got %s", DescribeCandidates(cands))
	}
	ops := cands[0].Translation.Ops()
	if len(ops) != 1 || ops[0].Kind != update.Replace || ops[0].RelationName() != "ENROLL" {
		t.Fatalf("grade change should be one ENROLL replace, got %s", cands[0].Translation)
	}

	// Re-pointing the enrollment at another existing student (s2):
	// root replaced; state I at STUDENT: (s2, Ben, 3) exists exactly
	// (Case I-3, no-op).
	new2 := u.ViewTuple(1, "s2", "db", 4, "Ben", 3, "Databases", "cs", "Gates")
	cands, err = EnumerateJoinReplace(db, u.View, old, new2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 {
		t.Fatalf("got %s", DescribeCandidates(cands))
	}
	ops = cands[0].Translation.Ops()
	if len(ops) != 1 || ops[0].RelationName() != "ENROLL" {
		t.Fatalf("re-pointing at existing student should only touch ENROLL, got %s", cands[0].Translation)
	}

	// Re-pointing at a brand-new student s3: root replace + STUDENT
	// insert (Case I-2).
	new3 := u.ViewTuple(1, "s3", "db", 4, "Cy", 1, "Databases", "cs", "Gates")
	cands, err = EnumerateJoinReplace(db, u.View, old, new3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 {
		t.Fatalf("got %s", DescribeCandidates(cands))
	}
	tr3 := cands[0].Translation
	if len(tr3.Ops()) != 2 || len(tr3.Inserts()) != 1 {
		t.Fatalf("want ENROLL replace + STUDENT insert, got %s", tr3)
	}
	if tr3.Inserts()[0].Relation().Name() != "STUDENT" {
		t.Fatalf("insert should hit STUDENT, got %s", tr3)
	}
	if err := db.Apply(tr3); err != nil {
		t.Fatal(err)
	}
	if !u.View.Materialize(db).Contains(new3) {
		t.Fatal("replacement row missing")
	}
	if u.View.Materialize(db).Contains(old) {
		t.Fatal("old row should be gone")
	}

	// Case I-4 deep in the tree: re-point course at existing dept with
	// conflicting building data.
	old2 := u.ViewTuple(2, "s2", "os", 3, "Ben", 3, "Systems", "cs", "Gates")
	if !u.View.Materialize(db).Contains(old2) {
		t.Fatal("precondition: enrollment 2 present")
	}
	// Change course os's dept to ee, whose building in DEPT is Allen,
	// but claim Building=Soda: STUDENT no-op, COURSE replace (R-1 via
	// state I case I-1->R-2? course key same: state I case I-1 -> state
	// R, projections differ, same key -> SP replace), DEPT: key ee
	// exists with Building=Allen, conflicting -> I-4 replace.
	new4 := u.ViewTuple(2, "s2", "os", 3, "Ben", 3, "Systems", "ee", "Soda")
	cands, err = EnumerateJoinReplace(db, u.View, old2, new4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 {
		t.Fatalf("got %s", DescribeCandidates(cands))
	}
	tr4 := cands[0].Translation
	repl := tr4.Replacements()
	if len(repl) != 2 {
		t.Fatalf("want COURSE and DEPT replaces, got %s", tr4)
	}
	rels := map[string]bool{}
	for _, r := range repl {
		rels[r.Old.Relation().Name()] = true
	}
	if !rels["COURSE"] || !rels["DEPT"] {
		t.Fatalf("replaces should hit COURSE and DEPT, got %s", tr4)
	}
	if err := db.Apply(tr4); err != nil {
		t.Fatal(err)
	}
	if !u.View.Materialize(db).Contains(new4) {
		t.Fatal("deep replacement row missing")
	}
}

// TestSPJReplaceKeyChange exercises Case R-3 (key change at the root).
func TestSPJReplaceKeyChange(t *testing.T) {
	f := fixtures.NewABCXD()
	db := f.PaperInstance()
	old := f.ViewTuple("c1", "a", 3, 1)
	// New root key c3 (fresh), same parent.
	new := f.ViewTuple("c3", "a", 3, 1)
	cands, err := EnumerateJoinReplace(db, f.View, old, new)
	if err != nil {
		t.Fatal(err)
	}
	// Root SP is identity: key-change with no conflict gives R-2 only
	// (D-2/I-2 need selections/conflicts). Parents: no-op (exists).
	if len(cands) != 1 {
		t.Fatalf("got %s", DescribeCandidates(cands))
	}
	if !strings.Contains(cands[0].Class, "R-2") {
		t.Fatalf("class = %s", cands[0].Class)
	}
	if err := db.Apply(cands[0].Translation); err != nil {
		t.Fatal(err)
	}
	after := f.View.Materialize(db)
	if !after.Contains(new) || after.Contains(old) {
		t.Fatal("root key change failed")
	}
}

// TestSPJRequestValidation checks join-request validity conditions.
func TestSPJRequestValidation(t *testing.T) {
	f := fixtures.NewABCXD()
	db := f.PaperInstance()

	// Join-inconsistent insert (X != A) is rejected.
	bad := f.View.Schema()
	badTuple, err := MakeRow(bad, "c3", "a", 5, "a2", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateRequest(db, f.View, InsertRequest(badTuple)); err == nil {
		t.Fatal("join-inconsistent tuple should be rejected")
	}
	// Deleting an absent row is rejected.
	absent := f.ViewTuple("c3", "a", 5, 1)
	if err := ValidateRequest(db, f.View, DeleteRequest(absent)); err == nil {
		t.Fatal("absent row delete should be rejected")
	}
	// Inserting an existing key is rejected.
	dup := f.ViewTuple("c1", "a2", 5, 2)
	if err := ValidateRequest(db, f.View, InsertRequest(dup)); err == nil {
		t.Fatal("existing-key insert should be rejected")
	}
}

// TestSPJAtomicUndo: a translation that fails mid-apply leaves no
// partial state ("the entire view update request fails and is undone").
func TestSPJAtomicUndo(t *testing.T) {
	u := fixtures.NewUniversity(10)
	db := u.SmallInstance()
	old := u.ViewTuple(1, "s1", "db", 4, "Ada", 2, "Databases", "cs", "Gates")
	new := u.ViewTuple(1, "s3", "db", 4, "Cy", 1, "Databases", "cs", "Gates")
	cands, err := EnumerateJoinReplace(db, u.View, old, new)
	if err != nil {
		t.Fatal(err)
	}
	tr := cands[0].Translation
	// Sabotage: preinsert the student the translation wants to insert,
	// with different data, so the insert conflicts at apply time.
	if err := db.Load("STUDENT", u.StudentTuple("s3", "Dee", 4)); err != nil {
		t.Fatal(err)
	}
	snapshot := db.Clone()
	if err := db.Apply(tr); err == nil {
		t.Fatal("apply should fail on key conflict")
	}
	if !db.Equal(snapshot) {
		t.Fatal("failed apply must leave the database unchanged")
	}
}

// TestSPJWithSelectionsComposesD2 checks the §5-3 composition: a join
// view whose root SP view has a selection exposes D-2 alternatives for
// SPJ-D.
func TestSPJWithSelectionsComposesD2(t *testing.T) {
	f := fixtures.NewABCXD()
	// Root SP view selects D ∈ {1..5}; flipping D to an excluded value
	// (6..9) is D-2.
	sel := algebra.NewSelection(f.CXD).MustAddTerm("D",
		value.NewInt(1), value.NewInt(2), value.NewInt(3), value.NewInt(4), value.NewInt(5))
	rootSP := view.MustNewSP("CXDsel", sel, f.CXD.AttributeNames())
	parent := &view.Node{SP: view.Identity("ABv", f.AB)}
	root := &view.Node{SP: rootSP, Refs: []view.Ref{{Attrs: []string{"X"}, Target: parent}}}
	jv := view.MustNewJoin("SelJoin", f.Schema, root)

	db := storage.Open(f.Schema)
	if err := db.LoadAll(f.ABTuple("a", 1), f.CXDTuple("c1", "a", 3), f.CXDTuple("c2", "a", 7)); err != nil {
		t.Fatal(err)
	}
	// Only c1 (D=3) passes the root selection.
	row, err := MakeRow(jv.Schema(), "c1", "a", 3, "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !jv.Materialize(db).Contains(row) {
		t.Fatalf("precondition: row visible; got %v", jv.Materialize(db).Slice())
	}

	cands, err := EnumerateJoinDelete(db, jv, row)
	if err != nil {
		t.Fatal(err)
	}
	// D-1 plus D-2 for each excluded D value (6,7,8,9) = 5 candidates.
	if len(cands) != 5 {
		t.Fatalf("want 5 candidates, got %s", DescribeCandidates(cands))
	}
	var d2 *Candidate
	for i := range cands {
		if strings.Contains(cands[i].Class, "D-2") {
			d2 = &cands[i]
			break
		}
	}
	if d2 == nil {
		t.Fatalf("no D-2 candidate in %s", DescribeCandidates(cands))
	}
	if err := db.Apply(d2.Translation); err != nil {
		t.Fatal(err)
	}
	if jv.Materialize(db).Contains(row) {
		t.Fatal("row should be out of the view")
	}
	if db.Len("CXD") != 2 {
		t.Fatal("base tuple should survive D-2")
	}
}

// TestJoinCandidateExplosionGuard: the Cartesian composition refuses to
// build more than maxJoinCandidates alternatives instead of silently
// truncating or exhausting memory.
func TestJoinCandidateExplosionGuard(t *testing.T) {
	// Each node hides three non-selecting attributes with 8-value
	// domains: 512 extend-insert choices per node, 262144 > 100000 in
	// the two-node product.
	hidden := func(name string) *schema.Domain {
		vals := make([]value.Value, 8)
		for i := range vals {
			vals[i] = value.NewInt(int64(i))
		}
		d, err := schema.NewDomain(name, vals...)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	keyDom, err := schema.IntRangeDomain("XKeyDom", 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	parent := schema.MustRelation("PBIG", []schema.Attribute{
		{Name: "PK", Domain: keyDom},
		{Name: "PH1", Domain: hidden("PH1D")},
		{Name: "PH2", Domain: hidden("PH2D")},
		{Name: "PH3", Domain: hidden("PH3D")},
	}, []string{"PK"})
	root := schema.MustRelation("RBIG", []schema.Attribute{
		{Name: "RK", Domain: keyDom},
		{Name: "RF", Domain: keyDom},
		{Name: "RH1", Domain: hidden("RH1D")},
		{Name: "RH2", Domain: hidden("RH2D")},
		{Name: "RH3", Domain: hidden("RH3D")},
	}, []string{"RK"})
	sch := schema.NewDatabase()
	if err := sch.AddRelation(parent); err != nil {
		t.Fatal(err)
	}
	if err := sch.AddRelation(root); err != nil {
		t.Fatal(err)
	}
	if err := sch.AddInclusion(schema.InclusionDependency{Child: "RBIG", ChildAttrs: []string{"RF"}, Parent: "PBIG"}); err != nil {
		t.Fatal(err)
	}
	rootSP, err := view.NewSP("RBIGv", algebra.NewSelection(root), []string{"RK", "RF"})
	if err != nil {
		t.Fatal(err)
	}
	parentSP, err := view.NewSP("PBIGv", algebra.NewSelection(parent), []string{"PK"})
	if err != nil {
		t.Fatal(err)
	}
	pn := &view.Node{SP: parentSP}
	rn := &view.Node{SP: rootSP, Refs: []view.Ref{{Attrs: []string{"RF"}, Target: pn}}}
	jv, err := view.NewJoin("BIG", sch, rn)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.Open(sch)
	u, err := MakeRow(jv.Schema(), 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = EnumerateJoinInsert(db, jv, u)
	if err == nil || !strings.Contains(err.Error(), "candidate translations") {
		t.Fatalf("explosion should be refused, got %v", err)
	}
}

// TestSPJReplaceComposesRootAlternatives: a key-changing SPJ-R at a
// root with a selection exposes the SP-level R-2 and R-4 alternatives
// through the composition.
func TestSPJReplaceComposesRootAlternatives(t *testing.T) {
	f := fixtures.NewABCXD()
	sel := algebra.NewSelection(f.CXD).MustAddTerm("D",
		value.NewInt(1), value.NewInt(2), value.NewInt(3))
	rootSP := view.MustNewSP("CXDsel2", sel, f.CXD.AttributeNames())
	parent := &view.Node{SP: view.Identity("ABv", f.AB)}
	root := &view.Node{SP: rootSP, Refs: []view.Ref{{Attrs: []string{"X"}, Target: parent}}}
	jv := view.MustNewJoin("SelRoot", f.Schema, root)

	db := storage.Open(f.Schema)
	if err := db.LoadAll(f.ABTuple("a", 1), f.CXDTuple("c1", "a", 3)); err != nil {
		t.Fatal(err)
	}
	old, err := MakeRow(jv.Schema(), "c1", "a", 3, "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	new, err := MakeRow(jv.Schema(), "c3", "a", 3, "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := EnumerateJoinReplace(db, jv, old, new)
	if err != nil {
		t.Fatal(err)
	}
	// Root key change, no conflict: R-2 (1) + R-4 (D-2 on D: 6 excluded
	// values × I-1 extend-insert: nothing hidden → 1) = 7.
	if len(cands) != 7 {
		t.Fatalf("want 7 candidates, got %s", DescribeCandidates(cands))
	}
	sawR2, sawR4 := false, false
	for _, c := range cands {
		if strings.Contains(c.Class, "R-2") {
			sawR2 = true
		}
		if strings.Contains(c.Class, "R-4") {
			sawR4 = true
		}
		// Every candidate realizes the replacement.
		if !Valid(db, jv, ReplaceRequest(old, new), c.Translation) {
			t.Fatalf("candidate %s does not realize the replacement", c)
		}
	}
	if !sawR2 || !sawR4 {
		t.Fatalf("missing classes: R-2=%v R-4=%v", sawR2, sawR4)
	}
}

// TestSPJReplaceKeyAndSharedParentAllAccepted pins one judge for the
// served path and the explain trace. Rows c1 and c2 share parent
// AB(a,1,h1); the request moves c1 to key c3 and changes the parent's B
// to 2. SPJ-R offers R-2 and R-4 at the root, each with the in-place
// parent replace, whose side effect on c2 is the one §5 admits. Both
// must be accepted. The requested-changes notion rejected R-4 by
// criterion 3, because its subset without the root's flip leaves c1 in
// the view with B=2, and exact validity rejected R-2 for c2's change.
func TestSPJReplaceKeyAndSharedParentAllAccepted(t *testing.T) {
	f := fixtures.NewSelABCXD(false)
	db := f.Load(f.ABTuple("a", 1, "h1"), f.CXDTuple("c1", "a", 1), f.CXDTuple("c2", "a", 2))
	r := ReplaceRequest(f.ViewTuple("c1", "a", 1, 1), f.ViewTuple("c3", "a", 1, 2))
	cands, err := Enumerate(db, f.View, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCandidates(db, f.View, r, cands, false); err != nil {
		t.Fatal(err)
	}
	_, trace, err := TraceTranslate(db, f.View, nil, r, TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sawR4 := false
	for _, c := range trace.Candidates {
		sawR4 = sawR4 || strings.Contains(c.Class, "R-4")
		if c.Verdict != VerdictAccepted {
			t.Errorf("explain marks the served candidate [%s] %s %s: %s", c.Class, c.Translation, c.Verdict, c.Detail)
		}
	}
	if !sawR4 || len(trace.Candidates) != len(cands) {
		t.Fatalf("want every candidate, R-4 among them, in the trace; got:\n%s", DescribeCandidates(cands))
	}
}
