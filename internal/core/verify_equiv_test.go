package core

import (
	"math/rand"
	"testing"

	"viewupdate/internal/fixtures"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/view"
)

// This file pins the delta-driven Verifier (overlay + incremental view
// maintenance) to the clone-based reference semantics it replaced: for
// every candidate the pipeline can produce — generator output and
// criterion-violating probes alike — validity and the reported side
// effects must agree exactly with "clone the database, apply,
// materialize, compare".

// refAfter is the reference after-state: full clone, full apply, full
// materialization.
func refAfter(db *storage.Database, v view.View, tr *update.Translation) (*tuple.Set, error) {
	clone := db.Clone()
	if err := clone.Apply(tr); err != nil {
		return nil, err
	}
	return v.Materialize(clone), nil
}

// refValid is the clone-based reference of the one validity
// predicate (Verifier.Valid): it materializes V(DB) and V(DB′) in full
// and checks the three clauses row by row.
func refValid(db *storage.Database, v view.View, r Request, tr *update.Translation) bool {
	before := v.Materialize(db)
	clone := db.Clone()
	if err := clone.Apply(tr); err != nil {
		return false
	}
	after := v.Materialize(clone)
	if r.Kind == update.Replace && r.Old.Equal(r.New) {
		return after.Equal(before) && before.Contains(r.Old)
	}
	// (1) U is defined on V(DB), and done.
	want, err := r.ApplyToViewSet(before)
	if err != nil {
		return false
	}
	for _, t := range r.AddedTuples() {
		if !after.Contains(t) {
			return false
		}
	}
	for _, t := range r.RemovedTuples() {
		if after.Contains(t) {
			return false
		}
	}
	// (2) Non-root ops insert or replace in place the projection of the
	// request's new row.
	nodes := relationsOf(v)
	for _, o := range tr.Ops() {
		t := o.Tuple
		if o.Kind == update.Replace {
			t = o.New
		}
		for i, n := range nodes {
			if i == 0 || n.Base() != t.Relation() {
				continue
			}
			if r.Kind == update.Delete || o.Kind == update.Delete ||
				(o.Kind == update.Replace && o.Old.Key() != o.New.Key()) {
				return false
			}
			row, ok := n.RowFor(t)
			if !ok || !row.Equal(projectOnto(n, r.AddedTuples()[0])) {
				return false
			}
		}
	}
	// (3) Every other row that changes keeps its root key: not a
	// requested key, still in V(DB′), root tuple untouched.
	requested := map[string]bool{}
	for _, t := range r.Mentioned() {
		requested[keyOf(t)] = true
	}
	afterKeys := map[string]bool{}
	for _, t := range after.Slice() {
		afterKeys[keyOf(t)] = true
	}
	rootBase := func(src storage.Source, row tuple.T) (tuple.T, bool) {
		if j, ok := v.(*view.Join); ok {
			return j.RootBaseForKey(src, row)
		}
		return v.(*view.SP).BaseForKey(src, row)
	}
	other := func(row tuple.T) bool {
		b1, ok1 := rootBase(db, row)
		b2, ok2 := rootBase(clone, row)
		return !requested[keyOf(row)] && afterKeys[keyOf(row)] && ok1 == ok2 && b1.Equal(b2)
	}
	for _, row := range want.Slice() {
		if !after.Contains(row) && !other(row) {
			return false
		}
	}
	for _, row := range after.Slice() {
		if !want.Contains(row) && !other(row) {
			return false
		}
	}
	return true
}

func refSideEffects(db *storage.Database, v view.View, r Request, tr *update.Translation) (*Effects, error) {
	after, err := refAfter(db, v, tr)
	if err != nil {
		return nil, err
	}
	before := v.Materialize(db)
	requestedAdd := tuple.NewSet(r.AddedTuples()...)
	requestedRemove := tuple.NewSet(r.RemovedTuples()...)
	eff := &Effects{ExtraAdded: tuple.NewSet(), ExtraRemoved: tuple.NewSet()}
	for _, row := range after.Slice() {
		if !before.Contains(row) && !requestedAdd.Contains(row) {
			eff.ExtraAdded.Add(row)
		}
	}
	for _, row := range before.Slice() {
		if !after.Contains(row) && !requestedRemove.Contains(row) {
			eff.ExtraRemoved.Add(row)
		}
	}
	return eff, nil
}

// checkCandidates compares the verifier against the reference for
// every candidate, failing the test on the first disagreement.
func checkCandidates(t *testing.T, db *storage.Database, v view.View, r Request, cands []Candidate) {
	t.Helper()
	vf := NewVerifier(db, v, r)
	for _, c := range cands {
		tr := c.Translation
		if got, want := vf.Valid(tr), refValid(db, v, r, tr); got != want {
			t.Fatalf("Valid disagreement on %s for %s: overlay=%v clone=%v", tr, r, got, want)
		}
		gotEff, gotErr := vf.SideEffects(tr)
		wantEff, wantErr := refSideEffects(db, v, r, tr)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("SideEffects error disagreement on %s: overlay=%v clone=%v", tr, gotErr, wantErr)
		}
		if gotErr == nil {
			if !gotEff.ExtraAdded.Equal(wantEff.ExtraAdded) || !gotEff.ExtraRemoved.Equal(wantEff.ExtraRemoved) {
				t.Fatalf("SideEffects disagreement on %s: overlay=%s clone=%s", tr, gotEff, wantEff)
			}
		}
	}
}

// candidatesAndProbes enumerates the generator candidates and the
// probe neighborhood; enumeration errors (inapplicable random
// requests) are reported as ok=false and skipped by callers.
func candidatesAndProbes(db *storage.Database, v view.View, r Request) ([]Candidate, bool) {
	cands, err := Enumerate(db, v, r)
	if err != nil {
		return nil, false
	}
	return append(cands, buildProbes(db, v, r, cands, 8)...), true
}

// randEmpDB loads a random EMP instance.
func randEmpDB(t *testing.T, e *fixtures.Emp, rng *rand.Rand) *storage.Database {
	db := storage.Open(e.Schema)
	nameAttr, _ := e.Rel.Attribute("Name")
	names := nameAttr.Domain.Values()
	locAttr, _ := e.Rel.Attribute("Location")
	locs := locAttr.Domain.Values()
	for no := int64(1); no <= 12; no++ {
		if rng.Intn(10) < 4 {
			continue
		}
		row := e.Tuple(no, names[rng.Intn(len(names))].Str(), locs[rng.Intn(len(locs))].Str(), rng.Intn(2) == 0)
		if err := db.Load("EMP", row); err != nil {
			t.Fatalf("loading EMP: %v", err)
		}
	}
	return db
}

// randSPRequest draws a random insert/delete/replace against an SP
// view of EMP.
func randSPRequest(e *fixtures.Emp, v *view.SP, db *storage.Database, rng *rand.Rand) (Request, bool) {
	rows := v.Materialize(db).Slice()
	switch rng.Intn(3) {
	case 0: // insert a random view tuple (may be inapplicable — fine)
		nameAttr, _ := e.Rel.Attribute("Name")
		names := nameAttr.Domain.Values()
		locAttr, _ := e.Rel.Attribute("Location")
		locs := locAttr.Domain.Values()
		u := e.ViewTuple(v, int64(1+rng.Intn(12)),
			names[rng.Intn(len(names))].Str(), locs[rng.Intn(len(locs))].Str(), rng.Intn(2) == 0)
		return InsertRequest(u), true
	case 1: // delete an existing row
		if len(rows) == 0 {
			return Request{}, false
		}
		return DeleteRequest(rows[rng.Intn(len(rows))]), true
	default: // replace one attribute of an existing row
		if len(rows) == 0 {
			return Request{}, false
		}
		old := rows[rng.Intn(len(rows))]
		attrs := v.Schema().Attributes()
		a := attrs[rng.Intn(len(attrs))]
		vals := a.Domain.Values()
		nu := old.MustWith(a.Name, vals[rng.Intn(len(vals))])
		if nu.Equal(old) {
			return Request{}, false
		}
		return ReplaceRequest(old, nu), true
	}
}

// TestVerifierMatchesCloneSP is the SP half of the Overlay ≡ Clone
// property: random EMP instances, random requests against both paper
// views, every generator candidate and probe judged both ways.
func TestVerifierMatchesCloneSP(t *testing.T) {
	e := fixtures.NewEmp(12)
	checked := 0
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := randEmpDB(t, e, rng)
		for _, v := range []*view.SP{e.ViewP, e.ViewB} {
			for i := 0; i < 8; i++ {
				r, ok := randSPRequest(e, v, db, rng)
				if !ok {
					continue
				}
				cands, ok := candidatesAndProbes(db, v, r)
				if !ok {
					continue
				}
				checkCandidates(t, db, v, r, cands)
				checked += len(cands)
			}
		}
	}
	if checked < 100 {
		t.Fatalf("property test exercised only %d candidates; workload generator is broken", checked)
	}
}

// randUniversityDB loads a random consistent three-level instance:
// departments first, then courses and students, then enrollments
// referencing only loaded parents.
func randUniversityDB(t *testing.T, u *fixtures.University, rng *rand.Rand) *storage.Database {
	db := storage.Open(u.Schema)
	bldgAttr, _ := u.Dept.Attribute("Building")
	bldgs := bldgAttr.Domain.Values()
	deptAttr, _ := u.Dept.Attribute("DName")
	var depts []string
	for _, d := range deptAttr.Domain.Values() {
		if rng.Intn(10) < 2 {
			continue
		}
		depts = append(depts, d.Str())
		if err := db.Load("DEPT", u.DeptTuple(d.Str(), bldgs[rng.Intn(len(bldgs))].Str())); err != nil {
			t.Fatalf("loading DEPT: %v", err)
		}
	}
	titleAttr, _ := u.Course.Attribute("Title")
	titles := titleAttr.Domain.Values()
	cidAttr, _ := u.Course.Attribute("CID")
	var cids []string
	for _, c := range cidAttr.Domain.Values() {
		if len(depts) == 0 || rng.Intn(10) < 3 {
			continue
		}
		cids = append(cids, c.Str())
		ct := u.CourseTuple(c.Str(), titles[rng.Intn(len(titles))].Str(), depts[rng.Intn(len(depts))])
		if err := db.Load("COURSE", ct); err != nil {
			t.Fatalf("loading COURSE: %v", err)
		}
	}
	snameAttr, _ := u.Student.Attribute("SName")
	snames := snameAttr.Domain.Values()
	sidAttr, _ := u.Student.Attribute("SID")
	var sids []string
	for _, s := range sidAttr.Domain.Values() {
		if rng.Intn(10) < 3 {
			continue
		}
		sids = append(sids, s.Str())
		st := u.StudentTuple(s.Str(), snames[rng.Intn(len(snames))].Str(), int64(1+rng.Intn(4)))
		if err := db.Load("STUDENT", st); err != nil {
			t.Fatalf("loading STUDENT: %v", err)
		}
	}
	for eid := int64(1); eid <= 6; eid++ {
		if len(sids) == 0 || len(cids) == 0 || rng.Intn(10) < 4 {
			continue
		}
		et := u.EnrollTuple(eid, sids[rng.Intn(len(sids))], cids[rng.Intn(len(cids))], int64(rng.Intn(5)))
		if err := db.Load("ENROLL", et); err != nil {
			t.Fatalf("loading ENROLL: %v", err)
		}
	}
	return db
}

// randJoinRequest draws a random request against the TRANSCRIPT view:
// deletes and replaces of materialized rows, inserts assembled from
// loaded base tuples (so they are frequently, not always, applicable).
func randJoinRequest(u *fixtures.University, db *storage.Database, rng *rand.Rand) (Request, bool) {
	rows := u.View.Materialize(db).Slice()
	switch rng.Intn(3) {
	case 0: // insert: compose a row from existing student/course/dept
		students := db.Tuples("STUDENT")
		courses := db.Tuples("COURSE")
		if len(students) == 0 || len(courses) == 0 {
			return Request{}, false
		}
		s := students[rng.Intn(len(students))]
		c := courses[rng.Intn(len(courses))]
		dept, ok := db.LookupKey(tuple.MustNew(u.Dept, c.MustGet("Dpt"), db.Tuples("DEPT")[0].MustGet("Building")))
		if !ok {
			return Request{}, false
		}
		row := u.ViewTuple(int64(1+rng.Intn(6)),
			s.MustGet("SID").Str(), c.MustGet("CID").Str(), int64(rng.Intn(5)),
			s.MustGet("SName").Str(), s.MustGet("Year").Int(),
			c.MustGet("Title").Str(), c.MustGet("Dpt").Str(), dept.MustGet("Building").Str())
		return InsertRequest(row), true
	case 1:
		if len(rows) == 0 {
			return Request{}, false
		}
		return DeleteRequest(rows[rng.Intn(len(rows))]), true
	default:
		if len(rows) == 0 {
			return Request{}, false
		}
		old := rows[rng.Intn(len(rows))]
		attrs := u.View.Schema().Attributes()
		a := attrs[rng.Intn(len(attrs))]
		vals := a.Domain.Values()
		nu := old.MustWith(a.Name, vals[rng.Intn(len(vals))])
		if nu.Equal(old) {
			return Request{}, false
		}
		return ReplaceRequest(old, nu), true
	}
}

// TestVerifierMatchesCloneJoin is the SPJ half of the property: the
// three-level university tree, where non-root candidates take the
// reverse-reference-index IVM path and root-only candidates take the
// delta path — both must agree with the clone reference.
func TestVerifierMatchesCloneJoin(t *testing.T) {
	u := fixtures.NewUniversity(6)
	checked := 0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := randUniversityDB(t, u, rng)
		for i := 0; i < 8; i++ {
			r, ok := randJoinRequest(u, db, rng)
			if !ok {
				continue
			}
			cands, ok := candidatesAndProbes(db, u.View, r)
			if !ok {
				continue
			}
			checkCandidates(t, db, u.View, r, cands)
			checked += len(cands)
		}
	}
	if checked < 50 {
		t.Fatalf("property test exercised only %d candidates; workload generator is broken", checked)
	}
}

// TestVerifierWithBeforeAgreesAndSharesSafely pins the contract of
// NewVerifierWithBefore: judged with a caller-supplied materialization
// (the serving engine hands in its per-snapshot cached set), every
// candidate gets the identical verdict and side effects as the
// materialize-it-yourself constructor, and the supplied set comes back
// untouched — the verifier must treat it as shared, copy-on-write.
func TestVerifierWithBeforeAgreesAndSharesSafely(t *testing.T) {
	e := fixtures.NewEmp(12)
	checked := 0
	for seed := int64(100); seed < 112; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := randEmpDB(t, e, rng)
		for _, v := range []*view.SP{e.ViewP, e.ViewB} {
			for i := 0; i < 6; i++ {
				r, ok := randSPRequest(e, v, db, rng)
				if !ok {
					continue
				}
				cands, ok := candidatesAndProbes(db, v, r)
				if !ok {
					continue
				}
				before := v.Materialize(db)
				snapshot := before.Clone()
				plain := NewVerifier(db, v, r)
				preset := NewVerifierWithBefore(db, v, r, before)
				for _, c := range cands {
					if got, want := preset.Valid(c.Translation), plain.Valid(c.Translation); got != want {
						t.Fatalf("Valid(%s) with before=%v, without=%v", c.Translation, got, want)
					}
					effP, errP := preset.SideEffects(c.Translation)
					effQ, errQ := plain.SideEffects(c.Translation)
					if (errP == nil) != (errQ == nil) {
						t.Fatalf("SideEffects(%s) err with before=%v, without=%v", c.Translation, errP, errQ)
					}
					if errP == nil {
						if !effP.ExtraAdded.Equal(effQ.ExtraAdded) || !effP.ExtraRemoved.Equal(effQ.ExtraRemoved) {
							t.Fatalf("SideEffects(%s) diverge: %s vs %s", c.Translation, effP, effQ)
						}
					}
					checked++
				}
				if !before.Equal(snapshot) {
					t.Fatalf("verifier mutated the caller-supplied before-set (view %s, request %s)", v.Name(), r)
				}
			}
		}
	}
	if checked < 50 {
		t.Fatalf("property test exercised only %d candidates; workload generator is broken", checked)
	}
}
