package storage

import (
	"strings"
	"sync"
	"testing"

	"viewupdate/internal/schema"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
)

// pcSchema builds a parent/child schema with an inclusion dependency
// C[FK] ⊆ P[key].
func pcSchema(t testing.TB) (*schema.Database, *schema.Relation, *schema.Relation) {
	t.Helper()
	kd := schema.MustDomain("KD", value.NewInt(1), value.NewInt(2), value.NewInt(3))
	vd := schema.MustDomain("VD", value.NewString("u"), value.NewString("v"))
	p := schema.MustRelation("P", []schema.Attribute{
		{Name: "PK", Domain: kd},
		{Name: "PV", Domain: vd},
	}, []string{"PK"})
	c := schema.MustRelation("C", []schema.Attribute{
		{Name: "CK", Domain: kd},
		{Name: "FK", Domain: kd},
	}, []string{"CK"})
	sch := schema.NewDatabase()
	if err := sch.AddRelation(p); err != nil {
		t.Fatal(err)
	}
	if err := sch.AddRelation(c); err != nil {
		t.Fatal(err)
	}
	if err := sch.AddInclusion(schema.InclusionDependency{Child: "C", ChildAttrs: []string{"FK"}, Parent: "P"}); err != nil {
		t.Fatal(err)
	}
	return sch, p, c
}

func pt(t testing.TB, p *schema.Relation, k int64, v string) tuple.T {
	t.Helper()
	return tuple.MustNew(p, value.NewInt(k), value.NewString(v))
}

func ct(t testing.TB, c *schema.Relation, k, fk int64) tuple.T {
	t.Helper()
	return tuple.MustNew(c, value.NewInt(k), value.NewInt(fk))
}

func TestLoadAndLookup(t *testing.T) {
	sch, p, c := pcSchema(t)
	db := Open(sch)
	if err := db.Load("P", pt(t, p, 1, "u")); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("C", ct(t, c, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if db.Len("P") != 1 || db.Len("C") != 1 || db.TotalTuples() != 2 {
		t.Fatal("lengths wrong")
	}
	if !db.Contains(pt(t, p, 1, "u")) || db.Contains(pt(t, p, 1, "v")) {
		t.Fatal("Contains wrong")
	}
	if got, ok := db.LookupKey(pt(t, p, 1, "v")); !ok || got.MustGet("PV") != value.NewString("u") {
		t.Fatal("LookupKey wrong")
	}
	if db.Len("missing") != 0 || db.Tuples("missing") != nil {
		t.Fatal("missing relation reads should be empty")
	}
	if db.Schema() != sch || db.RelationSchema("P") != p {
		t.Fatal("schema accessors wrong")
	}
	if got := db.RelationTuples("P"); len(got) != 1 {
		t.Fatal("RelationTuples wrong")
	}
	if db.SnapshotRelation("missing") != nil {
		t.Fatal("SnapshotRelation of missing should be nil")
	}
}

func TestLoadWrongRelation(t *testing.T) {
	sch, p, _ := pcSchema(t)
	db := Open(sch)
	if err := db.Load("C", pt(t, p, 1, "u")); err == nil {
		t.Fatal("loading a P tuple into C should fail")
	}
}

func TestInclusionEnforcedOnChildInsert(t *testing.T) {
	sch, _, c := pcSchema(t)
	db := Open(sch)
	// Child referencing a missing parent must fail.
	if err := db.Load("C", ct(t, c, 1, 1)); err == nil {
		t.Fatal("dangling child insert should fail")
	}
	if db.Len("C") != 0 {
		t.Fatal("failed insert must not leave state")
	}
}

func TestInclusionEnforcedOnParentDelete(t *testing.T) {
	sch, p, c := pcSchema(t)
	db := Open(sch)
	if err := db.LoadAll(pt(t, p, 1, "u"), ct(t, c, 1, 1)); err != nil {
		t.Fatal(err)
	}
	// Deleting the referenced parent must fail.
	tr := update.NewTranslation(update.NewDelete(pt(t, p, 1, "u")))
	if err := db.Apply(tr); err == nil {
		t.Fatal("deleting referenced parent should fail")
	}
	if db.Len("P") != 1 {
		t.Fatal("failed delete must roll back")
	}
	// Deleting parent and child together is fine.
	tr = update.NewTranslation(
		update.NewDelete(pt(t, p, 1, "u")),
		update.NewDelete(ct(t, c, 1, 1)),
	)
	if err := db.Apply(tr); err != nil {
		t.Fatal(err)
	}
	if db.TotalTuples() != 0 {
		t.Fatal("batch delete incomplete")
	}
}

func TestInclusionKeptByKeyPreservingParentReplace(t *testing.T) {
	sch, p, c := pcSchema(t)
	db := Open(sch)
	if err := db.LoadAll(pt(t, p, 1, "u"), ct(t, c, 1, 1)); err != nil {
		t.Fatal(err)
	}
	// Replacing the parent keeping its key is fine.
	tr := update.NewTranslation(update.NewReplace(pt(t, p, 1, "u"), pt(t, p, 1, "v")))
	if err := db.Apply(tr); err != nil {
		t.Fatal(err)
	}
	// Replacing the parent with a key change leaves the child dangling.
	tr = update.NewTranslation(update.NewReplace(pt(t, p, 1, "v"), pt(t, p, 2, "v")))
	if err := db.Apply(tr); err == nil {
		t.Fatal("key-changing parent replace should fail with dangling child")
	}
	if !db.Contains(pt(t, p, 1, "v")) {
		t.Fatal("failed replace must roll back")
	}
}

func TestAtomicBatchWithInterleavedOrder(t *testing.T) {
	sch, p, c := pcSchema(t)
	db := Open(sch)
	// Child before parent in one batch: the two-phase apply and
	// deferred inclusion checks make order irrelevant.
	if err := db.LoadAll(ct(t, c, 1, 2), pt(t, p, 2, "u")); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckAllInclusions(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeleteInsertSameKey(t *testing.T) {
	sch, p, _ := pcSchema(t)
	db := Open(sch)
	if err := db.Load("P", pt(t, p, 1, "u")); err != nil {
		t.Fatal(err)
	}
	// Delete (1,u) and insert (1,v) in one translation: transiently
	// conflicting under insert-first order, fine under two-phase.
	tr := update.NewTranslation(
		update.NewDelete(pt(t, p, 1, "u")),
		update.NewInsert(pt(t, p, 1, "v")),
	)
	if err := db.Apply(tr); err != nil {
		t.Fatal(err)
	}
	if !db.Contains(pt(t, p, 1, "v")) || db.Contains(pt(t, p, 1, "u")) {
		t.Fatal("swap did not happen")
	}
}

func TestApplyKeySwapViaReplacements(t *testing.T) {
	sch, p, _ := pcSchema(t)
	db := Open(sch)
	if err := db.Load("P", pt(t, p, 1, "u"), pt(t, p, 2, "v")); err != nil {
		t.Fatal(err)
	}
	// Swap the keys of the two tuples with two replacements — the
	// added/removed two-phase semantics handles the cycle.
	tr := update.NewTranslation(
		update.NewReplace(pt(t, p, 1, "u"), pt(t, p, 2, "u")),
		update.NewReplace(pt(t, p, 2, "v"), pt(t, p, 1, "v")),
	)
	if err := db.Apply(tr); err != nil {
		t.Fatal(err)
	}
	if !db.Contains(pt(t, p, 2, "u")) || !db.Contains(pt(t, p, 1, "v")) {
		t.Fatal("key swap failed")
	}
}

func TestApplyRollbackOnPhase2Failure(t *testing.T) {
	sch, p, _ := pcSchema(t)
	db := Open(sch)
	if err := db.Load("P", pt(t, p, 1, "u"), pt(t, p, 2, "v")); err != nil {
		t.Fatal(err)
	}
	// Delete (1,u), then insert a tuple conflicting with (2,v): phase 2
	// fails, phase 1 must roll back.
	tr := update.NewTranslation(
		update.NewDelete(pt(t, p, 1, "u")),
		update.NewInsert(pt(t, p, 2, "u")),
	)
	if err := db.Apply(tr); err == nil {
		t.Fatal("conflicting insert should fail")
	}
	if !db.Contains(pt(t, p, 1, "u")) || !db.Contains(pt(t, p, 2, "v")) || db.TotalTuples() != 2 {
		t.Fatal("rollback incomplete")
	}
}

func TestApplyAbsentRemovals(t *testing.T) {
	sch, p, _ := pcSchema(t)
	db := Open(sch)
	if err := db.Apply(update.NewTranslation(update.NewDelete(pt(t, p, 1, "u")))); err == nil {
		t.Fatal("deleting absent tuple should fail")
	}
	if err := db.Apply(update.NewTranslation(update.NewReplace(pt(t, p, 1, "u"), pt(t, p, 1, "v")))); err == nil {
		t.Fatal("replacing absent tuple should fail")
	}
}

func TestApplyUnknownRelation(t *testing.T) {
	sch, p, _ := pcSchema(t)
	db := Open(sch)
	_ = p
	other := schema.MustRelation("X", []schema.Attribute{
		{Name: "K", Domain: schema.MustDomain("D", value.NewInt(1))},
	}, []string{"K"})
	tr := update.NewTranslation(update.NewInsert(tuple.MustNew(other, value.NewInt(1))))
	err := db.Apply(tr)
	if err == nil || !strings.Contains(err.Error(), "unknown relation") {
		t.Fatalf("want unknown relation error, got %v", err)
	}
}

func TestCloneAndEqual(t *testing.T) {
	sch, p, c := pcSchema(t)
	db := Open(sch)
	if err := db.LoadAll(pt(t, p, 1, "u"), ct(t, c, 1, 1)); err != nil {
		t.Fatal(err)
	}
	cl := db.Clone()
	if !db.Equal(cl) {
		t.Fatal("clone should equal original")
	}
	// Mutating the clone must not affect the original, including the
	// reference index.
	if err := cl.Apply(update.NewTranslation(update.NewDelete(ct(t, c, 1, 1)))); err != nil {
		t.Fatal(err)
	}
	if db.Equal(cl) || db.Len("C") != 1 {
		t.Fatal("clone not independent")
	}
	// Original still refuses to drop the referenced parent.
	if err := db.Apply(update.NewTranslation(update.NewDelete(pt(t, p, 1, "u")))); err == nil {
		t.Fatal("original ref index corrupted by clone")
	}
	// The clone, whose child is gone, allows it.
	if err := cl.Apply(update.NewTranslation(update.NewDelete(pt(t, p, 1, "u")))); err != nil {
		t.Fatalf("clone ref index wrong: %v", err)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	sch, p, _ := pcSchema(t)
	db := Open(sch)
	if err := db.Load("P", pt(t, p, 1, "u")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				db.Tuples("P")
				// Each's callback may read db again while writers queue.
				db.Each("P", func(tu tuple.T) bool {
					_, ok := db.LookupKey(tu)
					return ok
				})
				db.Contains(pt(t, p, 1, "u"))
				db.TotalTuples()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				// Flip PV back and forth; ignore conflicts from racing
				// writers — the invariant is no torn state.
				cur, ok := db.LookupKey(pt(t, p, 1, "u"))
				if !ok {
					continue
				}
				next := "u"
				if cur.MustGet("PV") == value.NewString("u") {
					next = "v"
				}
				_ = db.Apply(update.NewTranslation(update.NewReplace(cur, pt(t, p, 1, next))))
			}
		}()
	}
	wg.Wait()
	if db.Len("P") != 1 {
		t.Fatal("concurrent writes corrupted state")
	}
}

func TestSyncSchema(t *testing.T) {
	kd := schema.MustDomain("KD2", value.NewInt(1), value.NewInt(2))
	p := schema.MustRelation("P", []schema.Attribute{{Name: "PK", Domain: kd}}, []string{"PK"})
	sch := schema.NewDatabase()
	if err := sch.AddRelation(p); err != nil {
		t.Fatal(err)
	}
	db := Open(sch)
	if err := db.Load("P", tuple.MustNew(p, value.NewInt(1))); err != nil {
		t.Fatal(err)
	}
	// Grow the schema: a child relation plus an inclusion.
	c := schema.MustRelation("C", []schema.Attribute{
		{Name: "CK", Domain: kd},
		{Name: "FK", Domain: kd},
	}, []string{"CK"})
	if err := sch.AddRelation(c); err != nil {
		t.Fatal(err)
	}
	if err := db.SyncSchema(); err != nil {
		t.Fatal(err)
	}
	if err := sch.AddInclusion(schema.InclusionDependency{Child: "C", ChildAttrs: []string{"FK"}, Parent: "P"}); err != nil {
		t.Fatal(err)
	}
	if err := db.SyncSchema(); err != nil {
		t.Fatal(err)
	}
	// The new extension accepts consistent data and rejects dangling
	// references.
	if err := db.Load("C", tuple.MustNew(c, value.NewInt(1), value.NewInt(1))); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("C", tuple.MustNew(c, value.NewInt(2), value.NewInt(2))); err == nil {
		t.Fatal("dangling child should fail after sync")
	}
	// Deleting the referenced parent is refused (index rebuilt).
	if err := db.Apply(update.NewTranslation(update.NewDelete(tuple.MustNew(p, value.NewInt(1))))); err == nil {
		t.Fatal("referenced parent delete should fail after sync")
	}
	// A new inclusion violated by existing data is reported.
	d2 := schema.MustRelation("D2", []schema.Attribute{
		{Name: "DK", Domain: kd},
		{Name: "DF", Domain: kd},
	}, []string{"DK"})
	if err := sch.AddRelation(d2); err != nil {
		t.Fatal(err)
	}
	if err := db.SyncSchema(); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("D2", tuple.MustNew(d2, value.NewInt(1), value.NewInt(2))); err != nil {
		t.Fatal(err)
	}
	if err := sch.AddInclusion(schema.InclusionDependency{Child: "D2", ChildAttrs: []string{"DF"}, Parent: "P"}); err != nil {
		t.Fatal(err)
	}
	if err := db.SyncSchema(); err == nil {
		t.Fatal("sync should report the violated new inclusion")
	}
}
