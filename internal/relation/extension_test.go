package relation

import (
	"testing"

	"viewupdate/internal/schema"
	"viewupdate/internal/tuple"
	"viewupdate/internal/value"
)

func testRel(t testing.TB) *schema.Relation {
	t.Helper()
	k := schema.MustDomain("KD", value.NewInt(1), value.NewInt(2), value.NewInt(3))
	a := schema.MustDomain("AD", value.NewString("x"), value.NewString("y"))
	return schema.MustRelation("R", []schema.Attribute{
		{Name: "K", Domain: k},
		{Name: "A", Domain: a},
	}, []string{"K"})
}

func otherRel(t testing.TB) *schema.Relation {
	t.Helper()
	k := schema.MustDomain("KD2", value.NewInt(1))
	return schema.MustRelation("S", []schema.Attribute{{Name: "K", Domain: k}}, []string{"K"})
}

func mk(t testing.TB, rel *schema.Relation, k int64, a string) tuple.T {
	t.Helper()
	return tuple.MustNew(rel, value.NewInt(k), value.NewString(a))
}

func TestInsertAndKeyDependency(t *testing.T) {
	rel := testRel(t)
	e := NewExtension(rel)
	if e.Relation() != rel || e.Len() != 0 {
		t.Fatal("fresh extension wrong")
	}
	t1 := mk(t, rel, 1, "x")
	if err := e.Insert(t1); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 1 || !e.Contains(t1) {
		t.Fatal("insert not visible")
	}
	// Same key, different value: key dependency violation.
	if err := e.Insert(mk(t, rel, 1, "y")); err == nil {
		t.Fatal("key conflict should fail")
	}
	// Exact duplicate also fails (it is the same key).
	if err := e.Insert(t1); err == nil {
		t.Fatal("duplicate insert should fail")
	}
	// Foreign schema rejected.
	o := otherRel(t)
	if err := e.Insert(tuple.MustNew(o, value.NewInt(1))); err == nil {
		t.Fatal("foreign tuple should fail")
	}
}

func TestDelete(t *testing.T) {
	rel := testRel(t)
	e := NewExtension(rel)
	t1 := mk(t, rel, 1, "x")
	if err := e.Insert(t1); err != nil {
		t.Fatal(err)
	}
	// Deleting a same-key, different-value tuple must fail.
	if err := e.Delete(mk(t, rel, 1, "y")); err == nil {
		t.Fatal("delete of non-matching tuple should fail")
	}
	if err := e.Delete(t1); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 0 {
		t.Fatal("delete did not remove")
	}
	if err := e.Delete(t1); err == nil {
		t.Fatal("double delete should fail")
	}
}

func TestReplace(t *testing.T) {
	rel := testRel(t)
	e := NewExtension(rel)
	t1 := mk(t, rel, 1, "x")
	t2 := mk(t, rel, 2, "x")
	if err := e.Insert(t1); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(t2); err != nil {
		t.Fatal(err)
	}

	// Key-preserving replace.
	if err := e.Replace(t1, mk(t, rel, 1, "y")); err != nil {
		t.Fatal(err)
	}
	if !e.Contains(mk(t, rel, 1, "y")) || e.Contains(t1) {
		t.Fatal("replace did not swap")
	}
	// Key-changing replace onto an occupied key fails atomically.
	if err := e.Replace(mk(t, rel, 1, "y"), mk(t, rel, 2, "y")); err == nil {
		t.Fatal("replace onto occupied key should fail")
	}
	if !e.Contains(mk(t, rel, 1, "y")) {
		t.Fatal("failed replace must not remove the old tuple")
	}
	// Key-changing replace onto a free key.
	if err := e.Replace(mk(t, rel, 1, "y"), mk(t, rel, 3, "y")); err != nil {
		t.Fatal(err)
	}
	if !e.Contains(mk(t, rel, 3, "y")) || e.ContainsKey(mk(t, rel, 1, "x")) {
		t.Fatal("key-changing replace wrong")
	}
	// Replacing an absent tuple fails.
	if err := e.Replace(mk(t, rel, 1, "x"), mk(t, rel, 1, "y")); err == nil {
		t.Fatal("replace of absent tuple should fail")
	}
}

func TestLookups(t *testing.T) {
	rel := testRel(t)
	e := NewExtension(rel)
	t1 := mk(t, rel, 1, "x")
	if err := e.Insert(t1); err != nil {
		t.Fatal(err)
	}
	if got, ok := e.LookupKey(mk(t, rel, 1, "y")); !ok || !got.Equal(t1) {
		t.Fatal("LookupKey by probe wrong")
	}
	if _, ok := e.LookupKey(mk(t, rel, 2, "y")); ok {
		t.Fatal("LookupKey should miss")
	}
	if got, ok := e.LookupKeyValues([]value.Value{value.NewInt(1)}); !ok || !got.Equal(t1) {
		t.Fatal("LookupKeyValues wrong")
	}
	if !e.ContainsKey(mk(t, rel, 1, "y")) || e.ContainsKey(mk(t, rel, 3, "x")) {
		t.Fatal("ContainsKey wrong")
	}
	if !e.ContainsKeyEncoding(t1.Key()) {
		t.Fatal("ContainsKeyEncoding wrong")
	}
}

func TestTuplesDeterministicOrder(t *testing.T) {
	rel := testRel(t)
	e := NewExtension(rel)
	for _, k := range []int64{3, 1, 2} {
		if err := e.Insert(mk(t, rel, k, "x")); err != nil {
			t.Fatal(err)
		}
	}
	got := e.Tuples()
	if len(got) != 3 {
		t.Fatalf("Tuples = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Key() >= got[i].Key() {
			t.Fatal("Tuples not in deterministic key order")
		}
	}
}

// Tuples must come back in key order after every mutation kind and
// across Clone: no write keeps an ordering, so each read sorts afresh,
// and each step checks that order.
func TestTuplesCacheSurvivesMutation(t *testing.T) {
	kvals := make([]value.Value, 9)
	for i := range kvals {
		kvals[i] = value.NewInt(int64(i + 1))
	}
	k := schema.MustDomain("KD9", kvals...)
	a := schema.MustDomain("AD3", value.NewString("x"), value.NewString("y"), value.NewString("z"))
	rel := schema.MustRelation("R9", []schema.Attribute{
		{Name: "K", Domain: k},
		{Name: "A", Domain: a},
	}, []string{"K"})
	e := NewExtension(rel)
	check := func(e *Extension, want int) {
		t.Helper()
		got := e.Tuples()
		if len(got) != want {
			t.Fatalf("Tuples len = %d, want %d", len(got), want)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Key() >= got[i].Key() {
				t.Fatalf("Tuples out of order at %d: %s >= %s", i, got[i-1].Key(), got[i].Key())
			}
		}
		if fresh := len(e.byKey); fresh != want {
			t.Fatalf("byKey len %d, want %d", fresh, want)
		}
	}
	for _, kv := range []int64{5, 1, 9, 3} {
		if err := e.Insert(mk(t, rel, kv, "x")); err != nil {
			t.Fatal(err)
		}
	}
	check(e, 4) // first ordered read
	if err := e.Insert(mk(t, rel, 7, "x")); err != nil {
		t.Fatal(err)
	}
	check(e, 5) // insert after an ordered read
	if err := e.Delete(mk(t, rel, 1, "x")); err != nil {
		t.Fatal(err)
	}
	check(e, 4) // delete
	if err := e.Replace(mk(t, rel, 9, "x"), mk(t, rel, 2, "y")); err != nil {
		t.Fatal(err)
	}
	check(e, 4) // key-moving replace

	// Diverging mutations after a clone stay invisible to the other
	// side.
	c := e.Clone()
	beforeClone := e.Tuples()
	if err := c.Insert(mk(t, rel, 6, "z")); err != nil {
		t.Fatal(err)
	}
	check(c, 5)
	check(e, 4)
	after := e.Tuples()
	if len(beforeClone) != len(after) {
		t.Fatalf("original reordered by clone mutation: %d vs %d", len(beforeClone), len(after))
	}
}

func TestEachEarlyStop(t *testing.T) {
	rel := testRel(t)
	e := NewExtension(rel)
	for k := int64(1); k <= 3; k++ {
		if err := e.Insert(mk(t, rel, k, "x")); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	e.Each(func(tuple.T) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Each should stop after first, visited %d", n)
	}
}

func TestCloneEqualSet(t *testing.T) {
	rel := testRel(t)
	e := NewExtension(rel)
	if err := e.Insert(mk(t, rel, 1, "x")); err != nil {
		t.Fatal(err)
	}
	c := e.Clone()
	if !e.Equal(c) {
		t.Fatal("clone should equal original")
	}
	if err := c.Insert(mk(t, rel, 2, "y")); err != nil {
		t.Fatal(err)
	}
	if e.Equal(c) || e.Len() != 1 {
		t.Fatal("clone should be independent")
	}
	s := e.Set()
	if s.Len() != 1 || !s.Contains(mk(t, rel, 1, "x")) {
		t.Fatal("Set conversion wrong")
	}
	// Equal with same length but different keys.
	d := NewExtension(rel)
	if err := d.Insert(mk(t, rel, 2, "x")); err != nil {
		t.Fatal(err)
	}
	if e.Equal(d) {
		t.Fatal("different extensions compared equal")
	}
	// Equal with same key but different tuple values.
	d2 := NewExtension(rel)
	if err := d2.Insert(mk(t, rel, 1, "y")); err != nil {
		t.Fatal(err)
	}
	if e.Equal(d2) {
		t.Fatal("same-key different-value extensions compared equal")
	}
}

func TestSecondaryIndex(t *testing.T) {
	rel := testRel(t)
	e := NewExtension(rel)
	if err := e.EnsureIndex("missing"); err == nil {
		t.Fatal("index on unknown attribute should fail")
	}
	// Backfill on creation.
	if err := e.Insert(mk(t, rel, 1, "x")); err != nil {
		t.Fatal(err)
	}
	if err := e.EnsureIndex("A"); err != nil {
		t.Fatal(err)
	}
	if !e.HasIndex("A") || e.HasIndex("K") {
		t.Fatal("HasIndex wrong")
	}
	if got := e.IndexedAttrs(); len(got) != 1 || got[0] != "A" {
		t.Fatalf("IndexedAttrs = %v", got)
	}
	// Idempotent.
	if err := e.EnsureIndex("A"); err != nil {
		t.Fatal(err)
	}
	// Maintained through mutations.
	if err := e.Insert(mk(t, rel, 2, "y")); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(mk(t, rel, 3, "x")); err != nil {
		t.Fatal(err)
	}
	scan := func(vals ...string) int {
		var vv []value.Value
		for _, s := range vals {
			vv = append(vv, value.NewString(s))
		}
		n := 0
		e.ScanValues("A", vv, func(tuple.T) bool { n++; return true })
		return n
	}
	if scan("x") != 2 || scan("y") != 1 || scan("x", "y") != 3 {
		t.Fatalf("indexed scan counts wrong: x=%d y=%d xy=%d", scan("x"), scan("y"), scan("x", "y"))
	}
	if err := e.Replace(mk(t, rel, 1, "x"), mk(t, rel, 1, "y")); err != nil {
		t.Fatal(err)
	}
	if scan("x") != 1 || scan("y") != 2 {
		t.Fatal("index stale after replace")
	}
	if err := e.Delete(mk(t, rel, 3, "x")); err != nil {
		t.Fatal(err)
	}
	if scan("x") != 0 {
		t.Fatal("index stale after delete")
	}
	// Early stop.
	n := 0
	e.ScanValues("A", []value.Value{value.NewString("y")}, func(tuple.T) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop broken: %d", n)
	}
	// Unindexed scan path agrees.
	e2 := NewExtension(rel)
	if err := e2.Insert(mk(t, rel, 1, "x")); err != nil {
		t.Fatal(err)
	}
	m := 0
	e2.ScanValues("A", []value.Value{value.NewString("x")}, func(tuple.T) bool { m++; return true })
	if m != 1 {
		t.Fatalf("fallback scan wrong: %d", m)
	}
	m = 0
	e2.ScanValues("A", []value.Value{value.NewString("x")}, func(tuple.T) bool { m++; return false })
	if m != 1 {
		t.Fatal("fallback early stop broken")
	}
	// Clone carries the index.
	c := e.Clone()
	if !c.HasIndex("A") {
		t.Fatal("clone lost index")
	}
	if err := c.Insert(mk(t, rel, 3, "y")); err != nil {
		t.Fatal(err)
	}
	cn := 0
	c.ScanValues("A", []value.Value{value.NewString("y")}, func(tuple.T) bool { cn++; return true })
	if cn != 3 {
		t.Fatalf("clone index wrong: %d", cn)
	}
	if scan("y") != 2 {
		t.Fatal("clone index shared with original")
	}
}
