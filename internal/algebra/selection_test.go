package algebra

import (
	"slices"
	"strings"
	"testing"
	"time"

	"viewupdate/internal/schema"
	"viewupdate/internal/tuple"
	"viewupdate/internal/value"
)

func testRel(t testing.TB) *schema.Relation {
	t.Helper()
	k := schema.MustDomain("KD", value.NewInt(1), value.NewInt(2), value.NewInt(3))
	a := schema.MustDomain("AD", value.NewString("x"), value.NewString("y"), value.NewString("z"))
	b := schema.BoolDomain("BD")
	return schema.MustRelation("R", []schema.Attribute{
		{Name: "K", Domain: k},
		{Name: "A", Domain: a},
		{Name: "B", Domain: b},
	}, []string{"K"})
}

func mk(t testing.TB, rel *schema.Relation, k int64, a string, b bool) tuple.T {
	t.Helper()
	return tuple.MustNew(rel, value.NewInt(k), value.NewString(a), value.NewBool(b))
}

func TestSelectionTrue(t *testing.T) {
	rel := testRel(t)
	s := NewSelection(rel)
	if !s.IsTrue() {
		t.Fatal("empty conjunction should be true")
	}
	if s.String() != "true" {
		t.Fatalf("String = %q", s.String())
	}
	if !s.Matches(mk(t, rel, 1, "x", true)) {
		t.Fatal("true should match everything")
	}
	if got := s.SelectingValues("A"); len(got) != 3 {
		t.Fatalf("non-selecting attr should select whole domain, got %v", got)
	}
	if got := s.ExcludingValues("A"); len(got) != 0 {
		t.Fatalf("non-selecting attr should exclude nothing, got %v", got)
	}
	if len(s.SelectingAttributes()) != 0 {
		t.Fatal("true has no selecting attributes")
	}
}

func TestSelectionTermBasics(t *testing.T) {
	rel := testRel(t)
	s := NewSelection(rel)
	if err := s.AddTerm("A", value.NewString("x"), value.NewString("y")); err != nil {
		t.Fatal(err)
	}
	if s.IsTrue() || !s.IsSelecting("A") || s.IsSelecting("B") {
		t.Fatal("term bookkeeping wrong")
	}
	if !s.Matches(mk(t, rel, 1, "x", false)) || s.Matches(mk(t, rel, 1, "z", false)) {
		t.Fatal("Matches wrong")
	}
	if got := s.SelectingValues("A"); len(got) != 2 {
		t.Fatalf("SelectingValues = %v", got)
	}
	if got := s.ExcludingValues("A"); len(got) != 1 || got[0] != value.NewString("z") {
		t.Fatalf("ExcludingValues = %v", got)
	}
	if !s.Selects("A", value.NewString("x")) || s.Selects("A", value.NewString("z")) {
		t.Fatal("Selects wrong")
	}
	if !s.Selects("B", value.NewBool(true)) {
		t.Fatal("non-selecting attr should select all")
	}
	term := s.Term("A")
	if term == nil || term.Attr() != "A" {
		t.Fatal("Term accessor wrong")
	}
	if s.Term("B") != nil {
		t.Fatal("Term on non-selecting should be nil")
	}
	if got := term.String(); !strings.Contains(got, "A IN") {
		t.Fatalf("term String = %q", got)
	}
}

func TestSelectionErrors(t *testing.T) {
	rel := testRel(t)
	s := NewSelection(rel)
	if err := s.AddTerm("missing", value.NewString("x")); err == nil {
		t.Fatal("unknown attribute should fail")
	}
	if err := s.AddTerm("A"); err == nil {
		t.Fatal("empty selecting set should fail")
	}
	if err := s.AddTerm("A", value.NewInt(1)); err == nil {
		t.Fatal("out-of-domain value should fail")
	}
}

func TestSelectionConjunctionIntersects(t *testing.T) {
	rel := testRel(t)
	s := NewSelection(rel)
	if err := s.AddTerm("A", value.NewString("x"), value.NewString("y")); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTerm("A", value.NewString("y"), value.NewString("z")); err != nil {
		t.Fatal(err)
	}
	if got := s.SelectingValues("A"); len(got) != 1 || got[0] != value.NewString("y") {
		t.Fatalf("conjunction should intersect: %v", got)
	}
	// Emptying intersection fails.
	if err := s.AddTerm("A", value.NewString("x")); err == nil {
		t.Fatal("empty intersection should fail")
	}
}

// TestSelectionSelectingValuesOrder: the selecting values come back in
// domain order whatever order AddTerm was given them in, and a clone's
// intersection leaves the original's values alone.
func TestSelectionSelectingValuesOrder(t *testing.T) {
	rel := testRel(t)
	x, y, z := value.NewString("x"), value.NewString("y"), value.NewString("z")
	s := NewSelection(rel).MustAddTerm("A", z, x, y, x)
	if got := s.SelectingValues("A"); !slices.Equal(got, []value.Value{x, y, z}) {
		t.Fatalf("SelectingValues = %v, want [x y z]", got)
	}
	c := s.Clone().MustAddTerm("A", z, x)
	if got := c.SelectingValues("A"); !slices.Equal(got, []value.Value{x, z}) {
		t.Fatalf("clone's intersection = %v, want [x z]", got)
	}
	if got := s.SelectingValues("A"); !slices.Equal(got, []value.Value{x, y, z}) {
		t.Fatalf("original after clone's intersection = %v, want [x y z]", got)
	}
}

// TestSelectingValuesCostIsTheTermNotTheDomain pins the cost of
// SelectingValues to the size of the selecting set: translation calls
// it for every request on a view whose WHERE names the attribute, and a
// key domain may hold hundreds of thousands of values. Scanning the
// domain made these 1,000 calls take about 8 s.
func TestSelectingValuesCostIsTheTermNotTheDomain(t *testing.T) {
	kd, err := schema.IntRangeDomain("Big", 1, 200000)
	if err != nil {
		t.Fatal(err)
	}
	rel := schema.MustRelation("Wide", []schema.Attribute{{Name: "K", Domain: kd}}, []string{"K"})
	s := NewSelection(rel).MustAddTerm("K", value.NewInt(150000))
	start := time.Now()
	for range 1000 {
		if got := s.SelectingValues("K"); len(got) != 1 || got[0] != value.NewInt(150000) {
			t.Fatalf("SelectingValues = %v", got)
		}
	}
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Fatalf("1,000 SelectingValues calls on a one-value term took %v; it should not scan the domain", took)
	}
}

func TestSelectionMatchesProjected(t *testing.T) {
	rel := testRel(t)
	s := NewSelection(rel)
	if err := s.AddTerm("A", value.NewString("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTerm("B", value.NewBool(true)); err != nil {
		t.Fatal(err)
	}
	// A projected view tuple lacking B: terms on absent attrs ignored.
	proj, err := NewProjection(rel, []string{"K", "A"})
	if err != nil {
		t.Fatal(err)
	}
	vrel, err := proj.DerivedSchema("V")
	if err != nil {
		t.Fatal(err)
	}
	vt := tuple.MustNew(vrel, value.NewInt(1), value.NewString("x"))
	if !s.MatchesProjected(vt) {
		t.Fatal("MatchesProjected should ignore hidden terms")
	}
	bad := tuple.MustNew(vrel, value.NewInt(1), value.NewString("z"))
	if s.MatchesProjected(bad) {
		t.Fatal("MatchesProjected should check visible terms")
	}
	// Full Matches on a tuple missing the attribute fails.
	if s.Matches(vt) {
		t.Fatal("Matches should fail when a selecting attribute is absent")
	}
}

func TestSelectionCloneIndependent(t *testing.T) {
	rel := testRel(t)
	s := NewSelection(rel).MustAddTerm("A", value.NewString("x"))
	c := s.Clone()
	if err := c.AddTerm("B", value.NewBool(true)); err != nil {
		t.Fatal(err)
	}
	if s.IsSelecting("B") {
		t.Fatal("clone not independent")
	}
	if c.Relation() != rel {
		t.Fatal("clone lost relation")
	}
}

func TestSelectionString(t *testing.T) {
	rel := testRel(t)
	s := NewSelection(rel).
		MustAddTerm("B", value.NewBool(true)).
		MustAddTerm("A", value.NewString("x"))
	got := s.String()
	// Schema order: A term renders before B term.
	if !strings.Contains(got, "A IN {'x'}") || !strings.Contains(got, "B IN {true}") {
		t.Fatalf("String = %q", got)
	}
	if strings.Index(got, "A IN") > strings.Index(got, "B IN") {
		t.Fatalf("String not in schema order: %q", got)
	}
	if got := s.SortedAttrs(); len(got) != 2 || got[0] != "A" {
		t.Fatalf("SortedAttrs = %v", got)
	}
}

func TestProjection(t *testing.T) {
	rel := testRel(t)
	p, err := NewProjection(rel, []string{"K", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Relation() != rel || !p.Keeps("K") || p.Keeps("A") {
		t.Fatal("projection basics wrong")
	}
	if got := p.Attributes(); len(got) != 2 || got[1] != "B" {
		t.Fatalf("Attributes = %v", got)
	}
	if got := p.RemovedAttributes(); len(got) != 1 || got[0] != "A" {
		t.Fatalf("RemovedAttributes = %v", got)
	}
	if p.IsIdentity() {
		t.Fatal("not identity")
	}
	if !p.KeepsKey() {
		t.Fatal("keeps key")
	}
	id := IdentityProjection(rel)
	if !id.IsIdentity() {
		t.Fatal("identity projection wrong")
	}
	vrel, err := p.DerivedSchema("V")
	if err != nil {
		t.Fatal(err)
	}
	if vrel.Arity() != 2 || vrel.Key()[0] != "K" {
		t.Fatal("derived schema wrong")
	}
	row, err := p.Apply(vrel, mk(t, rel, 2, "y", true))
	if err != nil {
		t.Fatal(err)
	}
	if row.MustGet("B") != value.NewBool(true) {
		t.Fatal("Apply wrong")
	}
}

func TestProjectionErrors(t *testing.T) {
	rel := testRel(t)
	if _, err := NewProjection(rel, nil); err == nil {
		t.Fatal("empty projection should fail")
	}
	if _, err := NewProjection(rel, []string{"missing"}); err == nil {
		t.Fatal("unknown attribute should fail")
	}
	if _, err := NewProjection(rel, []string{"K", "K"}); err == nil {
		t.Fatal("duplicate attribute should fail")
	}
	// Dropping the key blocks DerivedSchema.
	p, err := NewProjection(rel, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if p.KeepsKey() {
		t.Fatal("KeepsKey should be false")
	}
	if _, err := p.DerivedSchema("V"); err == nil {
		t.Fatal("DerivedSchema without key should fail")
	}
}
