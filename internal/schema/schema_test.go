package schema

import (
	"math"
	"strings"
	"testing"

	"viewupdate/internal/value"
)

func TestNewDomain(t *testing.T) {
	d, err := NewDomain("D", value.NewInt(3), value.NewInt(1), value.NewInt(2), value.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "D" || d.Kind() != value.Int {
		t.Errorf("name/kind wrong: %s %s", d.Name(), d.Kind())
	}
	if d.Size() != 3 {
		t.Errorf("duplicates not removed: size %d", d.Size())
	}
	vals := d.Values()
	for i := 1; i < len(vals); i++ {
		if !vals[i-1].Less(vals[i]) {
			t.Errorf("values not sorted: %v", vals)
		}
	}
	if !d.Contains(value.NewInt(2)) || d.Contains(value.NewInt(9)) {
		t.Error("Contains wrong")
	}
	if d.At(0) != value.NewInt(1) {
		t.Errorf("At(0) = %v", d.At(0))
	}
}

func TestNewDomainErrors(t *testing.T) {
	if _, err := NewDomain("", value.NewInt(1)); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := NewDomain("D"); err == nil {
		t.Error("empty domain should fail")
	}
	if _, err := NewDomain("D", value.NewInt(1), value.NewString("x")); err == nil {
		t.Error("mixed kinds should fail")
	}
	if _, err := NewDomain("D", value.Value{}); err == nil {
		t.Error("invalid value should fail")
	}
}

func TestDomainHelpers(t *testing.T) {
	d, err := IntRangeDomain("R", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 4 || d.At(0) != value.NewInt(2) || d.At(3) != value.NewInt(5) {
		t.Errorf("IntRangeDomain wrong: %v", d.Values())
	}
	if _, err := IntRangeDomain("R", 5, 2); err == nil {
		t.Error("empty range should fail")
	}
	s, err := StringDomain("S", "b", "a")
	if err != nil {
		t.Fatal(err)
	}
	if s.At(0) != value.NewString("a") {
		t.Errorf("StringDomain not sorted: %v", s.Values())
	}
	b := BoolDomain("B")
	if b.Size() != 2 {
		t.Errorf("BoolDomain size %d", b.Size())
	}
}

func TestDomainComplement(t *testing.T) {
	d := MustDomain("D", value.NewInt(1), value.NewInt(2), value.NewInt(3))
	in := map[value.Value]bool{value.NewInt(2): true}
	comp := d.Complement(in)
	if len(comp) != 2 || comp[0] != value.NewInt(1) || comp[1] != value.NewInt(3) {
		t.Errorf("Complement = %v", comp)
	}
	if got := d.Complement(nil); len(got) != 3 {
		t.Errorf("Complement(nil) = %v", got)
	}
}

func TestDomainString(t *testing.T) {
	d := MustDomain("D", value.NewInt(1), value.NewInt(2))
	if got := d.String(); got != "D{1,2}" {
		t.Errorf("String() = %q", got)
	}
}

func testRelation(t *testing.T) *Relation {
	t.Helper()
	k := MustDomain("KD", value.NewInt(1), value.NewInt(2))
	a := MustDomain("AD", value.NewString("x"), value.NewString("y"))
	return MustRelation("R", []Attribute{
		{Name: "K1", Domain: k},
		{Name: "K2", Domain: k},
		{Name: "A", Domain: a},
	}, []string{"K2", "K1"}) // key listed out of schema order on purpose
}

func TestRelationBasics(t *testing.T) {
	r := testRelation(t)
	if r.Name() != "R" || r.Arity() != 3 {
		t.Errorf("basics wrong: %s/%d", r.Name(), r.Arity())
	}
	if got := r.AttributeNames(); len(got) != 3 || got[0] != "K1" {
		t.Errorf("AttributeNames = %v", got)
	}
	if r.Index("A") != 2 || r.Index("missing") != -1 {
		t.Error("Index wrong")
	}
	if !r.Has("K1") || r.Has("missing") {
		t.Error("Has wrong")
	}
	if a, ok := r.Attribute("A"); !ok || a.Name != "A" {
		t.Error("Attribute wrong")
	}
	if _, ok := r.Attribute("missing"); ok {
		t.Error("Attribute should miss")
	}
	// Key normalizes to schema order.
	if key := r.Key(); len(key) != 2 || key[0] != "K1" || key[1] != "K2" {
		t.Errorf("Key = %v (want schema order)", key)
	}
	if !r.IsKey("K1") || r.IsKey("A") {
		t.Error("IsKey wrong")
	}
	if idx := r.KeyIndexes(); len(idx) != 2 || idx[0] != 0 || idx[1] != 1 {
		t.Errorf("KeyIndexes = %v", idx)
	}
	if nk := r.NonKeyAttributes(); len(nk) != 1 || nk[0] != "A" {
		t.Errorf("NonKeyAttributes = %v", nk)
	}
	if n := r.ExtensionSize(); n != 8 {
		t.Errorf("ExtensionSize = %d", n)
	}
	if s := r.String(); !strings.Contains(s, "K1*") || !strings.Contains(s, "A") || strings.Contains(s, "A*") {
		t.Errorf("String = %q", s)
	}
}

func TestRelationErrors(t *testing.T) {
	d := MustDomain("D", value.NewInt(1))
	cases := []struct {
		name  string
		attrs []Attribute
		key   []string
	}{
		{"", []Attribute{{Name: "A", Domain: d}}, []string{"A"}},
		{"R", nil, []string{"A"}},
		{"R", []Attribute{{Name: "", Domain: d}}, []string{"A"}},
		{"R", []Attribute{{Name: "A", Domain: nil}}, []string{"A"}},
		{"R", []Attribute{{Name: "A", Domain: d}, {Name: "A", Domain: d}}, []string{"A"}},
		{"R", []Attribute{{Name: "A", Domain: d}}, nil},
		{"R", []Attribute{{Name: "A", Domain: d}}, []string{"B"}},
		{"R", []Attribute{{Name: "A", Domain: d}}, []string{"A", "A"}},
	}
	for i, c := range cases {
		if _, err := NewRelation(c.name, c.attrs, c.key); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// TestIntRangeDomain: a range is built in place (same values and index
// as NewDomain would give), remembers its bounds, and refuses, before
// allocating, any range whose size overflows or exceeds MaxRangeSize.
func TestIntRangeDomain(t *testing.T) {
	d, err := IntRangeDomain("R", -3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi, ok := d.Range(); !ok || lo != -3 || hi != 4 {
		t.Errorf("Range = %d, %d, %v; want -3, 4, true", lo, hi, ok)
	}
	for i, v := range d.Values() {
		if v != value.NewInt(int64(i)-3) || !d.Contains(v) || d.index[v] != i {
			t.Errorf("value %d = %v (index %d)", i, v, d.index[v])
		}
	}
	if d.Size() != 8 || d.Kind() != value.Int || d.Contains(value.NewInt(5)) {
		t.Errorf("IntRangeDomain(-3, 4) = %v", d)
	}
	if _, _, ok := MustDomain("L", value.NewInt(1)).Range(); ok {
		t.Error("a value-list domain reports a range")
	}
	if _, err := IntRangeDomain("Max", 1, MaxRangeSize); err != nil {
		t.Errorf("a range of MaxRangeSize values: %v", err)
	}
	for _, c := range []struct{ lo, hi int64 }{
		{1, MaxRangeSize + 1},
		{1, 4000000000},
		{math.MinInt64, math.MaxInt64}, // hi-lo+1 wraps to 0
		{1, math.MaxInt64},
		{math.MinInt64, 0},
	} {
		if _, err := IntRangeDomain("Huge", c.lo, c.hi); err == nil {
			t.Errorf("IntRangeDomain(%d, %d) accepted", c.lo, c.hi)
		}
	}
	if _, err := IntRangeDomain("", 1, 2); err == nil {
		t.Error("a nameless range accepted")
	}
}

func TestExtensionSizeSaturates(t *testing.T) {
	big, err := IntRangeDomain("Big", 1, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	r := MustRelation("R", []Attribute{
		{Name: "A", Domain: big},
		{Name: "B", Domain: big},
		{Name: "C", Domain: big},
		{Name: "D", Domain: big},
	}, []string{"A"})
	if n := r.ExtensionSize(); n != int64(1)<<62 {
		t.Errorf("ExtensionSize should saturate, got %d", n)
	}
}

func TestDatabaseSchema(t *testing.T) {
	d := MustDomain("D", value.NewInt(1), value.NewInt(2))
	parent := MustRelation("P", []Attribute{
		{Name: "PK", Domain: d},
		{Name: "PV", Domain: d},
	}, []string{"PK"})
	child := MustRelation("C", []Attribute{
		{Name: "CK", Domain: d},
		{Name: "FK", Domain: d},
	}, []string{"CK"})

	db := NewDatabase()
	if err := db.AddRelation(parent); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(child); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(parent); err == nil {
		t.Error("duplicate relation should fail")
	}
	if db.Relation("P") != parent || db.Relation("missing") != nil {
		t.Error("Relation lookup wrong")
	}
	if names := db.RelationNames(); len(names) != 2 || names[0] != "P" {
		t.Errorf("RelationNames = %v", names)
	}

	dep := InclusionDependency{Child: "C", ChildAttrs: []string{"FK"}, Parent: "P"}
	if err := db.AddInclusion(dep); err != nil {
		t.Fatal(err)
	}
	if got := db.Inclusions(); len(got) != 1 || got[0].Child != "C" {
		t.Errorf("Inclusions = %v", got)
	}
	if got := db.InclusionsFrom("C"); len(got) != 1 {
		t.Errorf("InclusionsFrom = %v", got)
	}
	if got := db.InclusionsFrom("P"); len(got) != 0 {
		t.Errorf("InclusionsFrom(P) = %v", got)
	}
	if got := db.InclusionsInto("P"); len(got) != 1 {
		t.Errorf("InclusionsInto = %v", got)
	}
}

func TestAddInclusionErrors(t *testing.T) {
	d := MustDomain("D", value.NewInt(1))
	e := MustDomain("E", value.NewString("x"))
	p := MustRelation("P", []Attribute{{Name: "PK", Domain: d}}, []string{"PK"})
	c := MustRelation("C", []Attribute{
		{Name: "CK", Domain: d},
		{Name: "FK", Domain: d},
		{Name: "FS", Domain: e},
	}, []string{"CK"})
	db := NewDatabase()
	if err := db.AddRelation(p); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRelation(c); err != nil {
		t.Fatal(err)
	}
	cases := []InclusionDependency{
		{Child: "missing", ChildAttrs: []string{"FK"}, Parent: "P"},
		{Child: "C", ChildAttrs: []string{"FK"}, Parent: "missing"},
		{Child: "C", ChildAttrs: []string{"FK", "CK"}, Parent: "P"}, // arity mismatch
		{Child: "C", ChildAttrs: []string{"nope"}, Parent: "P"},
		{Child: "C", ChildAttrs: []string{"FS"}, Parent: "P"}, // domain mismatch
	}
	for i, dep := range cases {
		if err := db.AddInclusion(dep); err == nil {
			t.Errorf("case %d should fail: %v", i, dep)
		}
	}
	if s := (InclusionDependency{Child: "C", ChildAttrs: []string{"FK"}, Parent: "P"}).String(); !strings.Contains(s, "C[FK]") {
		t.Errorf("String = %q", s)
	}
}
