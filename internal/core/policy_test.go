package core

import (
	"strings"
	"testing"

	"viewupdate/internal/algebra"
	"viewupdate/internal/fixtures"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
)

func TestSimplestDeterministic(t *testing.T) {
	f := fixtures.NewEmp(20)
	db := f.PaperInstance()
	u := f.ViewTuple(f.ViewP, 17, "Susan", "New York", true)
	cands, err := EnumerateSPDelete(db, f.ViewP, u)
	if err != nil {
		t.Fatal(err)
	}
	p := Simplest{}
	c1, err := p.Choose(DeleteRequest(u), cands)
	if err != nil {
		t.Fatal(err)
	}
	// Reversing the candidate order must not change the choice.
	rev := make([]Candidate, len(cands))
	for i, c := range cands {
		rev[len(cands)-1-i] = c
	}
	c2, err := p.Choose(DeleteRequest(u), rev)
	if err != nil {
		t.Fatal(err)
	}
	if !c1.Translation.Equal(c2.Translation) {
		t.Fatal("Simplest not deterministic under reordering")
	}
	if _, err := p.Choose(DeleteRequest(u), nil); err == nil {
		t.Fatal("empty candidate list should fail")
	}
	if p.Name() == "" {
		t.Fatal("policy name empty")
	}
}

func TestRejectAmbiguous(t *testing.T) {
	f := fixtures.NewEmp(20)
	db := f.PaperInstance()
	u := f.ViewTuple(f.ViewP, 17, "Susan", "New York", true)
	cands, err := EnumerateSPDelete(db, f.ViewP, u)
	if err != nil {
		t.Fatal(err)
	}
	p := RejectAmbiguous{}
	if _, err := p.Choose(DeleteRequest(u), cands); err == nil {
		t.Fatal("two candidates should be ambiguous")
	}
	if _, err := p.Choose(DeleteRequest(u), cands[:1]); err != nil {
		t.Fatalf("single candidate should pass: %v", err)
	}
	if _, err := p.Choose(DeleteRequest(u), nil); err == nil {
		t.Fatal("no candidates should fail")
	}
	if p.Name() == "" {
		t.Fatal("policy name empty")
	}
}

func TestPreferClasses(t *testing.T) {
	f := fixtures.NewEmp(20)
	db := f.PaperInstance()
	u := f.ViewTuple(f.ViewP, 17, "Susan", "New York", true)
	cands, err := EnumerateSPDelete(db, f.ViewP, u)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		order []string
		want  string
	}{
		{[]string{"D-1", "D-2"}, "D-1"},
		{[]string{"D-2", "D-1"}, "D-2"},
		{[]string{"D-2"}, "D-2"},
	} {
		p := PreferClasses{Order: tc.order}
		c, err := p.Choose(DeleteRequest(u), cands)
		if err != nil {
			t.Fatal(err)
		}
		if c.Class != tc.want {
			t.Fatalf("order %v chose %s, want %s", tc.order, c.Class, tc.want)
		}
	}
	// Default name derives from the order; label overrides.
	if got := (PreferClasses{Order: []string{"D-1"}}).Name(); !strings.Contains(got, "D-1") {
		t.Fatalf("Name = %q", got)
	}
	if got := (PreferClasses{Label: "susan"}).Name(); got != "susan" {
		t.Fatalf("Name = %q", got)
	}
	if _, err := (PreferClasses{}).Choose(DeleteRequest(u), nil); err == nil {
		t.Fatal("empty candidates should fail")
	}
}

func TestClassTokens(t *testing.T) {
	cases := []struct {
		class string
		want  []string
	}{
		{"D-2", []string{"D-2"}},
		{"SPJ-I(emp:I-1, dept:R-1)", []string{"I-1", "R-1"}},
		{"SPJ-D(CXDv:D-1)", []string{"D-1"}},
	}
	for _, c := range cases {
		got := ClassTokens(c.class)
		if len(got) != len(c.want) {
			t.Fatalf("ClassTokens(%q) = %v", c.class, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ClassTokens(%q) = %v, want %v", c.class, got, c.want)
			}
		}
	}
}

// TestWithDefaults steers extend-insert choices: a view projecting out
// Location with two selecting values picks the configured default.
func TestWithDefaults(t *testing.T) {
	f := fixtures.NewEmp(20)
	// View over EMP projecting out Location entirely (no selection):
	// extend-insert must choose a Location.
	v, err := view.NewSP("NoLoc", algebra.NewSelection(f.Rel), []string{"EmpNo", "Name", "Baseball"})
	if err != nil {
		t.Fatal(err)
	}
	if UniqueExtendInsert(v) {
		t.Fatal("hiding a 2-value attribute leaves extend-insert non-unique")
	}
	db := f.PaperInstance()
	u, err := MakeRow(v.Schema(), 9, "Ivan", false)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := EnumerateSPInsert(db, v, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("want 2 extend-insert choices, got %s", DescribeCandidates(cands))
	}
	p := WithDefaults{
		Base:     Simplest{},
		Defaults: map[string]value.Value{"Location": value.NewString("San Francisco")},
	}
	c, err := p.Choose(InsertRequest(u), cands)
	if err != nil {
		t.Fatal(err)
	}
	if c.Choices["Location"] != value.NewString("San Francisco") {
		t.Fatalf("defaults ignored: %s", c)
	}
	if p.Name() == "" {
		t.Fatal("policy name empty")
	}
	if _, err := p.Choose(InsertRequest(u), nil); err == nil {
		t.Fatal("empty candidates should fail")
	}
}
