// Package algebra implements the relational operators the paper's view
// class is built from: conjunctive selections whose terms have the form
// "attribute ∈ set of constants", projections, and extension joins,
// plus general select–project–join expressions and the SPJNF
// normalization theorem of §5.
package algebra

import (
	"fmt"
	"sort"
	"strings"

	"viewupdate/internal/schema"
	"viewupdate/internal/tuple"
	"viewupdate/internal/value"
)

// A Term is one conjunct of a selection condition: Attr ∈ selecting.
// The paper calls the values in the set "selecting values" and those in
// its complement (w.r.t. the attribute's domain) "excluding values".
type Term struct {
	attr      string
	domain    *schema.Domain
	selecting map[value.Value]bool
	sorted    []value.Value // the keys of selecting, ascending
}

// Attr returns the attribute the term constrains.
func (t *Term) Attr() string { return t.attr }

// Selects reports whether v is a selecting value.
func (t *Term) Selects(v value.Value) bool { return t.selecting[v] }

// SelectingValues returns the selecting values in ascending order. The
// returned slice is shared; callers must not modify it.
func (t *Term) SelectingValues() []value.Value { return t.sorted }

// ExcludingValues returns the excluding values (domain minus selecting)
// in ascending order.
func (t *Term) ExcludingValues() []value.Value {
	return t.domain.Complement(t.selecting)
}

// String renders the term as Attr IN {v1,v2}.
func (t *Term) String() string {
	vals := t.SelectingValues()
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return fmt.Sprintf("%s IN {%s}", t.attr, strings.Join(parts, ","))
}

// A Selection is a conjunction of Terms over one relation schema. The
// empty conjunction is the condition "true". "This type of selection
// condition allows attributes to be treated independently in view
// updates." Adding a second term on the same attribute intersects the
// selecting sets (conjunction).
type Selection struct {
	rel   *schema.Relation
	terms map[string]*Term
}

// NewSelection returns the selection "true" over rel.
func NewSelection(rel *schema.Relation) *Selection {
	return &Selection{rel: rel, terms: make(map[string]*Term)}
}

// Relation returns the schema the selection applies to.
func (s *Selection) Relation() *schema.Relation { return s.rel }

// AddTerm conjoins the condition attr ∈ vals. Every val must belong to
// the attribute's domain and the resulting selecting set must be
// non-empty (an empty selecting set makes the view identically empty
// and no tuple could ever be inserted).
func (s *Selection) AddTerm(attr string, vals ...value.Value) error {
	a, ok := s.rel.Attribute(attr)
	if !ok {
		return fmt.Errorf("algebra: selection attribute %s not in %s", attr, s.rel.Name())
	}
	if len(vals) == 0 {
		return fmt.Errorf("algebra: empty selecting set for %s.%s", s.rel.Name(), attr)
	}
	in := make(map[value.Value]bool, len(vals))
	for _, v := range vals {
		if !a.Domain.Contains(v) {
			return fmt.Errorf("algebra: selecting value %s not in domain %s of %s.%s",
				v, a.Domain.Name(), s.rel.Name(), attr)
		}
		in[v] = true
	}
	if prev, exists := s.terms[attr]; exists {
		merged := make(map[value.Value]bool)
		var sorted []value.Value
		for _, v := range prev.sorted {
			if in[v] {
				merged[v] = true
				sorted = append(sorted, v)
			}
		}
		if len(merged) == 0 {
			return fmt.Errorf("algebra: conjunction empties selecting set of %s.%s", s.rel.Name(), attr)
		}
		prev.selecting, prev.sorted = merged, sorted
		return nil
	}
	sorted := make([]value.Value, 0, len(in))
	for v := range in {
		sorted = append(sorted, v)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	s.terms[attr] = &Term{attr: attr, domain: a.Domain, selecting: in, sorted: sorted}
	return nil
}

// MustAddTerm is AddTerm, panicking on error.
func (s *Selection) MustAddTerm(attr string, vals ...value.Value) *Selection {
	if err := s.AddTerm(attr, vals...); err != nil {
		panic(err)
	}
	return s
}

// IsTrue reports whether the selection is the empty conjunction.
func (s *Selection) IsTrue() bool { return len(s.terms) == 0 }

// Term returns the term on attr, or nil if attr is non-selecting.
func (s *Selection) Term(attr string) *Term { return s.terms[attr] }

// SelectingAttributes returns the attributes appearing in the
// condition, in schema order.
func (s *Selection) SelectingAttributes() []string {
	var out []string
	for _, a := range s.rel.Attributes() {
		if _, ok := s.terms[a.Name]; ok {
			out = append(out, a.Name)
		}
	}
	return out
}

// IsSelecting reports whether attr appears in the condition.
func (s *Selection) IsSelecting(attr string) bool {
	_, ok := s.terms[attr]
	return ok
}

// SelectingValues returns the selecting values of attr: the term's set
// if attr is selecting, else the whole domain ("for non-selecting
// attributes the set of selecting values is the entire domain").
func (s *Selection) SelectingValues(attr string) []value.Value {
	if t, ok := s.terms[attr]; ok {
		return t.SelectingValues()
	}
	a, ok := s.rel.Attribute(attr)
	if !ok {
		return nil
	}
	return a.Domain.Values()
}

// ExcludingValues returns the excluding values of attr (empty for
// non-selecting attributes).
func (s *Selection) ExcludingValues(attr string) []value.Value {
	if t, ok := s.terms[attr]; ok {
		return t.ExcludingValues()
	}
	return nil
}

// Selects reports whether value v is selecting for attr.
func (s *Selection) Selects(attr string, v value.Value) bool {
	if t, ok := s.terms[attr]; ok {
		return t.Selects(v)
	}
	return true
}

// Matches evaluates the condition on a tuple of the base relation.
func (s *Selection) Matches(t tuple.T) bool {
	for attr, term := range s.terms {
		v, ok := t.Get(attr)
		if !ok {
			return false
		}
		if !term.Selects(v) {
			return false
		}
	}
	return true
}

// MatchesProjected evaluates the condition restricted to the attributes
// present in t's schema, ignoring terms on absent attributes. This is
// the check applicable to a view tuple when some selecting attributes
// are projected out.
func (s *Selection) MatchesProjected(t tuple.T) bool {
	for attr, term := range s.terms {
		v, ok := t.Get(attr)
		if !ok {
			continue
		}
		if !term.Selects(v) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the selection.
func (s *Selection) Clone() *Selection {
	out := NewSelection(s.rel)
	for attr, term := range s.terms {
		in := make(map[value.Value]bool, len(term.selecting))
		for v := range term.selecting {
			in[v] = true
		}
		out.terms[attr] = &Term{attr: attr, domain: term.domain, selecting: in, sorted: term.sorted}
	}
	return out
}

// String renders the condition as a conjunction in schema-attribute
// order, or "true".
func (s *Selection) String() string {
	if s.IsTrue() {
		return "true"
	}
	attrs := s.SelectingAttributes()
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = s.terms[a].String()
	}
	return strings.Join(parts, " AND ")
}

// SortedAttrs returns the selecting attributes sorted by name.
func (s *Selection) SortedAttrs() []string {
	out := s.SelectingAttributes()
	sort.Strings(out)
	return out
}
