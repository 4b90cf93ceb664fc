// Package tuple implements tuples over a relation schema, plus the
// small amount of set machinery the translation algebra needs:
// canonical encodings, key extraction, projections and tuple sets.
package tuple

import (
	"fmt"
	"sort"
	"strings"

	"viewupdate/internal/schema"
	"viewupdate/internal/value"
)

// A T is an immutable tuple: an ordered list of values conforming to a
// relation schema. Construct with New (validating) or FromValues.
type T struct {
	rel  *schema.Relation
	vals []value.Value
}

// New builds a tuple over rel from vals, validating arity and domain
// membership of every value.
func New(rel *schema.Relation, vals ...value.Value) (T, error) {
	if rel == nil {
		return T{}, fmt.Errorf("tuple: nil relation schema")
	}
	if len(vals) != rel.Arity() {
		return T{}, fmt.Errorf("tuple: %s expects %d values, got %d", rel.Name(), rel.Arity(), len(vals))
	}
	for i, a := range rel.Attributes() {
		if !a.Domain.Contains(vals[i]) {
			return T{}, fmt.Errorf("tuple: value %s not in domain %s of %s.%s",
				vals[i], a.Domain.Name(), rel.Name(), a.Name)
		}
	}
	cp := make([]value.Value, len(vals))
	copy(cp, vals)
	return T{rel: rel, vals: cp}, nil
}

// MustNew is New, panicking on error.
func MustNew(rel *schema.Relation, vals ...value.Value) T {
	t, err := New(rel, vals...)
	if err != nil {
		panic(err)
	}
	return t
}

// FromMap builds a tuple over rel taking each attribute's value from
// the map; every attribute must be present.
func FromMap(rel *schema.Relation, m map[string]value.Value) (T, error) {
	vals := make([]value.Value, rel.Arity())
	for i, a := range rel.Attributes() {
		v, ok := m[a.Name]
		if !ok {
			return T{}, fmt.Errorf("tuple: missing attribute %s.%s", rel.Name(), a.Name)
		}
		vals[i] = v
	}
	return New(rel, vals...)
}

// IsZero reports whether t is the zero tuple (no schema).
func (t T) IsZero() bool { return t.rel == nil }

// Relation returns the schema the tuple conforms to.
func (t T) Relation() *schema.Relation { return t.rel }

// Values returns the tuple's values in schema order (shared slice; do
// not modify).
func (t T) Values() []value.Value { return t.vals }

// At returns the i-th value.
func (t T) At(i int) value.Value { return t.vals[i] }

// Get returns the value of the named attribute; ok is false if the
// attribute is not in the schema.
func (t T) Get(attr string) (value.Value, bool) {
	i := t.rel.Index(attr)
	if i < 0 {
		return value.Value{}, false
	}
	return t.vals[i], true
}

// MustGet returns the value of the named attribute, panicking if absent.
func (t T) MustGet(attr string) value.Value {
	v, ok := t.Get(attr)
	if !ok {
		panic(fmt.Sprintf("tuple: attribute %s not in %s", attr, t.rel.Name()))
	}
	return v
}

// With returns a copy of t with the named attribute set to v. The new
// value must belong to the attribute's domain.
func (t T) With(attr string, v value.Value) (T, error) {
	i := t.rel.Index(attr)
	if i < 0 {
		return T{}, fmt.Errorf("tuple: attribute %s not in %s", attr, t.rel.Name())
	}
	a := t.rel.Attributes()[i]
	if !a.Domain.Contains(v) {
		return T{}, fmt.Errorf("tuple: value %s not in domain %s of %s.%s",
			v, a.Domain.Name(), t.rel.Name(), attr)
	}
	cp := make([]value.Value, len(t.vals))
	copy(cp, t.vals)
	cp[i] = v
	return T{rel: t.rel, vals: cp}, nil
}

// MustWith is With, panicking on error.
func (t T) MustWith(attr string, v value.Value) T {
	out, err := t.With(attr, v)
	if err != nil {
		panic(err)
	}
	return out
}

// Equal reports whether t and u are the same tuple of the same schema.
func (t T) Equal(u T) bool {
	if t.rel != u.rel || len(t.vals) != len(u.vals) {
		return false
	}
	for i := range t.vals {
		if t.vals[i] != u.vals[i] {
			return false
		}
	}
	return true
}

// Encode returns a canonical injective encoding of the tuple including
// its relation name, suitable as a map key.
func (t T) Encode() string {
	var b strings.Builder
	b.WriteString(t.rel.Name())
	for _, v := range t.vals {
		b.WriteByte('\n')
		b.WriteString(v.Encode())
	}
	return b.String()
}

// Key returns the canonical encoding of the tuple's key attributes,
// prefixed by the relation name. Two tuples of one relation agree on
// the key dependency's left side iff their Key() strings are equal.
func (t T) Key() string {
	var b strings.Builder
	b.WriteString(t.rel.Name())
	for _, i := range t.rel.KeyIndexes() {
		b.WriteByte('\n')
		b.WriteString(t.vals[i].Encode())
	}
	return b.String()
}

// KeyValues returns the values of the key attributes in key order.
func (t T) KeyValues() []value.Value {
	idx := t.rel.KeyIndexes()
	out := make([]value.Value, len(idx))
	for i, j := range idx {
		out[i] = t.vals[j]
	}
	return out
}

// ProjectEncode returns a canonical encoding of the tuple restricted to
// the named attributes (in the given order). Attributes absent from the
// schema cause an error.
func (t T) ProjectEncode(attrs []string) (string, error) {
	var b strings.Builder
	for i, a := range attrs {
		v, ok := t.Get(a)
		if !ok {
			return "", fmt.Errorf("tuple: attribute %s not in %s", a, t.rel.Name())
		}
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(v.Encode())
	}
	return b.String(), nil
}

// Compare orders tuples of the same relation lexicographically by
// schema order; tuples of different relations order by relation name.
func (t T) Compare(u T) int {
	if t.rel != u.rel {
		return strings.Compare(t.rel.Name(), u.rel.Name())
	}
	for i := range t.vals {
		if c := t.vals[i].Compare(u.vals[i]); c != 0 {
			return c
		}
	}
	return 0
}

// String renders the tuple as NAME(v1, v2, ...).
func (t T) String() string {
	if t.rel == nil {
		return "<zero tuple>"
	}
	parts := make([]string, len(t.vals))
	for i, v := range t.vals {
		parts[i] = v.String()
	}
	return fmt.Sprintf("%s(%s)", t.rel.Name(), strings.Join(parts, ", "))
}

// A Set is a set of tuples keyed by canonical encoding. The zero Set is
// empty and ready to use for reads; use NewSet or Add for writes.
type Set struct {
	m map[string]T
}

// NewSet builds a set from the given tuples.
func NewSet(ts ...T) *Set {
	s := &Set{m: make(map[string]T, len(ts))}
	for _, t := range ts {
		s.Add(t)
	}
	return s
}

// Len returns the number of tuples.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.m)
}

// Add inserts t; it reports whether t was newly added.
func (s *Set) Add(t T) bool {
	if s.m == nil {
		s.m = make(map[string]T)
	}
	k := t.Encode()
	if _, ok := s.m[k]; ok {
		return false
	}
	s.m[k] = t
	return true
}

// Remove deletes t; it reports whether t was present.
func (s *Set) Remove(t T) bool {
	if s == nil || s.m == nil {
		return false
	}
	k := t.Encode()
	if _, ok := s.m[k]; !ok {
		return false
	}
	delete(s.m, k)
	return true
}

// Contains reports membership.
func (s *Set) Contains(t T) bool {
	if s == nil || s.m == nil {
		return false
	}
	_, ok := s.m[t.Encode()]
	return ok
}

// Slice returns the tuples in deterministic (encoding) order.
func (s *Set) Slice() []T {
	if s == nil {
		return nil
	}
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]T, len(keys))
	for i, k := range keys {
		out[i] = s.m[k]
	}
	return out
}

// Equal reports whether two sets hold the same tuples.
func (s *Set) Equal(o *Set) bool {
	if s.Len() != o.Len() {
		return false
	}
	if s == nil || s.m == nil {
		return true
	}
	for k := range s.m {
		if _, ok := o.m[k]; !ok {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every tuple of s is in o.
func (s *Set) SubsetOf(o *Set) bool {
	if s.Len() == 0 {
		return true
	}
	if s.Len() > o.Len() {
		return false
	}
	for k := range s.m {
		if _, ok := o.m[k]; !ok {
			return false
		}
	}
	return true
}

// Clone returns a copy of the set.
func (s *Set) Clone() *Set {
	out := &Set{m: make(map[string]T, s.Len())}
	if s != nil {
		for k, v := range s.m {
			out.m[k] = v
		}
	}
	return out
}
