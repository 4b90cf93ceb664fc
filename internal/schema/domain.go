// Package schema defines the static structure of a database: finite
// domains, attributes, relation schemata with a single key dependency
// (Boyce-Codd Normal Form as the paper assumes), database schemata, and
// inclusion dependencies between relations.
package schema

import (
	"fmt"
	"sort"
	"strings"

	"viewupdate/internal/value"
)

// A Domain is a finite, ordered set of values of one kind, as in the
// paper ("a domain is a (finite) set"). Finiteness is what makes the
// sets of selecting and excluding values of a selection term, and the
// "arbitrary value" choices of extend-insert and D-2, enumerable.
type Domain struct {
	name   string
	kind   value.Kind
	values []value.Value       // sorted ascending
	index  map[value.Value]int // value -> position in values

	// isRange records that the domain was defined as the integers
	// [lo, hi], so it can be persisted by its definition.
	isRange bool
	lo, hi  int64
}

// MaxRangeSize bounds the number of values IntRangeDomain accepts. A
// domain's values are materialized (extend-insert and D-2 enumerate
// them, Contains indexes them), so a range costs memory in proportion
// to its size — about 100 bytes a value. The bound keeps a hostile or
// mistyped definition such as RANGE 1 TO 4000000000 an error instead of
// an out-of-memory crash, and admits every range this repository uses
// (the largest is 200,000).
const MaxRangeSize = 1 << 20

// NewDomain constructs a domain from the given values. The values must
// be non-empty, all of one kind, and are deduplicated and sorted.
func NewDomain(name string, vals ...value.Value) (*Domain, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: domain needs a name")
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("schema: domain %s needs at least one value", name)
	}
	kind := vals[0].Kind()
	seen := make(map[value.Value]bool, len(vals))
	uniq := make([]value.Value, 0, len(vals))
	for _, v := range vals {
		if !v.IsValid() {
			return nil, fmt.Errorf("schema: domain %s contains an invalid value", name)
		}
		if v.Kind() != kind {
			return nil, fmt.Errorf("schema: domain %s mixes kinds %s and %s", name, kind, v.Kind())
		}
		if !seen[v] {
			seen[v] = true
			uniq = append(uniq, v)
		}
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i].Less(uniq[j]) })
	index := make(map[value.Value]int, len(uniq))
	for i, v := range uniq {
		index[v] = i
	}
	return &Domain{name: name, kind: kind, values: uniq, index: index}, nil
}

// MustDomain is NewDomain, panicking on error. Intended for statically
// known domains in tests and examples.
func MustDomain(name string, vals ...value.Value) *Domain {
	d, err := NewDomain(name, vals...)
	if err != nil {
		panic(err)
	}
	return d
}

// IntRangeDomain builds a domain of the consecutive integers [lo, hi],
// which may hold at most MaxRangeSize values. The values are generated
// in order and distinct, so they go straight into place.
func IntRangeDomain(name string, lo, hi int64) (*Domain, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: domain needs a name")
	}
	if hi < lo {
		return nil, fmt.Errorf("schema: empty int range [%d,%d] for domain %s", lo, hi, name)
	}
	// hi-lo in uint64 is exact for hi >= lo; adding 1 could wrap, so
	// compare the span itself.
	if span := uint64(hi) - uint64(lo); span >= MaxRangeSize {
		return nil, fmt.Errorf("schema: int range [%d,%d] for domain %s exceeds %d values", lo, hi, name, MaxRangeSize)
	}
	n := int(hi-lo) + 1
	vals := make([]value.Value, n)
	index := make(map[value.Value]int, n)
	for i := range vals {
		v := value.NewInt(lo + int64(i))
		vals[i] = v
		index[v] = i
	}
	return &Domain{name: name, kind: value.Int, values: vals, index: index, isRange: true, lo: lo, hi: hi}, nil
}

// StringDomain builds a domain of the given strings.
func StringDomain(name string, ss ...string) (*Domain, error) {
	vals := make([]value.Value, len(ss))
	for i, s := range ss {
		vals[i] = value.NewString(s)
	}
	return NewDomain(name, vals...)
}

// BoolDomain builds the two-valued boolean domain.
func BoolDomain(name string) *Domain {
	return MustDomain(name, value.NewBool(false), value.NewBool(true))
}

// Name returns the domain's name.
func (d *Domain) Name() string { return d.name }

// Kind returns the kind of the domain's values.
func (d *Domain) Kind() value.Kind { return d.kind }

// Range returns the bounds of a domain built by IntRangeDomain; ok is
// false for a domain given by its list of values.
func (d *Domain) Range() (lo, hi int64, ok bool) { return d.lo, d.hi, d.isRange }

// Size returns the number of values in the domain.
func (d *Domain) Size() int { return len(d.values) }

// Contains reports whether v belongs to the domain.
func (d *Domain) Contains(v value.Value) bool {
	_, ok := d.index[v]
	return ok
}

// Values returns the domain's values in ascending order. The returned
// slice is shared; callers must not modify it.
func (d *Domain) Values() []value.Value { return d.values }

// At returns the i-th value in ascending order.
func (d *Domain) At(i int) value.Value { return d.values[i] }

// Complement returns the domain values not in the given set, in
// ascending order. This computes the paper's "excluding values" e from
// the selecting values s (s ∪ e = domain, s ∩ e = ∅).
func (d *Domain) Complement(in map[value.Value]bool) []value.Value {
	out := make([]value.Value, 0, len(d.values))
	for _, v := range d.values {
		if !in[v] {
			out = append(out, v)
		}
	}
	return out
}

// String renders the domain compactly.
func (d *Domain) String() string {
	parts := make([]string, len(d.values))
	for i, v := range d.values {
		parts[i] = v.String()
	}
	return fmt.Sprintf("%s{%s}", d.name, strings.Join(parts, ","))
}
