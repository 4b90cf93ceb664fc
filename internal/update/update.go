// Package update defines database update operations (single-tuple
// insertion, deletion, replacement) and translations: the sets of
// operations a view update is mapped to. It implements the paper's
// notions of translation equivalence (equal added and removed sets) and
// the simplicity partial order (subset-wise on added/removed sets).
package update

import (
	"fmt"
	"sort"
	"strings"

	"viewupdate/internal/tuple"
)

// Kind distinguishes the three database operations of the paper: "The
// operations on databases and views are deletion, insertion, and
// replacement."
type Kind uint8

// The operation kinds.
const (
	Insert Kind = iota + 1
	Delete
	Replace
)

// String returns the operation kind's name.
func (k Kind) String() string {
	switch k {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	case Replace:
		return "replace"
	default:
		return "invalid"
	}
}

// An Op is one database update operation. For Insert and Delete, Tuple
// is the affected tuple and Old/New are zero. For Replace, Old and New
// are the replaced and replacement tuples (same relation) and Tuple is
// zero. A replacement is a single atomic action: it "does not require
// an intermediate consistent state between the deletion and insertion
// steps".
type Op struct {
	Kind  Kind
	Tuple tuple.T // Insert/Delete payload
	Old   tuple.T // Replace: tuple removed
	New   tuple.T // Replace: tuple added
}

// NewInsert returns an insertion of t.
func NewInsert(t tuple.T) Op { return Op{Kind: Insert, Tuple: t} }

// NewDelete returns a deletion of t.
func NewDelete(t tuple.T) Op { return Op{Kind: Delete, Tuple: t} }

// NewReplace returns a replacement of old by new.
func NewReplace(old, new tuple.T) Op { return Op{Kind: Replace, Old: old, New: new} }

// RelationName returns the name of the relation the op touches.
func (o Op) RelationName() string {
	switch o.Kind {
	case Insert, Delete:
		return o.Tuple.Relation().Name()
	case Replace:
		return o.Old.Relation().Name()
	}
	return ""
}

// Encode returns a canonical injective encoding of the op.
func (o Op) Encode() string {
	switch o.Kind {
	case Insert:
		return "I\x00" + o.Tuple.Encode()
	case Delete:
		return "D\x00" + o.Tuple.Encode()
	case Replace:
		return "R\x00" + o.Old.Encode() + "\x00" + o.New.Encode()
	}
	return "?"
}

// String renders the op for humans.
func (o Op) String() string {
	switch o.Kind {
	case Insert:
		return fmt.Sprintf("INSERT %s", o.Tuple)
	case Delete:
		return fmt.Sprintf("DELETE %s", o.Tuple)
	case Replace:
		return fmt.Sprintf("REPLACE %s -> %s", o.Old, o.New)
	}
	return "<invalid op>"
}

// A Translation is a candidate sequence of database updates for one
// view update request, represented — as in the paper — by three sets:
// insertions, deletions and replacements. Criterion 2 guarantees no
// ordering is imposed among the operations, so sets lose nothing.
//
// The zero Translation is empty and ready to use.
type Translation struct {
	ops map[string]Op // Encode() -> op
}

// NewTranslation builds a translation from the given ops.
func NewTranslation(ops ...Op) *Translation {
	tr := &Translation{ops: make(map[string]Op, len(ops))}
	for _, o := range ops {
		tr.Add(o)
	}
	return tr
}

// Add inserts an op (idempotent for identical ops).
func (tr *Translation) Add(o Op) {
	if tr.ops == nil {
		tr.ops = make(map[string]Op)
	}
	tr.ops[o.Encode()] = o
}

// AddAll inserts every op of other.
func (tr *Translation) AddAll(other *Translation) {
	for _, o := range other.Ops() {
		tr.Add(o)
	}
}

// Len returns the number of operations.
func (tr *Translation) Len() int {
	if tr == nil {
		return 0
	}
	return len(tr.ops)
}

// Ops returns the operations in deterministic (encoding) order.
func (tr *Translation) Ops() []Op {
	if tr == nil {
		return nil
	}
	keys := make([]string, 0, len(tr.ops))
	for k := range tr.ops {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Op, len(keys))
	for i, k := range keys {
		out[i] = tr.ops[k]
	}
	return out
}

// Inserts returns the inserted tuples.
func (tr *Translation) Inserts() []tuple.T { return tr.tuplesOf(Insert) }

// Deletes returns the deleted tuples.
func (tr *Translation) Deletes() []tuple.T { return tr.tuplesOf(Delete) }

func (tr *Translation) tuplesOf(k Kind) []tuple.T {
	var out []tuple.T
	for _, o := range tr.Ops() {
		if o.Kind == k {
			out = append(out, o.Tuple)
		}
	}
	return out
}

// Replacements returns the replacement ops.
func (tr *Translation) Replacements() []Op {
	var out []Op
	for _, o := range tr.Ops() {
		if o.Kind == Replace {
			out = append(out, o)
		}
	}
	return out
}

// Added returns the paper's added set: inserted tuples ∪ replacement
// (new) tuples.
func (tr *Translation) Added() *tuple.Set {
	s := tuple.NewSet()
	for _, o := range tr.Ops() {
		switch o.Kind {
		case Insert:
			s.Add(o.Tuple)
		case Replace:
			s.Add(o.New)
		}
	}
	return s
}

// Removed returns the paper's removed set: deleted tuples ∪ replaced
// (old) tuples.
func (tr *Translation) Removed() *tuple.Set {
	s := tuple.NewSet()
	for _, o := range tr.Ops() {
		switch o.Kind {
		case Delete:
			s.Add(o.Tuple)
		case Replace:
			s.Add(o.Old)
		}
	}
	return s
}

// Equivalent implements the paper's equivalence: "two translations are
// equivalent if their respective added and removed sets are equal".
func (tr *Translation) Equivalent(other *Translation) bool {
	return tr.Added().Equal(other.Added()) && tr.Removed().Equal(other.Removed())
}

// AtLeastAsSimpleAs implements the paper's order: "one translation is
// at least as simple as another if its added and removed sets are
// subsets of those of the other translation".
func (tr *Translation) AtLeastAsSimpleAs(other *Translation) bool {
	return tr.Added().SubsetOf(other.Added()) && tr.Removed().SubsetOf(other.Removed())
}

// StrictlySimplerThan reports tr ≤ other and not other ≤ tr.
func (tr *Translation) StrictlySimplerThan(other *Translation) bool {
	return tr.AtLeastAsSimpleAs(other) && !other.AtLeastAsSimpleAs(tr)
}

// Encode returns a canonical encoding of the whole translation: the
// sorted encodings of its ops. Two translations have equal encodings
// iff they contain the same operations.
func (tr *Translation) Encode() string {
	keys := make([]string, 0, tr.Len())
	for k := range tr.ops {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x01")
}

// Equal reports whether two translations contain exactly the same ops
// (a finer relation than Equivalent).
func (tr *Translation) Equal(other *Translation) bool {
	return tr.Encode() == other.Encode()
}

// Clone returns a copy of tr.
func (tr *Translation) Clone() *Translation {
	out := NewTranslation()
	for k, o := range tr.ops {
		out.ops[k] = o
	}
	return out
}

// ProperSubsets enumerates every proper (possibly empty) subset of the
// translation's operations as new translations. Used by criterion 3
// ("no valid translation performs only a proper subset of the database
// requests"). The number of subsets is 2^n − 1; the paper's candidate
// translations have at most a handful of ops.
func (tr *Translation) ProperSubsets() []*Translation {
	ops := tr.Ops()
	n := len(ops)
	if n == 0 {
		return nil
	}
	var out []*Translation
	for mask := 0; mask < (1<<n)-1; mask++ {
		sub := NewTranslation()
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sub.Add(ops[i])
			}
		}
		out = append(out, sub)
	}
	return out
}

// RelationsTouched returns the names of relations with at least one
// op, sorted.
func (tr *Translation) RelationsTouched() []string {
	seen := make(map[string]bool)
	for _, o := range tr.Ops() {
		seen[o.RelationName()] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// String renders the translation as a brace-wrapped op list.
func (tr *Translation) String() string {
	ops := tr.Ops()
	parts := make([]string, len(ops))
	for i, o := range ops {
		parts[i] = o.String()
	}
	return "{" + strings.Join(parts, "; ") + "}"
}
