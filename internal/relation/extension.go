// Package relation implements in-memory relation extensions: sets of
// tuples with a unique primary-key index enforcing the relation's key
// dependency K → R.
package relation

import (
	"errors"
	"fmt"
	"sort"

	"viewupdate/internal/schema"
	"viewupdate/internal/tuple"
	"viewupdate/internal/value"
)

// Sentinel errors for the two constraint failures an extension can
// report. Callers classify with errors.Is; the wrapped messages keep
// the full human-readable detail.
var (
	// ErrKeyConflict marks an insert or replacement whose key collides
	// with a different stored tuple (key dependency K → R).
	ErrKeyConflict = errors.New("relation: key conflict")
	// ErrNotPresent marks a delete or replacement whose target tuple is
	// not stored (same key with different non-key values counts as not
	// present).
	ErrNotPresent = errors.New("relation: tuple not present")
)

// An Extension is the set of tuples of one relation. It enforces the
// key dependency: no two tuples share key values, and maintains any
// secondary (attribute-value) indexes created with EnsureIndex.
// Extension is not safe for concurrent use; the storage layer provides
// locking.
type Extension struct {
	rel   *schema.Relation
	byKey map[string]tuple.T // tuple.Key() -> tuple
	// secondary[attr][value] holds the key encodings of the tuples with
	// that attribute value.
	secondary map[string]map[value.Value]map[string]bool
}

// NewExtension returns an empty extension for rel.
func NewExtension(rel *schema.Relation) *Extension {
	return &Extension{rel: rel, byKey: make(map[string]tuple.T)}
}

// EnsureIndex creates (and backfills) a secondary index on the named
// attribute; it is a no-op if the index exists. It fails on unknown
// attributes.
func (e *Extension) EnsureIndex(attr string) error {
	if !e.rel.Has(attr) {
		return fmt.Errorf("relation: no attribute %s in %s", attr, e.rel.Name())
	}
	if _, ok := e.secondary[attr]; ok {
		return nil
	}
	if e.secondary == nil {
		e.secondary = make(map[string]map[value.Value]map[string]bool)
	}
	idx := make(map[value.Value]map[string]bool)
	for k, t := range e.byKey {
		v := t.MustGet(attr)
		if idx[v] == nil {
			idx[v] = make(map[string]bool)
		}
		idx[v][k] = true
	}
	e.secondary[attr] = idx
	return nil
}

// HasIndex reports whether a secondary index exists on attr.
func (e *Extension) HasIndex(attr string) bool {
	_, ok := e.secondary[attr]
	return ok
}

// IndexedAttrs returns the attributes carrying secondary indexes.
func (e *Extension) IndexedAttrs() []string {
	out := make([]string, 0, len(e.secondary))
	for a := range e.secondary {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// indexAdd records t in every secondary index.
func (e *Extension) indexAdd(t tuple.T) {
	for attr, idx := range e.secondary {
		v := t.MustGet(attr)
		if idx[v] == nil {
			idx[v] = make(map[string]bool)
		}
		idx[v][t.Key()] = true
	}
}

// indexRemove erases t from every secondary index.
func (e *Extension) indexRemove(t tuple.T) {
	for attr, idx := range e.secondary {
		v := t.MustGet(attr)
		if bucket := idx[v]; bucket != nil {
			delete(bucket, t.Key())
			if len(bucket) == 0 {
				delete(idx, v)
			}
		}
	}
}

// ScanValues calls fn for every tuple whose attr equals one of vals,
// using the secondary index when present and a full scan otherwise.
// fn returning false stops the scan.
func (e *Extension) ScanValues(attr string, vals []value.Value, fn func(tuple.T) bool) {
	if idx, ok := e.secondary[attr]; ok {
		for _, v := range vals {
			for k := range idx[v] {
				if !fn(e.byKey[k]) {
					return
				}
			}
		}
		return
	}
	want := make(map[value.Value]bool, len(vals))
	for _, v := range vals {
		want[v] = true
	}
	for _, t := range e.byKey {
		if want[t.MustGet(attr)] {
			if !fn(t) {
				return
			}
		}
	}
}

// Relation returns the schema of the extension.
func (e *Extension) Relation() *schema.Relation { return e.rel }

// Len returns the number of tuples.
func (e *Extension) Len() int { return len(e.byKey) }

// Insert adds t. It fails if a tuple with the same key already exists
// (key dependency) or if t belongs to a different schema.
func (e *Extension) Insert(t tuple.T) error {
	if t.Relation() != e.rel {
		return fmt.Errorf("relation: tuple %s does not belong to %s", t, e.rel.Name())
	}
	k := t.Key()
	if old, ok := e.byKey[k]; ok {
		return fmt.Errorf("%w in %s: %s vs existing %s", ErrKeyConflict, e.rel.Name(), t, old)
	}
	e.byKey[k] = t
	e.indexAdd(t)
	return nil
}

// Delete removes the tuple equal to t. It fails if t is not present
// (a tuple with the same key but different non-key values does not
// count as present).
func (e *Extension) Delete(t tuple.T) error {
	if t.Relation() != e.rel {
		return fmt.Errorf("relation: tuple %s does not belong to %s", t, e.rel.Name())
	}
	k := t.Key()
	cur, ok := e.byKey[k]
	if !ok || !cur.Equal(t) {
		return fmt.Errorf("%w: %s in %s", ErrNotPresent, t, e.rel.Name())
	}
	delete(e.byKey, k)
	e.indexRemove(t)
	return nil
}

// Replace substitutes old with new as one atomic step (the paper's
// replacement operation: a combined delete+insert that needs no
// intermediate consistent state). old must be present; new must not
// conflict with any tuple other than old.
func (e *Extension) Replace(old, new tuple.T) error {
	if old.Relation() != e.rel || new.Relation() != e.rel {
		return fmt.Errorf("relation: replacement tuples do not belong to %s", e.rel.Name())
	}
	ko := old.Key()
	cur, ok := e.byKey[ko]
	if !ok || !cur.Equal(old) {
		return fmt.Errorf("%w: replaced tuple %s in %s", ErrNotPresent, old, e.rel.Name())
	}
	kn := new.Key()
	if kn != ko {
		if clash, ok := e.byKey[kn]; ok {
			return fmt.Errorf("%w: replacement %s vs existing %s in %s", ErrKeyConflict, new, clash, e.rel.Name())
		}
	}
	delete(e.byKey, ko)
	e.byKey[kn] = new
	e.indexRemove(old)
	e.indexAdd(new)
	return nil
}

// LookupKey returns the tuple whose key attributes equal those of probe
// (probe may be any tuple of the same schema); ok is false if absent.
func (e *Extension) LookupKey(probe tuple.T) (tuple.T, bool) {
	t, ok := e.byKey[probe.Key()]
	return t, ok
}

// LookupKeyValues returns the tuple whose key attributes (in key order)
// equal vals.
func (e *Extension) LookupKeyValues(vals []value.Value) (tuple.T, bool) {
	key := e.rel.Name()
	for _, v := range vals {
		key += "\n" + v.Encode()
	}
	t, ok := e.byKey[key]
	return t, ok
}

// ContainsKeyEncoding reports whether any stored tuple's Key() equals
// enc. This exposes the primary index for O(1) foreign-key checks.
func (e *Extension) ContainsKeyEncoding(enc string) bool {
	_, ok := e.byKey[enc]
	return ok
}

// Contains reports whether the exact tuple t is present.
func (e *Extension) Contains(t tuple.T) bool {
	cur, ok := e.byKey[t.Key()]
	return ok && cur.Equal(t)
}

// ContainsKey reports whether any tuple with probe's key is present.
func (e *Extension) ContainsKey(probe tuple.T) bool {
	_, ok := e.byKey[probe.Key()]
	return ok
}

// Tuples returns all tuples in deterministic (key-encoding) order,
// sorted afresh on every call: key order exists only for output that
// is printed or persisted, so the writes do not maintain it and a scan
// that merely collects rows uses Each.
func (e *Extension) Tuples() []tuple.T {
	keys := make([]string, 0, len(e.byKey))
	for k := range e.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]tuple.T, len(keys))
	for i, k := range keys {
		out[i] = e.byKey[k]
	}
	return out
}

// Each calls fn for every tuple in unspecified order; fn returning
// false stops the scan.
func (e *Extension) Each(fn func(tuple.T) bool) {
	for _, t := range e.byKey {
		if !fn(t) {
			return
		}
	}
}

// Clone returns a deep-enough copy (tuples are immutable, so sharing
// them is safe); secondary indexes are cloned too.
func (e *Extension) Clone() *Extension {
	out := &Extension{rel: e.rel, byKey: make(map[string]tuple.T, len(e.byKey))}
	for k, v := range e.byKey {
		out.byKey[k] = v
	}
	if e.secondary != nil {
		out.secondary = make(map[string]map[value.Value]map[string]bool, len(e.secondary))
		for attr, idx := range e.secondary {
			cp := make(map[value.Value]map[string]bool, len(idx))
			for v, bucket := range idx {
				b := make(map[string]bool, len(bucket))
				for k := range bucket {
					b[k] = true
				}
				cp[v] = b
			}
			out.secondary[attr] = cp
		}
	}
	return out
}

// Set returns the extension's tuples as a tuple.Set.
func (e *Extension) Set() *tuple.Set {
	s := tuple.NewSet()
	for _, t := range e.byKey {
		s.Add(t)
	}
	return s
}

// Equal reports whether two extensions hold the same tuples.
func (e *Extension) Equal(o *Extension) bool {
	if len(e.byKey) != len(o.byKey) {
		return false
	}
	for k, t := range e.byKey {
		u, ok := o.byKey[k]
		if !ok || !u.Equal(t) {
			return false
		}
	}
	return true
}
