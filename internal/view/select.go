package view

import (
	"fmt"
	"sort"

	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/value"
)

// An Eq is one "attribute = value" condition; a []Eq is a conjunction,
// the only row predicate the front doors speak (the wire's where and
// query filters, sqlish's WHERE).
type Eq struct {
	Attr string
	Val  value.Value
}

// A materialized source already holds the rows of views over itself —
// the server's published snapshot memoizes them — so Select's scan
// reads them there instead of materializing a second copy.
type materialized interface {
	Materialized(v View) *tuple.Set
}

// Select returns the rows of v over src that satisfy every equality,
// in Slice() order. The view key is a base key, so when eq binds every
// key attribute at most one row can match and it is looked up by key in
// src — O(1) on a database, a snapshot or an overlay alike, touching no
// materialization; any other conjunction scans the materialized rows.
// A conjunction that could never be meant — an attribute v does not
// have, a value outside its domain, one attribute given two different
// values — is an error, not an empty result.
func Select(v View, src storage.Source, eq []Eq) ([]tuple.T, error) {
	rel := v.Schema()
	if err := CheckEq(rel, eq); err != nil {
		return nil, err
	}
	if probe, keyed := keyProbe(rel, bound(eq)); keyed {
		if row, ok := v.Lookup(src, probe); ok {
			return filter([]tuple.T{row}, eq), nil
		}
		return nil, nil
	}
	var rows *tuple.Set
	if m, ok := src.(materialized); ok {
		rows = m.Materialized(v)
	} else {
		rows = v.Materialize(src)
	}
	return filter(rows.Slice(), eq), nil
}

// SelectBase is Select over the base relation rel of src: the same
// checks on eq, a key lookup when eq binds every key attribute, and
// otherwise an unordered scan of the relation. Only the matches are
// put in key order, for the caller to print.
func SelectBase(rel *schema.Relation, src storage.Source, eq []Eq) ([]tuple.T, error) {
	if err := CheckEq(rel, eq); err != nil {
		return nil, err
	}
	if probe, keyed := keyProbe(rel, bound(eq)); keyed {
		if t, ok := src.LookupKey(probe); ok {
			return filter([]tuple.T{t}, eq), nil
		}
		return nil, nil
	}
	var out []tuple.T
	src.Each(rel.Name(), func(t tuple.T) bool {
		if matches(t, eq) {
			out = append(out, t)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out, nil
}

// bound reports the value eq binds attr to, for keyProbe.
func bound(eq []Eq) func(attr string) (value.Value, bool) {
	return func(attr string) (value.Value, bool) {
		for _, c := range eq {
			if c.Attr == attr {
				return c.Val, true
			}
		}
		return value.Value{}, false
	}
}

// CheckEq refuses a list of "attribute = value" terms that could never
// be meant over rel — an attribute it does not have, a value outside
// its domain, one attribute given two different values (the same value
// twice is harmless) — naming the attribute. It judges a where and a
// replace's set alike.
func CheckEq(rel *schema.Relation, eq []Eq) error {
	for i, c := range eq {
		a, ok := rel.Attribute(c.Attr)
		if !ok {
			return fmt.Errorf("view: %s has no attribute %s", rel.Name(), c.Attr)
		}
		if !a.Domain.Contains(c.Val) {
			return fmt.Errorf("view: %s is outside domain %s of %s.%s", c.Val, a.Domain.Name(), rel.Name(), c.Attr)
		}
		for _, prior := range eq[:i] {
			if prior.Attr == c.Attr && prior.Val != c.Val {
				return fmt.Errorf("view: %s.%s cannot equal both %s and %s", rel.Name(), c.Attr, prior.Val, c.Val)
			}
		}
	}
	return nil
}

func filter(ts []tuple.T, eq []Eq) []tuple.T {
	if len(eq) == 0 {
		return ts
	}
	var out []tuple.T
	for _, t := range ts {
		if matches(t, eq) {
			out = append(out, t)
		}
	}
	return out
}

// matches reports whether t satisfies every equality of eq.
func matches(t tuple.T, eq []Eq) bool {
	for _, c := range eq {
		if got, _ := t.Get(c.Attr); got != c.Val {
			return false
		}
	}
	return true
}
