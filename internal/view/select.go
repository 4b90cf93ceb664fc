package view

import (
	"fmt"

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
	probe, keyed := keyProbe(rel, func(attr string) (value.Value, bool) {
		for _, c := range eq {
			if c.Attr == attr {
				return c.Val, true
			}
		}
		return value.Value{}, false
	})
	if keyed {
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

// Filter is Select's matcher over tuples the caller already holds (a
// base relation's, all of schema rel): the same checks on eq, then the
// tuples of ts satisfying it, in order.
func Filter(rel *schema.Relation, ts []tuple.T, eq []Eq) ([]tuple.T, error) {
	if err := CheckEq(rel, eq); err != nil {
		return nil, err
	}
	return filter(ts, eq), nil
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
next:
	for _, t := range ts {
		for _, c := range eq {
			if got, _ := t.Get(c.Attr); got != c.Val {
				continue next
			}
		}
		out = append(out, t)
	}
	return out
}
