package storage

import (
	"sort"

	"viewupdate/internal/schema"
	"viewupdate/internal/tuple"
	"viewupdate/internal/value"
)

// A Source is a readable database state: the surface views and the
// translation pipeline need to materialize rows, resolve keys and run
// indexed selection scans. Both *Database (the authoritative state) and
// *Overlay (a copy-on-write delta layer over a base state) implement
// it, so candidate translations can be evaluated against "base + delta"
// without cloning extensions.
//
// Only storage types implement Source: the interface embeds an
// unexported method so overlays always layer over states whose
// reference index and key encodings they understand.
type Source interface {
	// Schema returns the database schema.
	Schema() *schema.Database
	// Tuples returns the named relation's tuples in deterministic
	// (key-encoding) order, sorted on every call: for output that is
	// printed or persisted. A scan that only collects rows uses Each.
	Tuples(name string) []tuple.T
	// Each calls fn for every tuple of the named relation in
	// unspecified order; fn returning false stops the scan. No lock is
	// held while fn runs, so fn may call back into the source.
	Each(name string, fn func(tuple.T) bool)
	// Len returns the number of tuples in the named relation.
	Len(name string) int
	// Contains reports whether the exact tuple is present.
	Contains(t tuple.T) bool
	// LookupKey returns the stored tuple whose key matches probe's key.
	LookupKey(probe tuple.T) (tuple.T, bool)
	// HasIndex reports whether the named relation carries a secondary
	// index on attr.
	HasIndex(rel, attr string) bool
	// ScanValues calls fn for every tuple of rel whose attr equals one
	// of vals, using the secondary index when present. fn must not call
	// back into the source.
	ScanValues(rel, attr string, vals []value.Value, fn func(tuple.T) bool)
	// Referencers returns the child tuples referencing parent's key
	// under inclusion dependency Schema().Inclusions()[dep], in
	// deterministic (key-encoding) order. parent may be any tuple of
	// the dependency's parent relation carrying the key values; tuples
	// of other relations have no referencers. This is the reverse
	// reference index incremental view maintenance walks from a changed
	// tuple toward the root tuples whose view rows it can affect.
	Referencers(dep int, parent tuple.T) []tuple.T
	// Err returns the poisoning error if the state is no longer
	// trustworthy, nil otherwise.
	Err() error

	// internal closes the interface: only *Database and *Overlay
	// qualify, which is what lets overlays stack over either.
	internal() sourceInternals
}

// sourceInternals is the package-private surface overlays need from
// their base: the incremental reference index and raw key-encoding
// probes that back inclusion-dependency delta checks.
type sourceInternals interface {
	// refCount returns how many child tuples reference the parent key
	// (encoded without the relation-name prefix) under inclusion
	// dependency sch.Inclusions()[dep].
	refCount(dep int, keyEnc string) int
	// eachReferencer calls fn for every child tuple referencing the
	// parent key under dependency dep, in unspecified order; fn
	// returning false stops the walk.
	eachReferencer(dep int, keyEnc string, fn func(tuple.T) bool)
	// containsKeyEncoding reports whether the named relation holds a
	// tuple whose tuple.Key() equals enc.
	containsKeyEncoding(rel, enc string) bool
	// hasRelation reports whether the schema's named relation has an
	// extension in this state.
	hasRelation(name string) bool
	// inclusions returns the dependency list the reference index was
	// built for (dep indexes it), shared: callers must not modify it.
	inclusions() []schema.InclusionDependency
}

// internal implements Source.
func (db *Database) internal() sourceInternals { return dbInternals{db} }

// dbInternals adapts *Database to sourceInternals with locked reads.
type dbInternals struct{ db *Database }

func (i dbInternals) refCount(dep int, keyEnc string) int {
	i.db.mu.RLock()
	defer i.db.mu.RUnlock()
	return len(i.db.referencers(dep, keyEnc))
}

func (i dbInternals) eachReferencer(dep int, keyEnc string, fn func(tuple.T) bool) {
	i.db.mu.RLock()
	defer i.db.mu.RUnlock()
	for _, t := range i.db.referencers(dep, keyEnc) {
		if !fn(t) {
			return
		}
	}
}

// Referencers implements Source: the child tuples referencing parent's
// key under inclusion dependency dep, in deterministic order.
func (db *Database) Referencers(dep int, parent tuple.T) []tuple.T {
	return sortedReferencers(db, dep, parent)
}

// sortedReferencers collects a source's referencer walk into the
// deterministic order the exported Referencers contract promises. Only
// a tuple of the dependency's parent relation is probed: another
// relation's key can encode like a parent key without being one.
func sortedReferencers(src Source, dep int, parent tuple.T) []tuple.T {
	deps := src.internal().inclusions()
	if dep < 0 || dep >= len(deps) || parent.Relation().Name() != deps[dep].Parent {
		return nil
	}
	var out []tuple.T
	src.internal().eachReferencer(dep, parentKeyEnc(parent), func(t tuple.T) bool {
		out = append(out, t)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

func (i dbInternals) containsKeyEncoding(rel, enc string) bool {
	i.db.mu.RLock()
	defer i.db.mu.RUnlock()
	e := i.db.exts[rel]
	return e != nil && e.ContainsKeyEncoding(enc)
}

func (i dbInternals) hasRelation(name string) bool {
	i.db.mu.RLock()
	defer i.db.mu.RUnlock()
	return i.db.exts[name] != nil
}

func (i dbInternals) inclusions() []schema.InclusionDependency {
	i.db.mu.RLock()
	defer i.db.mu.RUnlock()
	return i.db.deps
}

// keyEncProbe rebuilds the tuple.Key() encoding of relation rel's key
// from a bare key-value encoding (the format childRefKey/parentKeyEnc
// produce: '\n'-joined value encodings without the relation name).
func keyEncProbe(rel, keyEnc string) string {
	if keyEnc == "" {
		return rel
	}
	return rel + "\n" + keyEnc
}
