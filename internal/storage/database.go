// Package storage implements the database instance: one extension per
// relation of a schema, constraint enforcement (key dependencies via
// the extensions, inclusion dependencies via an incremental reference
// index), and atomic application of translations with rollback.
package storage

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"viewupdate/internal/faultinject"
	"viewupdate/internal/obs"
	"viewupdate/internal/relation"
	"viewupdate/internal/schema"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
)

// A Database holds the extensions of every relation in a schema. All
// mutation goes through atomic entry points guarded by a mutex, so a
// Database is safe for concurrent use.
type Database struct {
	mu   sync.RWMutex
	sch  *schema.Database
	exts map[string]*relation.Extension
	// refs[i] is the reverse reference index of inclusion dependency
	// sch.Inclusions()[i]: it maps the encoding of a referenced parent
	// key to the set of child tuples referencing it (keyed by the child
	// tuple's Key()). Maintained incrementally by Apply; the set size is
	// the reference count the inclusion delta checks consume, and the
	// tuples themselves back Referencers — the edge walk incremental
	// view maintenance uses to find the root tuples affected by a
	// non-root change.
	refs []*refEdge
	// deps is the dependency list refs was built for: refs[i] indexes
	// deps[i]. It is read in place on every apply and referencer walk,
	// and replaced whole, never written, where refs is rebuilt.
	deps []schema.InclusionDependency
	// epoch makes refs copy-on-write at the granularity it is written
	// at: this instance owns the edges and sets stamped with its epoch;
	// any other may be visible to a CloneShared snapshot and is copied —
	// one edge's outer map, one parent key's set — before it is written.
	epoch uint64
	// poisoned is non-nil once an in-memory rollback has failed: the
	// state is no longer trustworthy, so every later mutation returns
	// this error (which wraps ErrPoisoned and vuerr.ErrCorrupt).
	poisoned error
	// sharedExts marks extensions shared with a CloneShared snapshot;
	// the next mutation of a marked relation clones its extension first
	// (copy-on-write at relation granularity; the reference index is
	// finer, see epoch).
	sharedExts map[string]bool
}

// A refEdge is the reverse reference index of one inclusion dependency:
// the encoding of a referenced parent key → its referencer set.
type refEdge struct {
	epoch    uint64
	byParent map[string]*refSet
}

// A refSet holds the child tuples referencing one parent key, keyed by
// the child tuple's Key().
type refSet struct {
	epoch   uint64
	byChild map[string]tuple.T
}

// lastEpoch hands out the ownership stamps of the reference index.
// Open, Clone and both sides of a CloneShared take a fresh one, so an
// edge or set carries its holder's epoch only if that instance built
// or copied it since it last shared the index — and is then reachable
// from no other instance. Whatever carries another epoch is never
// written in place.
var lastEpoch atomic.Uint64

// Open returns an empty database instance for the schema.
func Open(sch *schema.Database) *Database {
	db := &Database{sch: sch, exts: make(map[string]*relation.Extension), deps: sch.Inclusions(), epoch: lastEpoch.Add(1)}
	for _, name := range sch.RelationNames() {
		db.exts[name] = relation.NewExtension(sch.Relation(name))
	}
	db.refs = make([]*refEdge, len(db.deps))
	for i := range db.refs {
		db.refs[i] = &refEdge{epoch: db.epoch, byParent: make(map[string]*refSet)}
	}
	return db
}

// Schema returns the database schema.
func (db *Database) Schema() *schema.Database { return db.sch }

// childRefKey encodes the values tuple t carries in the child
// attributes of dependency d — i.e. the parent key t references.
func childRefKey(d schema.InclusionDependency, t tuple.T) string {
	enc, err := t.ProjectEncode(d.ChildAttrs)
	if err != nil {
		panic(fmt.Sprintf("storage: inclusion %s on tuple %s: %v", d, t, err))
	}
	return enc
}

// parentKeyEnc encodes the key values of a parent tuple in key order,
// matching childRefKey's encoding.
func parentKeyEnc(t tuple.T) string {
	var b []byte
	for i, v := range t.KeyValues() {
		if i > 0 {
			b = append(b, '\n')
		}
		b = append(b, v.Encode()...)
	}
	return string(b)
}

// Load bulk-inserts tuples into the named relation, checking key and
// inclusion constraints after all tuples are in (so self- and
// cross-references in the batch are fine as long as the final state is
// consistent with previously loaded relations — load parents first, or
// use LoadAll for an arbitrary order across relations).
func (db *Database) Load(rel string, ts ...tuple.T) error {
	tr := update.NewTranslation()
	for _, t := range ts {
		if t.Relation().Name() != rel {
			return fmt.Errorf("storage: tuple %s loaded into %s", t, rel)
		}
		tr.Add(update.NewInsert(t))
	}
	return db.Apply(tr)
}

// LoadAll bulk-inserts tuples into their own relations in one atomic
// batch, so parent and child tuples may arrive in any order.
func (db *Database) LoadAll(ts ...tuple.T) error {
	tr := update.NewTranslation()
	for _, t := range ts {
		tr.Add(update.NewInsert(t))
	}
	return db.Apply(tr)
}

// Extension returns the live extension for the named relation. Callers
// must treat it as read-only; all writes go through Apply. For a
// stable snapshot under concurrency use SnapshotRelation.
func (db *Database) Extension(name string) *relation.Extension {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.exts[name]
}

// SnapshotRelation returns a copy of the named relation's extension.
func (db *Database) SnapshotRelation(name string) *relation.Extension {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e := db.exts[name]
	if e == nil {
		return nil
	}
	return e.Clone()
}

// Tuples returns the named relation's tuples in deterministic order.
func (db *Database) Tuples(name string) []tuple.T {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e := db.exts[name]
	if e == nil {
		return nil
	}
	return e.Tuples()
}

// Each implements Source. The tuples are gathered under the read lock
// and visited after it is released, because fn may look keys up in db
// (a join view resolves references inside its scan) and a read lock
// taken again behind a waiting writer would deadlock.
func (db *Database) Each(name string, fn func(tuple.T) bool) {
	db.mu.RLock()
	var ts []tuple.T
	if e := db.exts[name]; e != nil {
		ts = make([]tuple.T, 0, e.Len())
		e.Each(func(t tuple.T) bool {
			ts = append(ts, t)
			return true
		})
	}
	db.mu.RUnlock()
	for _, t := range ts {
		if !fn(t) {
			return
		}
	}
}

// Len returns the number of tuples in the named relation.
func (db *Database) Len(name string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e := db.exts[name]
	if e == nil {
		return 0
	}
	return e.Len()
}

// Contains reports whether the exact tuple is present.
func (db *Database) Contains(t tuple.T) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e := db.exts[t.Relation().Name()]
	return e != nil && e.Contains(t)
}

// LookupKey returns the stored tuple whose key matches probe's key.
func (db *Database) LookupKey(probe tuple.T) (tuple.T, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e := db.exts[probe.Relation().Name()]
	if e == nil {
		return tuple.T{}, false
	}
	return e.LookupKey(probe)
}

// Clone returns an independent copy of the whole instance.
func (db *Database) Clone() *Database {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := &Database{sch: db.sch, exts: make(map[string]*relation.Extension, len(db.exts)), deps: db.deps, epoch: lastEpoch.Add(1)}
	for n, e := range db.exts {
		out.exts[n] = e.Clone()
	}
	out.refs = cloneRefs(db.refs, out.epoch)
	out.poisoned = db.poisoned
	return out
}

// cloneRefs deep-copies a reverse reference index for the instance
// whose epoch is given (tuples are immutable and shared).
func cloneRefs(refs []*refEdge, epoch uint64) []*refEdge {
	out := make([]*refEdge, len(refs))
	for i, e := range refs {
		cp := &refEdge{epoch: epoch, byParent: make(map[string]*refSet, len(e.byParent))}
		for k, set := range e.byParent {
			cp.byParent[k] = set.clone(epoch)
		}
		out[i] = cp
	}
	return out
}

// clone copies one referencer set for the instance whose epoch is
// given.
func (s *refSet) clone(epoch uint64) *refSet {
	return &refSet{epoch: epoch, byChild: maps.Clone(s.byChild)}
}

// CloneShared returns a snapshot that shares every extension and the
// reference index with the receiver, turning both sides copy-on-write:
// whichever side mutates a relation next clones that relation's
// extension first, and whichever side next writes under a dependency
// copies that edge's outer map and the one referencer set it touches,
// so the other side never observes the write. Publishing a read
// snapshot this way costs O(relations + dependencies), not O(tuples) —
// the win the server's snapshot publication relies on.
func (db *Database) CloneShared() *Database {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := &Database{sch: db.sch, exts: make(map[string]*relation.Extension, len(db.exts)), deps: db.deps}
	if db.sharedExts == nil {
		db.sharedExts = make(map[string]bool, len(db.exts))
	}
	out.sharedExts = make(map[string]bool, len(db.exts))
	for n, e := range db.exts {
		out.exts[n] = e
		db.sharedExts[n] = true
		out.sharedExts[n] = true
	}
	// Neither side owns anything in the index any more: both move to an
	// epoch no edge or set carries.
	out.refs = append([]*refEdge(nil), db.refs...)
	db.epoch = lastEpoch.Add(1)
	out.epoch = lastEpoch.Add(1)
	out.poisoned = db.poisoned
	return out
}

// writableExt returns the named extension for mutation, cloning it
// first if it is shared with a snapshot. Callers hold db.mu for
// writing.
func (db *Database) writableExt(name string) *relation.Extension {
	e := db.exts[name]
	if e != nil && db.sharedExts[name] {
		// The clone count and size trend is the early-warning signal for
		// workloads whose chosen translations grow the base state: every
		// publish makes the next write re-clone the touched extension,
		// so COW cost scales with table size, not delta size.
		obs.Inc("storage.cow.clone")
		obs.Observe("storage.cow.clone_len", int64(e.Len()))
		e = e.Clone()
		db.exts[name] = e
		delete(db.sharedExts, name)
	}
	return e
}

// Equal reports whether two instances of the same schema hold the same
// tuples in every relation. An extension the two still share
// (CloneShared, no write since) is equal without being read.
func (db *Database) Equal(o *Database) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	o.mu.RLock()
	defer o.mu.RUnlock()
	if len(db.exts) != len(o.exts) {
		return false
	}
	for n, e := range db.exts {
		oe, ok := o.exts[n]
		if !ok || (e != oe && !e.Equal(oe)) {
			return false
		}
	}
	return true
}

// Apply executes a translation atomically. Per the paper's added/
// removed-set semantics the removals happen "first" and the additions
// "second", so translations whose ops would transiently conflict under
// some serial order (e.g. delete t; insert t' with t's key) apply
// cleanly. On any constraint violation — a removed tuple being absent,
// a key conflict among the added tuples, or an inclusion-dependency
// violation in the final state — nothing is changed and an error
// describing the violation is returned.
func (db *Database) Apply(tr *update.Translation) error {
	span := obs.StartSpan("storage.apply")
	defer span.End()
	if ferr := faultinject.Hit(faultinject.SiteApply); ferr != nil {
		obs.Inc("storage.apply.injected")
		return fmt.Errorf("storage: %w", ferr)
	}
	db.mu.Lock()
	err := db.applyLocked(tr)
	db.mu.Unlock()
	if err != nil {
		obs.Inc("storage.apply.rollback")
		return err
	}
	obs.Inc("storage.apply.ok")
	countOps(tr)
	return nil
}

// Err returns the poisoning error if the database is poisoned, nil
// otherwise.
func (db *Database) Err() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.poisoned
}

// Poisoned reports whether an in-memory rollback has failed, leaving
// the state untrustworthy.
func (db *Database) Poisoned() bool { return db.Err() != nil }

// countOps records per-relation, per-kind operation counts for an
// applied translation. Guarded by Enabled so the disabled path never
// builds the dynamic metric names.
func countOps(tr *update.Translation) {
	if !obs.Enabled() {
		return
	}
	for _, o := range tr.Ops() {
		switch o.Kind {
		case update.Insert:
			obs.Inc("storage.apply.insert." + o.RelationName())
		case update.Delete:
			obs.Inc("storage.apply.delete." + o.RelationName())
		case update.Replace:
			obs.Inc("storage.apply.replace." + o.RelationName())
		}
	}
}

func (db *Database) applyLocked(tr *update.Translation) (err error) {
	if db.poisoned != nil {
		return db.poisoned
	}
	type action struct {
		remove bool
		t      tuple.T
	}
	var done []action
	// undo reverts the actions taken so far, in reverse. A failure here
	// — which cannot happen without injected faults or a bug, since it
	// only re-applies inverses of operations that just succeeded —
	// leaves the state half-rolled-back, so it is reported rather than
	// papered over.
	undo := func() error {
		for i := len(done) - 1; i >= 0; i-- {
			a := done[i]
			if ferr := faultinject.Hit(faultinject.SiteRollback); ferr != nil {
				return fmt.Errorf("storage: rollback interrupted: %w", ferr)
			}
			e := db.writableExt(a.t.Relation().Name())
			if a.remove {
				if ierr := e.Insert(a.t); ierr != nil {
					return fmt.Errorf("storage: rollback re-insert failed: %w", ierr)
				}
				db.refAdjust(a.t, +1)
			} else {
				if derr := e.Delete(a.t); derr != nil {
					return fmt.Errorf("storage: rollback delete failed: %w", derr)
				}
				db.refAdjust(a.t, -1)
			}
		}
		return nil
	}
	// fail rolls back and returns cause; if the rollback itself fails,
	// the database poisons itself — the in-memory state is no longer a
	// consistent instance, so every later mutation is refused with an
	// error wrapping vuerr.ErrCorrupt. Callers holding a durable store
	// recover by reopening from snapshot + WAL.
	fail := func(cause error) error {
		if uerr := undo(); uerr != nil {
			db.poisoned = fmt.Errorf("%w: %v (while undoing after: %v)", ErrPoisoned, uerr, cause)
			obs.Inc("storage.poisoned")
			return db.poisoned
		}
		return cause
	}

	removed := tr.Removed().Slice()
	added := tr.Added().Slice()

	// Phase 0: validate ops reference relations of this schema.
	for _, o := range tr.Ops() {
		if db.exts[o.RelationName()] == nil {
			return fmt.Errorf("%w %s in %s", ErrUnknownRelation, o.RelationName(), o)
		}
	}

	// Phase 1: remove the removed set.
	for _, t := range removed {
		if ferr := faultinject.Hit(faultinject.SiteApplyDelete); ferr != nil {
			return fail(fmt.Errorf("storage: %w", ferr))
		}
		e := db.writableExt(t.Relation().Name())
		if err := e.Delete(t); err != nil {
			return fail(fmt.Errorf("storage: %w", err))
		}
		db.refAdjust(t, -1)
		done = append(done, action{remove: true, t: t})
	}

	// Phase 2: add the added set.
	for _, t := range added {
		if ferr := faultinject.Hit(faultinject.SiteApplyInsert); ferr != nil {
			return fail(fmt.Errorf("storage: %w", ferr))
		}
		e := db.writableExt(t.Relation().Name())
		if err := e.Insert(t); err != nil {
			return fail(fmt.Errorf("storage: %w", err))
		}
		db.refAdjust(t, +1)
		done = append(done, action{remove: false, t: t})
	}

	// Phase 3: inclusion dependencies on the final state, checked as
	// deltas: every touched child reference must resolve, and every
	// removed parent key must leave no dangling references.
	isp := obs.StartSpan("storage.inclusion_check")
	err = db.checkInclusionDeltas(removed, added)
	isp.End()
	if err != nil {
		return fail(err)
	}
	return nil
}

// refAdjust updates the reverse reference index for every inclusion
// dependency whose child relation is t's relation: delta +1 records t
// as a referencer of the parent key it carries, -1 erases it.
func (db *Database) refAdjust(t tuple.T, delta int) {
	rel := t.Relation().Name()
	for i, d := range db.deps {
		if d.Child != rel {
			continue
		}
		edge := db.writableEdge(i)
		k := childRefKey(d, t)
		set := edge.writableSet(k)
		if delta > 0 {
			set.byChild[t.Key()] = t
			continue
		}
		delete(set.byChild, t.Key())
		if len(set.byChild) == 0 {
			delete(edge.byParent, k)
		}
	}
}

// writableEdge returns dependency dep's edge for mutation, copying its
// outer map first (one pointer per parent key; the sets stay shared) if
// another instance may see it. Callers hold db.mu for writing.
func (db *Database) writableEdge(dep int) *refEdge {
	edge := db.refs[dep]
	if edge.epoch != db.epoch {
		edge = &refEdge{epoch: db.epoch, byParent: maps.Clone(edge.byParent)}
		db.refs[dep] = edge
	}
	return edge
}

// writableSet returns parent key k's referencer set for mutation by the
// instance owning e, copying it first if another instance may see it
// and creating it if the key has none.
func (e *refEdge) writableSet(k string) *refSet {
	set := e.byParent[k]
	switch {
	case set == nil:
		set = &refSet{epoch: e.epoch, byChild: make(map[string]tuple.T, 1)}
	case set.epoch != e.epoch:
		set = set.clone(e.epoch)
	default:
		return set
	}
	e.byParent[k] = set
	return set
}

// referencers returns the child tuples referencing the parent key
// under dependency dep, nil when there are none or dep is out of
// range. Callers hold db.mu and only read the result.
func (db *Database) referencers(dep int, keyEnc string) map[string]tuple.T {
	if dep < 0 || dep >= len(db.refs) {
		return nil
	}
	if set := db.refs[dep].byParent[keyEnc]; set != nil {
		return set.byChild
	}
	return nil
}

// checkInclusionDeltas verifies inclusion dependencies affected by the
// given removed/added tuples against the (already updated) state.
func (db *Database) checkInclusionDeltas(removed, added []tuple.T) error {
	deps := db.deps
	// Added child tuples must reference existing parents; removed
	// parents (not re-added with the same key) must not be referenced.
	for _, t := range added {
		rel := t.Relation().Name()
		for _, d := range deps {
			if d.Child != rel {
				continue
			}
			if !db.parentKeyExists(d.Parent, childRefKey(d, t)) {
				return fmt.Errorf("%w %s violated: %s references missing %s key", ErrInclusion, d, t, d.Parent)
			}
		}
	}
	for _, t := range removed {
		rel := t.Relation().Name()
		for i, d := range deps {
			if d.Parent != rel {
				continue
			}
			k := parentKeyEnc(t)
			if db.parentKeyExists(d.Parent, k) {
				continue // key survived (replacement kept it)
			}
			if n := len(db.referencers(i, k)); n > 0 {
				return fmt.Errorf("%w %s violated: removing %s leaves %d dangling references", ErrInclusion, d, t, n)
			}
		}
	}
	return nil
}

// parentKeyExists reports whether the named relation holds a tuple
// whose key encodes to keyEnc.
func (db *Database) parentKeyExists(parent, keyEnc string) bool {
	e := db.exts[parent]
	if e == nil {
		return false
	}
	// Rebuild the probe key string the extension's primary index uses
	// (relation name + '\n' + encodings). parentKeyEnc/childRefKey use
	// '\n' joining too, so prefixing the relation name reproduces
	// tuple.Key().
	probe := parent
	if keyEnc != "" {
		probe += "\n" + keyEnc
	}
	return e.ContainsKeyEncoding(probe)
}

// CheckAllInclusions verifies every inclusion dependency over the whole
// state (used by tests and after bulk loads through unsafe paths).
func (db *Database) CheckAllInclusions() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, d := range db.sch.Inclusions() {
		child := db.exts[d.Child]
		var err error
		child.Each(func(t tuple.T) bool {
			if !db.parentKeyExists(d.Parent, childRefKey(d, t)) {
				err = fmt.Errorf("%w %s violated by %s", ErrInclusion, d, t)
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// SyncSchema absorbs schema growth (new relations, new inclusion
// dependencies) into a live instance: extensions are created for new
// relations and the inclusion reference index is rebuilt. If existing
// data violates a newly added inclusion dependency, SyncSchema reports
// the violation and leaves the index consistent with the (still
// unchanged) data, so the caller should drop the offending dependency
// or data.
func (db *Database) SyncSchema() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.poisoned != nil {
		return db.poisoned
	}
	for _, name := range db.sch.RelationNames() {
		if db.exts[name] == nil {
			db.exts[name] = relation.NewExtension(db.sch.Relation(name))
		}
	}
	deps := db.sch.Inclusions()
	refs := make([]*refEdge, len(deps))
	for i, d := range deps {
		edge := &refEdge{epoch: db.epoch, byParent: make(map[string]*refSet)}
		refs[i] = edge
		child := db.exts[d.Child]
		if child == nil {
			return fmt.Errorf("storage: inclusion %s references unknown relation", d)
		}
		var err error
		child.Each(func(t tuple.T) bool {
			k := childRefKey(d, t)
			edge.writableSet(k).byChild[t.Key()] = t
			probe := d.Parent
			if k != "" {
				probe += "\n" + k
			}
			parent := db.exts[d.Parent]
			if parent == nil || !parent.ContainsKeyEncoding(probe) {
				err = fmt.Errorf("storage: existing tuple %s violates new inclusion %s", t, d)
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	db.refs, db.deps = refs, deps
	return nil
}

// CreateIndex builds a secondary index on the named relation's
// attribute; subsequent selection scans on that attribute use it.
func (db *Database) CreateIndex(rel, attr string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.exts[rel] == nil {
		return fmt.Errorf("%w %s", ErrUnknownRelation, rel)
	}
	return db.writableExt(rel).EnsureIndex(attr)
}

// HasIndex reports whether the named relation carries a secondary index
// on attr.
func (db *Database) HasIndex(rel, attr string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e := db.exts[rel]
	return e != nil && e.HasIndex(attr)
}

// ScanValues calls fn under the read lock for every tuple of rel whose
// attr equals one of vals, using the secondary index when present. fn
// must not call back into the database.
func (db *Database) ScanValues(rel, attr string, vals []value.Value, fn func(tuple.T) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e := db.exts[rel]
	if e == nil {
		return
	}
	e.ScanValues(attr, vals, fn)
}

// RelationTuples returns the named relation's tuples; together with
// RelationSchema it lets *Database act as an algebra.Source.
func (db *Database) RelationTuples(name string) []tuple.T { return db.Tuples(name) }

// RelationSchema returns the named relation's schema, or nil.
func (db *Database) RelationSchema(name string) *schema.Relation {
	return db.sch.Relation(name)
}

// TotalTuples returns the number of tuples across all relations.
func (db *Database) TotalTuples() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, e := range db.exts {
		n += e.Len()
	}
	return n
}
