package storage

import (
	"fmt"
	"maps"
	"sort"

	"viewupdate/internal/obs"
	"viewupdate/internal/relation"
	"viewupdate/internal/schema"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
)

// An Overlay is a copy-on-write read layer over a base state: it
// records the insert/delete/replace delta of applied translations per
// relation and answers lookups, scans and full-relation reads against
// "base + delta" without copying any extension. Overlays stack — the
// base may itself be an Overlay — which is how staged transactions
// layer candidate evaluation over staged-but-uncommitted state.
//
// Apply enforces exactly the constraints Database.Apply enforces (key
// dependencies, exact-tuple deletes, inclusion dependencies checked as
// deltas against the final state) and is atomic: on error the overlay
// is unchanged. Unlike Database.Apply it mutates no extension — undoing
// a failed apply restores only the overlay's own maps — so it cannot
// poison anything; fault-injection sites of the apply path are
// deliberately not wired in, because an overlay apply is a pure
// validation + bookkeeping step.
//
// An Overlay is safe for concurrent readers, but Apply must not run
// concurrently with other method calls on the same Overlay. The base
// must not change while the overlay is in use; overlays are meant to
// sit on immutable snapshots or on states the caller has serialized.
type Overlay struct {
	base Source
	ints sourceInternals
	// deltas holds the per-relation delta, keyed by relation name.
	deltas map[string]*overlayDelta
	// refDelta adjusts the base's reverse reference index: per
	// inclusion dependency and parent key, the base referencers the
	// overlay erased and the new ones it recorded. Set sizes adjust the
	// reference counts the inclusion delta checks consume; the tuples
	// themselves feed Referencers.
	refDelta map[refKey]*refEdgeDelta
}

// A refKey names one parent key's referencer set: the index of the
// inclusion dependency and the parent key's encoding.
type refKey struct {
	dep    int
	parent string
}

// refEdgeDelta is one parent key's referencer-set delta. Both maps are
// keyed by the child tuple's Key() and stay nil until written.
// Invariant: removed entries shadow base referencers (matched by child
// key), added entries are referencers the overlay introduced.
type refEdgeDelta struct {
	removed map[string]tuple.T
	added   map[string]tuple.T
}

func (d *refEdgeDelta) clone() *refEdgeDelta {
	return &refEdgeDelta{removed: maps.Clone(d.removed), added: maps.Clone(d.added)}
}

func (d *refEdgeDelta) empty() bool { return len(d.removed) == 0 && len(d.added) == 0 }

// count is the delta this edge applies to the base reference count.
func (d *refEdgeDelta) count() int {
	if d == nil {
		return 0
	}
	return len(d.added) - len(d.removed)
}

// overlayDelta is one relation's delta. Both maps are keyed by
// tuple.Key() and stay nil until written. Invariants: every removed
// entry is an exact tuple present in the base; every added entry's key
// is not effectively present beneath it (hidden by removed, or absent
// from the base).
type overlayDelta struct {
	removed map[string]tuple.T
	added   map[string]tuple.T
}

func (d *overlayDelta) clone() *overlayDelta {
	return &overlayDelta{removed: maps.Clone(d.removed), added: maps.Clone(d.added)}
}

func (d *overlayDelta) empty() bool { return len(d.removed) == 0 && len(d.added) == 0 }

// NewOverlay returns an empty overlay over base.
func NewOverlay(base Source) *Overlay {
	return &Overlay{base: base, ints: base.internal(), deltas: map[string]*overlayDelta{}}
}

// Base returns the state the overlay layers over.
func (o *Overlay) Base() Source { return o.base }

// Snapshot returns a copy of the overlay sharing the (immutable) base:
// further Apply calls on either side do not affect the other.
func (o *Overlay) Snapshot() *Overlay {
	out := NewOverlay(o.base)
	for rel, d := range o.deltas {
		out.deltas[rel] = d.clone()
	}
	if len(o.refDelta) > 0 {
		out.refDelta = make(map[refKey]*refEdgeDelta, len(o.refDelta))
		for k, d := range o.refDelta {
			out.refDelta[k] = d.clone()
		}
	}
	return out
}

// DeltaSize returns the number of removed and added tuples recorded
// across all relations — the cost of Diff, and a measure of how far the
// overlay has diverged from its base.
func (o *Overlay) DeltaSize() (removed, added int) {
	for _, d := range o.deltas {
		removed += len(d.removed)
		added += len(d.added)
	}
	return removed, added
}

// Schema implements Source.
func (o *Overlay) Schema() *schema.Database { return o.base.Schema() }

// Err implements Source: an overlay is trustworthy iff its base is.
func (o *Overlay) Err() error { return o.base.Err() }

// Tuples implements Source: the base tuples minus the removed set plus
// the added set, in deterministic (key-encoding) order.
func (o *Overlay) Tuples(name string) []tuple.T {
	d := o.deltas[name]
	if d == nil || d.empty() {
		return o.base.Tuples(name)
	}
	base := o.base.Tuples(name)
	// The base is already in key order and filtering preserves it, so
	// only the (typically tiny) added set needs sorting before a linear
	// merge — re-sorting the whole result put an n·log n pass on every
	// staged-state scan. Key() allocates its encoding per call, so base
	// keys are computed only while a removal or merge still needs them.
	addedKeys := make([]string, 0, len(d.added))
	for k := range d.added {
		addedKeys = append(addedKeys, k)
	}
	sort.Strings(addedKeys)
	out := make([]tuple.T, 0, len(base)-len(d.removed)+len(addedKeys))
	ai := 0
	for _, t := range base {
		if len(d.removed) == 0 && ai == len(addedKeys) {
			out = append(out, t)
			continue
		}
		k := t.Key()
		if _, gone := d.removed[k]; gone {
			continue
		}
		for ai < len(addedKeys) && addedKeys[ai] < k {
			out = append(out, d.added[addedKeys[ai]])
			ai++
		}
		out = append(out, t)
	}
	for ; ai < len(addedKeys); ai++ {
		out = append(out, d.added[addedKeys[ai]])
	}
	return out
}

// Each implements Source: the base tuples the overlay has not removed,
// then the added ones.
func (o *Overlay) Each(name string, fn func(tuple.T) bool) {
	d := o.deltas[name]
	if d == nil || d.empty() {
		o.base.Each(name, fn)
		return
	}
	stopped := false
	o.base.Each(name, func(t tuple.T) bool {
		if _, gone := d.removed[t.Key()]; gone {
			return true
		}
		if !fn(t) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	for _, t := range d.added {
		if !fn(t) {
			return
		}
	}
}

// Len implements Source.
func (o *Overlay) Len(name string) int {
	n := o.base.Len(name)
	if d := o.deltas[name]; d != nil {
		n += len(d.added) - len(d.removed)
	}
	return n
}

// Contains implements Source.
func (o *Overlay) Contains(t tuple.T) bool {
	if d := o.deltas[t.Relation().Name()]; d != nil {
		k := t.Key()
		if cur, ok := d.added[k]; ok {
			return cur.Equal(t)
		}
		if _, gone := d.removed[k]; gone {
			return false
		}
	}
	return o.base.Contains(t)
}

// LookupKey implements Source.
func (o *Overlay) LookupKey(probe tuple.T) (tuple.T, bool) {
	if d := o.deltas[probe.Relation().Name()]; d != nil {
		k := probe.Key()
		if t, ok := d.added[k]; ok {
			return t, true
		}
		if _, gone := d.removed[k]; gone {
			return tuple.T{}, false
		}
	}
	return o.base.LookupKey(probe)
}

// HasIndex implements Source: indexes live in the base; ScanValues
// merges the delta on top of the indexed scan.
func (o *Overlay) HasIndex(rel, attr string) bool { return o.base.HasIndex(rel, attr) }

// ScanValues implements Source.
func (o *Overlay) ScanValues(rel, attr string, vals []value.Value, fn func(tuple.T) bool) {
	d := o.deltas[rel]
	if d == nil || d.empty() {
		o.base.ScanValues(rel, attr, vals, fn)
		return
	}
	stopped := false
	o.base.ScanValues(rel, attr, vals, func(t tuple.T) bool {
		if _, gone := d.removed[t.Key()]; gone {
			return true
		}
		if !fn(t) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	want := make(map[value.Value]bool, len(vals))
	for _, v := range vals {
		want[v] = true
	}
	for _, t := range d.added {
		if want[t.MustGet(attr)] && !fn(t) {
			return
		}
	}
}

// internal implements Source.
func (o *Overlay) internal() sourceInternals { return overlayInternals{o} }

type overlayInternals struct{ o *Overlay }

func (i overlayInternals) refCount(dep int, keyEnc string) int {
	return i.o.ints.refCount(dep, keyEnc) + i.o.refDelta[refKey{dep, keyEnc}].count()
}

func (i overlayInternals) eachReferencer(dep int, keyEnc string, fn func(tuple.T) bool) {
	d := i.o.refDelta[refKey{dep, keyEnc}]
	if d == nil {
		i.o.ints.eachReferencer(dep, keyEnc, fn)
		return
	}
	stopped := false
	i.o.ints.eachReferencer(dep, keyEnc, func(t tuple.T) bool {
		if _, gone := d.removed[t.Key()]; gone {
			return true
		}
		if !fn(t) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	for _, t := range d.added {
		if !fn(t) {
			return
		}
	}
}

// Referencers implements Source: the base's referencers of parent's key
// under dependency dep, merged with the overlay's reference delta, in
// deterministic order.
func (o *Overlay) Referencers(dep int, parent tuple.T) []tuple.T {
	return sortedReferencers(o, dep, parent)
}

func (i overlayInternals) containsKeyEncoding(rel, enc string) bool {
	if d := i.o.deltas[rel]; d != nil {
		if _, ok := d.added[enc]; ok {
			return true
		}
		if _, gone := d.removed[enc]; gone {
			return false
		}
	}
	return i.o.ints.containsKeyEncoding(rel, enc)
}

func (i overlayInternals) hasRelation(name string) bool { return i.o.ints.hasRelation(name) }

func (i overlayInternals) inclusions() []schema.InclusionDependency { return i.o.ints.inclusions() }

// An undoEntry is one write an Apply made in place: a tuple slot of a
// delta map (slot non-nil; old and had restore it), or else the
// reference edge the apply created or emptied, dropped at the end if it
// is empty then.
type undoEntry struct {
	slot map[string]tuple.T
	key  string
	old  tuple.T
	had  bool
	edge refKey
}

// An overlayApply is one Apply in progress. It writes the overlay's
// own deltas and logs what it overwrites, so a statement costs its own
// size however much is staged beneath it, and a violation replays the
// log backwards to leave the overlay as it was.
type overlayApply struct {
	o *Overlay
	// fresh is set when the overlay held nothing as the apply began
	// (the verifier's overlay per candidate): undoing is then emptying
	// it, every edge is the apply's own, and nothing needs logging.
	fresh bool
	log   []undoEntry
}

// delta returns the overlay's delta for rel, creating it if need be.
func (a *overlayApply) delta(rel string) *overlayDelta {
	d := a.o.deltas[rel]
	if d == nil {
		d = &overlayDelta{}
		a.o.deltas[rel] = d
	}
	return d
}

// set writes (*m)[k] = t, making the map if it is still nil and
// logging the slot's previous state.
func (a *overlayApply) set(m *map[string]tuple.T, k string, t tuple.T) {
	if *m == nil {
		*m = make(map[string]tuple.T)
	}
	a.logSlot(*m, k)
	(*m)[k] = t
}

// del deletes m[k], logging the slot's previous state.
func (a *overlayApply) del(m map[string]tuple.T, k string) {
	a.logSlot(m, k)
	delete(m, k)
}

func (a *overlayApply) logSlot(m map[string]tuple.T, k string) {
	if a.fresh {
		return
	}
	old, had := m[k]
	a.log = append(a.log, undoEntry{slot: m, key: k, old: old, had: had})
}

// logEdge notes the reference edge k, just created or emptied, for
// finish to drop if it is empty then. A fresh apply logs nothing:
// finish walks every edge, all of them its own.
func (a *overlayApply) logEdge(k refKey) {
	if !a.fresh {
		a.log = append(a.log, undoEntry{edge: k})
	}
}

// adjustRefs mirrors Database.refAdjust on the overlay: +1 records t as
// a referencer of the parent key it carries, -1 erases it (cancelling a
// staged addition of the identical tuple, or shadowing a base
// referencer otherwise).
func (a *overlayApply) adjustRefs(t tuple.T, delta int) {
	rel := t.Relation().Name()
	for i, d := range a.o.ints.inclusions() {
		if d.Child != rel {
			continue
		}
		if a.o.refDelta == nil {
			a.o.refDelta = make(map[refKey]*refEdgeDelta)
		}
		k := refKey{i, childRefKey(d, t)}
		ed := a.o.refDelta[k]
		if ed == nil {
			ed = &refEdgeDelta{}
			a.o.refDelta[k] = ed
			a.logEdge(k)
		}
		ck := t.Key()
		if delta > 0 {
			if cur, ok := ed.removed[ck]; ok && cur.Equal(t) {
				a.del(ed.removed, ck)
			} else {
				a.set(&ed.added, ck, t)
			}
		} else {
			if cur, ok := ed.added[ck]; ok && cur.Equal(t) {
				a.del(ed.added, ck)
			} else {
				a.set(&ed.removed, ck, t)
			}
		}
		if ed.empty() {
			a.logEdge(k)
		}
	}
}

// finish ends the apply: a failed one first puts every logged slot
// back, newest first. Either way the deltas and edges left empty are
// dropped, so untouched-relation fast paths stay fast.
func (a *overlayApply) finish(failed bool) {
	o := a.o
	if failed && a.fresh {
		clear(o.deltas)
		o.refDelta = nil
		return
	}
	if failed {
		for i := len(a.log) - 1; i >= 0; i-- {
			switch u := a.log[i]; {
			case u.slot == nil:
			case u.had:
				u.slot[u.key] = u.old
			default:
				delete(u.slot, u.key)
			}
		}
	}
	if a.fresh {
		maps.DeleteFunc(o.refDelta, func(_ refKey, ed *refEdgeDelta) bool { return ed.empty() })
	}
	for _, u := range a.log {
		if ed := o.refDelta[u.edge]; u.slot == nil && ed != nil && ed.empty() {
			delete(o.refDelta, u.edge)
		}
	}
	maps.DeleteFunc(o.deltas, func(_ string, d *overlayDelta) bool { return d.empty() })
}

// Apply records the translation in the overlay, enforcing exactly the
// constraints Database.Apply enforces — phase for phase, in the same
// deterministic order, with the same added/removed-set semantics
// (removals happen "first", additions "second") and the same
// inclusion-dependency delta checks against the final state. On any
// violation the overlay is left unchanged and an error classified like
// Database.Apply's (relation.ErrNotPresent, relation.ErrKeyConflict,
// ErrInclusion, ErrUnknownRelation) is returned.
func (o *Overlay) Apply(tr *update.Translation) error {
	if err := o.Err(); err != nil {
		return err
	}

	// Phase 0: validate ops reference relations of this schema.
	for _, op := range tr.Ops() {
		if !o.ints.hasRelation(op.RelationName()) {
			return fmt.Errorf("%w %s in %s", ErrUnknownRelation, op.RelationName(), op)
		}
	}

	a := &overlayApply{o: o, fresh: len(o.deltas) == 0 && len(o.refDelta) == 0}
	err := a.apply(tr.Removed().Slice(), tr.Added().Slice())
	a.finish(err != nil)
	if err != nil {
		return err
	}
	obs.Inc("storage.overlay.apply")
	return nil
}

func (a *overlayApply) apply(removed, added []tuple.T) error {
	o := a.o
	// Phase 1: remove the removed set.
	for _, t := range removed {
		rel := t.Relation().Name()
		d := a.delta(rel)
		k := t.Key()
		if cur, ok := d.added[k]; ok {
			if !cur.Equal(t) {
				return fmt.Errorf("storage: %w: %s in %s", relation.ErrNotPresent, t, rel)
			}
			a.del(d.added, k)
		} else if _, gone := d.removed[k]; gone {
			return fmt.Errorf("storage: %w: %s in %s", relation.ErrNotPresent, t, rel)
		} else if !o.base.Contains(t) {
			return fmt.Errorf("storage: %w: %s in %s", relation.ErrNotPresent, t, rel)
		} else {
			a.set(&d.removed, k, t)
		}
		a.adjustRefs(t, -1)
	}

	// Phase 2: add the added set.
	for _, t := range added {
		rel := t.Relation().Name()
		d := a.delta(rel)
		k := t.Key()
		if cur, ok := d.added[k]; ok {
			return fmt.Errorf("storage: %w in %s: %s vs existing %s", relation.ErrKeyConflict, rel, t, cur)
		}
		if _, gone := d.removed[k]; !gone {
			if cur, ok := o.base.LookupKey(t); ok {
				return fmt.Errorf("storage: %w in %s: %s vs existing %s", relation.ErrKeyConflict, rel, t, cur)
			}
		}
		a.set(&d.added, k, t)
		a.adjustRefs(t, +1)
	}

	// Phase 3: inclusion dependencies on the final state, as deltas.
	staged := overlayInternals{o}
	parentKeyExists := func(parent, keyEnc string) bool {
		return staged.containsKeyEncoding(parent, keyEncProbe(parent, keyEnc))
	}
	deps := o.ints.inclusions()
	for _, t := range added {
		rel := t.Relation().Name()
		for _, d := range deps {
			if d.Child != rel {
				continue
			}
			if !parentKeyExists(d.Parent, childRefKey(d, t)) {
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
			if parentKeyExists(d.Parent, k) {
				continue // key survived (replacement kept it)
			}
			if n := staged.refCount(i, k); n > 0 {
				return fmt.Errorf("%w %s violated: removing %s leaves %d dangling references", ErrInclusion, d, t, n)
			}
		}
	}
	return nil
}

// Diff returns the translation transforming the base state into the
// overlay's state: a delete for every removed tuple and an insert for
// every added tuple, skipping keys whose removed and added entries are
// equal — deletes and inserts, no replaces, at O(delta). Applying it to
// a state equal to the base yields the overlay's state, which is how
// staged transactions (wire and sqlish) commit.
func (o *Overlay) Diff() *update.Translation {
	tr := update.NewTranslation()
	for _, d := range o.deltas {
		for k, t := range d.removed {
			if cur, ok := d.added[k]; ok && cur.Equal(t) {
				continue
			}
			tr.Add(update.NewDelete(t))
		}
		for k, t := range d.added {
			if cur, ok := d.removed[k]; ok && cur.Equal(t) {
				continue
			}
			tr.Add(update.NewInsert(t))
		}
	}
	return tr
}
