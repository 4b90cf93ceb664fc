package server

import (
	"viewupdate/internal/obs"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/view"
)

// This file is the serving side of incremental view maintenance: the
// commit pipeline knows exactly which base tuples each landed batch
// removed and added, so instead of letting a publish invalidate the
// view cache (making the next reader pay a full O(view)
// rematerialization), it patches every warm cached set with the batch's
// view delta. Readers share cached sets, so patching is copy-on-write:
// a patched entry is a fresh set and sets already handed out are never
// mutated.
//
// The same per-view deltas drive live subscriptions (subscribe.go):
// each commit's row changes fan out to /subscribe/{view} tails, for
// subscribed views whether or not any reader has warmed the cache.

// patchViewCache carries the view cache across a publish and feeds the
// subscription hub: given the snapshot that was current when
// commitBatch started, the snapshot just published, and the
// translations that landed between them (in apply order), it patches
// each warm cached set with the corresponding view delta, advances the
// cache to the new version, and broadcasts each subscribed view's row
// changes. If the cache is cold or stale it invalidates implicitly
// (subscriptions still get their deltas).
//
// Called with stateMu held. Reading e.sess without sessMu is safe here:
// DDL mutation (ExecScript) requires sessMu AND stateMu, and we hold
// stateMu.
func (e *Engine) patchViewCache(old, new *snapshot, landed []*update.Translation) {
	if len(landed) == 0 {
		return
	}
	subbed := e.subs.active()
	removed, added := netDelta(landed)
	type delta struct{ rem, add []tuple.T }
	deltaOf := func(v view.View) delta {
		rem, add := v.DeltaForChange(old.db, new.db, removed, added)
		return delta{rem.Slice(), add.Slice()}
	}

	// Subscribed views compute their deltas first — a live subscription
	// needs the row changes even when no reader has materialized the
	// view — and the results are reused by the cache patch below.
	var deltas map[string]delta
	for _, name := range subbed {
		v := e.sess.View(name)
		if v == nil {
			// View dropped since the subscribers attached; cut them loose
			// so they notice and re-subscribe (or give up).
			e.subs.drop(name)
			continue
		}
		if deltas == nil {
			deltas = make(map[string]delta, len(subbed))
		}
		d := deltaOf(v)
		deltas[name] = d
		e.subs.publish(name, v, new.version, d.rem, d.add)
	}

	c := &e.views
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.version != old.version || c.sets == nil {
		// Cold or already-stale cache: nothing warm to carry forward.
		return
	}
	for name, set := range c.sets {
		d, hit := deltas[name]
		if !hit {
			v := e.sess.View(name)
			if v == nil {
				// View dropped: evict.
				delete(c.sets, name)
				obs.Inc("server.ivm.rebuild")
				continue
			}
			d = deltaOf(v)
		}
		c.sets[name] = patchSet(set, d.rem, d.add)
		obs.Inc("server.ivm.patch")
	}
	c.version = new.version
	obs.SetGauge("server.viewcache.entries", int64(len(c.sets)))
	obs.SetGauge("server.viewcache.version", int64(c.version))
}

// patchSet applies a view-row delta copy-on-write: the input set is
// shared with readers and never mutated; an empty delta returns it
// unchanged.
func patchSet(set *tuple.Set, removedRows, addedRows []tuple.T) *tuple.Set {
	if len(removedRows) == 0 && len(addedRows) == 0 {
		return set
	}
	out := set.Clone()
	for _, row := range removedRows {
		out.Remove(row)
	}
	for _, row := range addedRows {
		out.Add(row)
	}
	return out
}

// netDelta folds a batch's translations (in apply order) into the net
// base change between the pre-batch and post-batch states: a tuple
// removed after being added earlier in the batch cancels out, and vice
// versa, so the result is exactly Diff(old, new) restricted to the
// touched relations — the input view.DeltaForChange expects.
func netDelta(landed []*update.Translation) (removed, added []tuple.T) {
	removedSet, addedSet := tuple.NewSet(), tuple.NewSet()
	for _, tr := range landed {
		for _, t := range tr.Removed().Slice() {
			if addedSet.Contains(t) {
				addedSet.Remove(t)
			} else {
				removedSet.Add(t)
			}
		}
		for _, t := range tr.Added().Slice() {
			if removedSet.Contains(t) {
				removedSet.Remove(t)
			} else {
				addedSet.Add(t)
			}
		}
	}
	return removedSet.Slice(), addedSet.Slice()
}
