package server

import (
	"maps"

	"viewupdate/internal/obs"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/view"
)

// This file is the serving side of incremental view maintenance: the
// commit pipeline knows exactly which base tuples each landed batch
// removed and added, so instead of publishing a database whose view
// rows the next reader must rematerialize in O(view), publish carries
// every warm set of the previous snapshot into the next one by the
// batch's view delta. Readers share the sets, so carrying is
// copy-on-write: a patched entry is a fresh set and sets already handed
// out are never mutated.
//
// The same per-view deltas drive live subscriptions (subscribe.go):
// each commit's row changes go to the feed of every subscribed view,
// whether or not any reader has warmed it.

// publish builds the next published state whole and stores it once: a
// copy-on-write clone of the live database (extensions are shared and
// cloned per relation on the live side's next write, so O(relations)),
// the next version, and — when the step from the previous snapshot is a
// known list of landed translations, in apply order — every warm entry
// of the previous snapshot's memo patched by the step's view delta.
// The memo is complete before the single Store, so no reader can hold a
// database without its rows or rows without their database, and a warm
// view stays warm for as long as commits are the only writers; the one
// cold path left is a fill of the previous snapshot that lands after
// its memo was copied here, which the next snapshot does not see.
//
// An empty landed means the step is not a known delta — boot, or an
// admin script that may have run DDL: the next snapshot takes one
// version and starts with an empty memo, which is the invalidate-on-DDL
// rule. Subscribers hear each subscribed view's delta after the store,
// so an event never precedes the state it describes; a subscribed view
// that DDL dropped or rebound has its feed cut, and so has one whose
// last subscriber left more than its linger ago.
//
// Callers hold stateMu (or are the only goroutine, at boot). Reading
// e.sess without sessMu is safe here: DDL mutation (ExecScript)
// requires sessMu AND stateMu.
func (e *Engine) publish(landed []*update.Translation) {
	prev := e.snap.Load()
	next := &snapshot{Database: e.db.CloneShared(), views: map[view.View]*tuple.Set{}}
	type delta struct {
		v        view.View
		rem, add []tuple.T
	}
	type change struct {
		fd *viewFeed
		delta
	}
	feeds := e.subs.active()
	var fanout []change
	switch {
	case prev == nil: // boot: version 0
	case len(landed) == 0:
		next.version = prev.version + 1
	default:
		next.version = prev.version + uint64(len(landed))
		removed, added := netDelta(landed)
		deltas := map[view.View]delta{}
		deltaOf := func(v view.View) delta {
			d, ok := deltas[v]
			if !ok {
				rem, add := v.DeltaForChange(prev.Database, next.Database, removed, added)
				d = delta{v, rem.Slice(), add.Slice()}
				deltas[v] = d
			}
			return d
		}
		// A subscribed view needs the row changes even when no reader
		// has materialized it; a warm view reuses them below.
		for _, fd := range feeds {
			if e.sess.View(fd.name) == fd.v {
				fanout = append(fanout, change{fd, deltaOf(fd.v)})
			}
		}
		prev.mu.Lock()
		warm := maps.Clone(prev.views)
		prev.mu.Unlock()
		for v, set := range warm {
			if e.sess.View(v.Name()) != v {
				continue // dropped or rebound since it was filled: not carried
			}
			d := deltaOf(v)
			next.views[v] = patchSet(set, d.rem, d.add)
			obs.Inc("server.ivm.patch")
		}
	}
	obs.SetGauge("server.viewcache.entries", int64(len(next.views)))
	e.snap.Store(next) // from here on readers may fill next.views
	for _, c := range fanout {
		c.fd.publish(next.version, c.rem, c.add)
	}
	for _, fd := range feeds {
		// A view dropped or rebound since its feed opened cuts the
		// feed's subscribers loose, so they notice and re-subscribe (or
		// give up); a feed whose last subscriber is gone for good stops
		// costing commits.
		if e.sess.View(fd.name) != fd.v || fd.Idle(e.subs.linger) {
			e.subs.drop(fd)
		}
	}
}

// patchSet applies a view-row delta copy-on-write: the input set is
// shared with readers and never mutated; an empty delta returns it
// unchanged. It costs O(delta + pages): the clone shares the set's hash
// pages and copies only those the delta writes (tuple.Set).
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
