package tuple

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"viewupdate/internal/value"
)

// A modelled set is a Set beside the plain map it must agree with.
type modelled struct {
	s   *Set
	ref map[string]T
	gen int // clones between this set and the one it descends from
}

// check compares m.s against m.ref through the whole read API: Len,
// Slice (every member, in encoding order), and Contains on the given
// probes.
func (m modelled) check(probes []T) error {
	if m.s.Len() != len(m.ref) {
		return fmt.Errorf("Len = %d, want %d", m.s.Len(), len(m.ref))
	}
	got := m.s.Slice()
	if len(got) != len(m.ref) {
		return fmt.Errorf("Slice has %d tuples, want %d", len(got), len(m.ref))
	}
	for i, t := range got {
		if _, ok := m.ref[t.Encode()]; !ok {
			return fmt.Errorf("Slice holds %s, which the set does not", t)
		}
		if i > 0 && got[i-1].Encode() >= t.Encode() {
			return fmt.Errorf("Slice out of order at %d", i)
		}
	}
	for _, t := range probes {
		if _, want := m.ref[t.Encode()]; m.s.Contains(t) != want {
			return fmt.Errorf("Contains(%s) = %v, want %v", t, !want, want)
		}
	}
	return nil
}

// refSubset is SubsetOf on two plain maps.
func refSubset(a, b map[string]T) bool {
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// checkPair compares Equal and SubsetOf of two sets both ways against
// their maps.
func checkPair(a, b modelled) error {
	if got, want := a.s.SubsetOf(b.s), refSubset(a.ref, b.ref); got != want {
		return fmt.Errorf("SubsetOf = %v, want %v", got, want)
	}
	if got, want := b.s.SubsetOf(a.s), refSubset(b.ref, a.ref); got != want {
		return fmt.Errorf("reverse SubsetOf = %v, want %v", got, want)
	}
	if got, want := a.s.Equal(b.s), len(a.ref) == len(b.ref) && refSubset(a.ref, b.ref); got != want {
		return fmt.Errorf("Equal = %v, want %v", got, want)
	}
	return nil
}

// TestSetMatchesMap runs seeded random steps — batches of adds, batches
// of removes, and clones up to 6 generations deep, written on both
// sides — over a family of live sets, and after every step checks
// every one of them against a plain map. The sets grow to several
// pages and shrink back, so page-count changes fall between clones and
// writes.
func TestSetMatchesMap(t *testing.T) {
	const (
		keys     = 1000
		maxLive  = 6
		maxGen   = 6
		steps    = 400
		maxBatch = 24
	)
	rel := wideRel(t, keys)
	tupleOf := func(r *rand.Rand) T {
		return MustNew(rel, value.NewInt(1+r.Int63n(keys)), value.NewString([]string{"NY", "SF"}[r.Intn(2)]))
	}
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		live := []modelled{{s: NewSet(), ref: map[string]T{}}}
		maxPages, shrinks, deepest := 0, 0, 0
		for step := 0; step < steps; step++ {
			i := r.Intn(len(live))
			m := live[i]
			pagesBefore := len(m.s.pages)
			// Grow for the first half, shrink for the second.
			addBias := 0.8
			if step >= steps/2 {
				addBias = 0.1
			}
			switch x := r.Float64(); {
			case x < 0.15 && m.gen < maxGen:
				c := modelled{s: m.s.Clone(), ref: maps.Clone(m.ref), gen: m.gen + 1}
				deepest = max(deepest, c.gen)
				if len(live) == maxLive {
					j := r.Intn(len(live))
					live = append(live[:j], live[j+1:]...)
				}
				live = append(live, c)
			case x < 0.15+0.85*addBias:
				for n := 1 + r.Intn(maxBatch); n > 0; n-- {
					tp := tupleOf(r)
					_, had := m.ref[tp.Encode()]
					if m.s.Add(tp) == had {
						t.Fatalf("seed %d step %d: Add(%s) = %v with the tuple present = %v", seed, step, tp, had, had)
					}
					m.ref[tp.Encode()] = tp
				}
			default:
				for n := 1 + r.Intn(maxBatch); n > 0; n-- {
					tp := tupleOf(r)
					if len(m.ref) > 0 && r.Intn(4) > 0 {
						for _, present := range m.ref { // a member, so removes hit
							tp = present
							break
						}
					}
					_, had := m.ref[tp.Encode()]
					if m.s.Remove(tp) != had {
						t.Fatalf("seed %d step %d: Remove(%s) = %v with the tuple present = %v", seed, step, tp, !had, had)
					}
					delete(m.ref, tp.Encode())
				}
			}
			maxPages = max(maxPages, len(m.s.pages))
			if len(m.s.pages) < pagesBefore {
				shrinks++
			}
			probes := []T{tupleOf(r), tupleOf(r), tupleOf(r), tupleOf(r)}
			for j, o := range live {
				if err := o.check(probes); err != nil {
					t.Fatalf("seed %d step %d: set %d (generation %d): %v", seed, step, j, o.gen, err)
				}
				if err := checkPair(o, live[(j+1)%len(live)]); err != nil {
					t.Fatalf("seed %d step %d: sets %d and %d: %v", seed, step, j, (j+1)%len(live), err)
				}
			}
		}
		if maxPages < 4 || shrinks == 0 || deepest < 3 {
			t.Errorf("seed %d exercised too little: at most %d pages, %d shrinks, %d generations deep", seed, maxPages, shrinks, deepest)
		}
	}
}

// TestSetModelCatchesUncopiedWrite shows the model check above has
// teeth: a write that goes into a page the set shares with a clone,
// without copying it first, shows up in the clone.
func TestSetModelCatchesUncopiedWrite(t *testing.T) {
	rel := wideRel(t, 1000)
	a := modelled{s: wideSet(rel, 300), ref: map[string]T{}}
	for _, tp := range a.s.Slice() {
		a.ref[tp.Encode()] = tp
	}
	b := modelled{s: a.s.Clone(), ref: maps.Clone(a.ref)}
	extra := MustNew(rel, value.NewInt(999), value.NewString("SF"))
	k := extra.Encode()
	a.s.pages[pageOf(k, len(a.s.pages))].rows[k] = extra // no copy
	a.s.n++
	a.ref[k] = extra
	if err := a.check(nil); err != nil {
		t.Fatalf("the written set itself: %v", err)
	}
	if err := b.check([]T{extra}); err == nil {
		t.Fatal("the clone saw its source's write, and the check did not notice")
	}
}

// TestSetClonesUnderConcurrentReaders publishes a chain of clones, each
// patched by one writer before it is published, while four readers read
// and clone whatever set is current. A published set is never written
// again, so every reader must see exactly the tuples it was published
// with, and a reader's own clone must not disturb it. Run under -race
// (make race-core), this is what lets publish hand out a set and clone
// it for the next snapshot while readers still hold it.
func TestSetClonesUnderConcurrentReaders(t *testing.T) {
	const keys, rounds = 2000, 300
	rel := wideRel(t, keys)
	tupleOf := func(r *rand.Rand) T {
		return MustNew(rel, value.NewInt(1+r.Int63n(keys)), value.NewString("NY"))
	}
	first := modelled{s: wideSet(rel, 500), ref: map[string]T{}}
	for _, tp := range first.s.Slice() {
		first.ref[tp.Encode()] = tp
	}
	var cur atomic.Pointer[modelled]
	cur.Store(&first)
	var done atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + g)))
			for !done.Load() {
				m := cur.Load()
				probes := []T{tupleOf(r), tupleOf(r)}
				if err := m.check(probes); err != nil {
					errs <- fmt.Errorf("reader %d: published set: %v", g, err)
					return
				}
				mine := modelled{s: m.s.Clone(), ref: maps.Clone(m.ref)}
				for _, tp := range probes {
					mine.s.Add(tp)
					mine.ref[tp.Encode()] = tp
				}
				if err := mine.check(probes); err != nil {
					errs <- fmt.Errorf("reader %d: own clone: %v", g, err)
					return
				}
				reads.Add(1)
			}
		}(g)
	}
	r := rand.New(rand.NewSource(7))
	// Keep publishing until the readers have been at it for a while, or
	// one of them has failed.
	for i := 0; (i < rounds || reads.Load() < 200) && len(errs) == 0; i++ {
		m := cur.Load()
		next := modelled{s: m.s.Clone(), ref: maps.Clone(m.ref)}
		for n := r.Intn(4); n >= 0; n-- {
			tp := tupleOf(r)
			if r.Intn(2) == 0 {
				next.s.Add(tp)
				next.ref[tp.Encode()] = tp
			} else {
				next.s.Remove(tp)
				delete(next.ref, tp.Encode())
			}
		}
		cur.Store(&next)
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
