package tuple

import (
	"hash/maphash"
	"maps"
	"slices"
	"strings"
	"sync/atomic"
)

// A Set is a set of tuples keyed by canonical encoding. The zero Set is
// empty and ready to use for reads; use NewSet or Add for writes.
//
// A Set shares structure with its clones, so Clone costs O(pages) and
// the write after it O(one page), not O(tuples). The tuples live in a
// power-of-two array of hash pages, and Clone copies only that array.
// Ownership stamps decide who may write a page in place, as in the
// storage package's reverse reference index: a set writes a page only
// if the page carries the set's epoch, and copies it first otherwise.
// Clone moves both sides to epochs no page carries, so neither owns a
// page the other can still see. Clone only reads the pages and swaps
// the receiver's epoch atomically: a set may be cloned while other
// goroutines read or clone it. Like a map, a set must not be written
// while anything else uses it.
type Set struct {
	pages []page
	n     int
	epoch atomic.Uint64
}

// A page holds the tuples whose encodings hash to its index, stamped
// with the epoch of the one set that may write it in place.
type page struct {
	epoch uint64
	rows  map[string]T
}

// pageFill is the mean number of tuples per page the page count
// follows: a set doubles its pages when it grows past pageFill tuples
// per page and halves them when it falls below a quarter of that. It is
// the balance between Clone, which copies one page reference per
// pageFill tuples, and the first write after it, which copies one
// page's pageFill tuples (BenchmarkSetClonePatch).
const pageFill = 64

var (
	// hashSeed places encodings on pages. It is one per process, so
	// every set agrees on where a tuple lives and clones can share pages.
	hashSeed = maphash.MakeSeed()
	// lastEpoch hands out the ownership stamps; the zero epoch of a set
	// that was never cloned is never handed out.
	lastEpoch atomic.Uint64
)

// pageOf returns the index among pages (a power of two) of the page
// holding the tuple whose encoding is k.
func pageOf(k string, pages int) int {
	return int(maphash.String(hashSeed, k) & uint64(pages-1))
}

// NewSet builds a set from the given tuples.
func NewSet(ts ...T) *Set {
	s := &Set{}
	for _, t := range ts {
		s.Add(t)
	}
	return s
}

// Len returns the number of tuples.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// has reports whether the set, which must not be empty, holds the tuple
// encoded as k.
func (s *Set) has(k string) bool {
	_, ok := s.pages[pageOf(k, len(s.pages))].rows[k]
	return ok
}

// Add inserts t; it reports whether t was newly added.
func (s *Set) Add(t T) bool {
	if len(s.pages) == 0 {
		s.resize(1)
	}
	k := t.Encode()
	i := pageOf(k, len(s.pages))
	if _, ok := s.pages[i].rows[k]; ok {
		return false
	}
	s.writable(i)[k] = t
	s.n++
	if s.n > pageFill*len(s.pages) {
		s.resize(2 * len(s.pages))
	}
	return true
}

// Remove deletes t; it reports whether t was present.
func (s *Set) Remove(t T) bool {
	if s.Len() == 0 {
		return false
	}
	k := t.Encode()
	i := pageOf(k, len(s.pages))
	if _, ok := s.pages[i].rows[k]; !ok {
		return false
	}
	delete(s.writable(i), k)
	s.n--
	if p := len(s.pages); p > 1 && s.n < pageFill*p/4 {
		s.resize(p / 2)
	}
	return true
}

// writable returns page i's rows for writing, copying the page first
// if the set does not own it. The copy has room for the add that may
// have asked for it, so that add never grows the map: the copy costs
// the same few allocations at any page size.
func (s *Set) writable(i int) map[string]T {
	pg := &s.pages[i]
	if ep := s.epoch.Load(); pg.epoch != ep {
		rows := make(map[string]T, len(pg.rows)+1)
		maps.Copy(rows, pg.rows)
		*pg = page{epoch: ep, rows: rows}
	}
	return pg.rows
}

// resize redistributes the tuples over p fresh pages the set owns.
func (s *Set) resize(p int) {
	ep := s.epoch.Load()
	pages := make([]page, p)
	for i := range pages {
		pages[i] = page{epoch: ep, rows: make(map[string]T, s.n/p)}
	}
	for _, pg := range s.pages {
		for k, t := range pg.rows {
			pages[pageOf(k, p)].rows[k] = t
		}
	}
	s.pages = pages
}

// Contains reports membership.
func (s *Set) Contains(t T) bool {
	return s.Len() > 0 && s.has(t.Encode())
}

// Slice returns the tuples in deterministic (encoding) order.
func (s *Set) Slice() []T {
	if s == nil {
		return nil
	}
	type entry struct {
		k string
		t T
	}
	es := make([]entry, 0, s.n)
	for _, pg := range s.pages {
		for k, t := range pg.rows {
			es = append(es, entry{k, t})
		}
	}
	slices.SortFunc(es, func(a, b entry) int { return strings.Compare(a.k, b.k) })
	out := make([]T, len(es))
	for i, e := range es {
		out[i] = e.t
	}
	return out
}

// Equal reports whether two sets hold the same tuples.
func (s *Set) Equal(o *Set) bool {
	return s.Len() == o.Len() && s.SubsetOf(o)
}

// SubsetOf reports whether every tuple of s is in o.
func (s *Set) SubsetOf(o *Set) bool {
	if s.Len() == 0 {
		return true
	}
	if s.Len() > o.Len() {
		return false
	}
	for _, pg := range s.pages {
		for k := range pg.rows {
			if !o.has(k) {
				return false
			}
		}
	}
	return true
}

// Clone returns a set holding the same tuples. It shares every page
// with s and leaves both sides owning none of them.
func (s *Set) Clone() *Set {
	out := &Set{}
	if s.Len() == 0 {
		return out
	}
	s.epoch.Store(lastEpoch.Add(1))
	out.epoch.Store(lastEpoch.Add(1))
	out.pages = slices.Clone(s.pages)
	out.n = s.n
	return out
}
