package tuple

import (
	"fmt"
	"testing"

	"viewupdate/internal/schema"
	"viewupdate/internal/value"
)

// wideRel is a two-attribute relation whose key domain holds n values,
// so a set over it can hold n distinct tuples.
func wideRel(tb testing.TB, n int) *schema.Relation {
	tb.Helper()
	k, err := schema.IntRangeDomain("WK", 1, int64(n))
	if err != nil {
		tb.Fatal(err)
	}
	loc := schema.MustDomain("WL", value.NewString("NY"), value.NewString("SF"))
	return schema.MustRelation("W", []schema.Attribute{
		{Name: "K", Domain: k},
		{Name: "Loc", Domain: loc},
	}, []string{"K"})
}

// wideSet returns a set of tuples with keys 1..rows over rel.
func wideSet(rel *schema.Relation, rows int) *Set {
	s := NewSet()
	for k := 1; k <= rows; k++ {
		s.Add(MustNew(rel, value.NewInt(int64(k)), value.NewString("NY")))
	}
	return s
}

// BenchmarkSetClonePatch measures what publish pays per warm view and
// commit: a Clone of the published row set plus a one-row patch, here
// one add and then, on the next clone, the matching remove, so the set
// ends every iteration as it began.
func BenchmarkSetClonePatch(b *testing.B) {
	for _, rows := range []int{5000, 15000, 50000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			rel := wideRel(b, rows+1)
			s := wideSet(rel, rows)
			extra := MustNew(rel, value.NewInt(int64(rows+1)), value.NewString("SF"))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s = s.Clone()
				s.Add(extra)
				s = s.Clone()
				s.Remove(extra)
			}
		})
	}
}

// smallSetSink keeps BenchmarkSmallSet's sets on the heap, where the
// sets a translation or a row delta returns live.
var smallSetSink *Set

// BenchmarkSmallSet measures the sets a translation and a row delta
// build: a fresh set, three adds and a membership probe.
func BenchmarkSmallSet(b *testing.B) {
	rel := wideRel(b, 8)
	ts := []T{
		MustNew(rel, value.NewInt(1), value.NewString("NY")),
		MustNew(rel, value.NewInt(2), value.NewString("SF")),
		MustNew(rel, value.NewInt(3), value.NewString("NY")),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSet()
		for _, t := range ts {
			s.Add(t)
		}
		if !s.Contains(ts[1]) {
			b.Fatal("lost a tuple")
		}
		smallSetSink = s
	}
}
