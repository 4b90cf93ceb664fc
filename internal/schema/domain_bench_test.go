package schema

import "testing"

// BenchmarkIntRangeDomain builds a 100,000-value range: the cost every
// CREATE DOMAIN … INT RANGE and every restore of one pays.
func BenchmarkIntRangeDomain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := IntRangeDomain("K", 1, 100000); err != nil {
			b.Fatal(err)
		}
	}
}
