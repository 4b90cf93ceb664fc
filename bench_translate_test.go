package viewupdate

// Translation-pipeline benchmarks: the copy-on-write overlay path
// against the clone-per-candidate baseline it replaced. Both modes run
// the same pipeline shape — enumerate, validity, five criteria, policy
// — over identical pre-generated request streams; the baseline judges
// every candidate with a full database clone + full rematerialization
// per validity check (the pre-overlay semantics), the overlay mode is
// the current TraceTranslate. Results land in BENCH_translate.json.
// Run with:
//
//	go test -bench 'BenchmarkTranslate' -run '^$' .

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"viewupdate/internal/core"
	"viewupdate/internal/storage"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
	"viewupdate/internal/workload"
)

// cloneValid is the pre-overlay validity check: clone the whole
// database, apply, rematerialize the whole view, compare. One full
// copy of the state per call — and the criteria checkers call the
// validity predicate repeatedly per candidate.
func cloneValid(db *storage.Database, v view.View, r core.Request, exact bool) func(*update.Translation) bool {
	return func(tr *update.Translation) bool {
		clone := db.Clone()
		if err := clone.Apply(tr); err != nil {
			return false
		}
		after := v.Materialize(clone)
		if exact {
			want, err := r.ApplyToViewSet(v.Materialize(db))
			if err != nil {
				return false
			}
			return after.Equal(want)
		}
		for _, t := range r.AddedTuples() {
			if !after.Contains(t) {
				return false
			}
		}
		for _, t := range r.RemovedTuples() {
			if after.Contains(t) {
				return false
			}
		}
		return true
	}
}

// clonePipeline replays the pre-overlay pipeline sequentially:
// enumerate, then per candidate clone-based validity and the five
// criteria, then the policy. Returns the number of candidates judged.
func clonePipeline(db *storage.Database, v view.View, r core.Request) (int, error) {
	cands, err := core.Enumerate(db, v, r)
	if err != nil {
		return 0, err
	}
	_, isJoin := v.(*view.Join)
	valid := cloneValid(db, v, r, !isJoin)
	var accepted []core.Candidate
	for _, c := range cands {
		if !valid(c.Translation) {
			continue
		}
		if viols := core.CheckCriteria(db, v, r, c.Translation, core.CheckOptions{Valid: valid}); len(viols) > 0 {
			continue
		}
		accepted = append(accepted, c)
	}
	if _, err := (core.Simplest{}).Choose(r, accepted); err != nil {
		return len(cands), err
	}
	return len(cands), nil
}

// overlayPipeline is the current delta-driven path, probes disabled so
// both modes judge exactly the generator candidates.
func overlayPipeline(db *storage.Database, v view.View, r core.Request) (int, error) {
	_, tr, err := core.TraceTranslate(db, v, nil, r, core.TraceOptions{Probes: false})
	if tr == nil {
		return 0, err
	}
	return len(tr.Candidates), err
}

// benchEntry is one benchmark mode's result row in the JSON report.
type benchEntry struct {
	Iterations       int     `json:"iterations"`
	Warmup           int     `json:"warmup"`
	Candidates       int64   `json:"candidates"`
	CandidatesPerSec float64 `json:"candidates_per_sec"`
	TranslateNsP50   int64   `json:"translate_ns_p50"`
	TranslateNsP99   int64   `json:"translate_ns_p99"`
	AllocsPerOp      uint64  `json:"allocs_per_op"`
}

var benchTranslateResults = map[string]benchEntry{}

// writeBenchTranslate rewrites BENCH_translate.json with every entry
// collected so far plus the overlay/clone speedups where both sides
// have run.
func writeBenchTranslate(b *testing.B) {
	b.Helper()
	out := map[string]interface{}{"benchmarks": benchTranslateResults}
	for _, pair := range []struct{ name, clone, overlay string }{
		{"speedup_sp_candidates_per_sec", "TranslateSP/clone", "TranslateSP/overlay"},
		{"speedup_spj_candidates_per_sec", "TranslateSPJ/clone", "TranslateSPJ/overlay"},
	} {
		c, okC := benchTranslateResults[pair.clone]
		o, okO := benchTranslateResults[pair.overlay]
		if okC && okO && c.CandidatesPerSec > 0 {
			out[pair.name] = o.CandidatesPerSec / c.CandidatesPerSec
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_translate.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// runTranslateBench drives one mode over the request stream, measuring
// per-iteration latency, candidate throughput and allocations.
func runTranslateBench(b *testing.B, name string, db *storage.Database, v view.View,
	reqs []core.Request, pipeline func(*storage.Database, view.View, core.Request) (int, error)) {
	b.Helper()
	b.ReportAllocs()
	// Warm up before measuring: the first iterations pay one-time costs
	// (lazy map growth, allocator and cache warmup) that previously
	// landed in the timed run and skewed the p99 to ~35× the p50.
	warmup := 4
	if warmup > len(reqs) {
		warmup = len(reqs)
	}
	for i := 0; i < warmup; i++ {
		if _, err := pipeline(db, v, reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
	lats := make([]int64, 0, b.N)
	var candidates int64
	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		n, err := pipeline(db, v, reqs[i%len(reqs)])
		if err != nil {
			b.Fatal(err)
		}
		lats = append(lats, int64(time.Since(t0)))
		candidates += int64(n)
	}
	b.StopTimer()
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&msAfter)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	quantile := func(q float64) int64 {
		if len(lats) == 0 {
			return 0
		}
		idx := int(q * float64(len(lats)-1))
		return lats[idx]
	}
	perSec := 0.0
	if elapsed > 0 {
		perSec = float64(candidates) / elapsed
	}
	benchTranslateResults[name] = benchEntry{
		Iterations:       b.N,
		Warmup:           warmup,
		Candidates:       candidates,
		CandidatesPerSec: perSec,
		TranslateNsP50:   quantile(0.50),
		TranslateNsP99:   quantile(0.99),
		AllocsPerOp:      (msAfter.Mallocs - msBefore.Mallocs) / uint64(b.N),
	}
	b.ReportMetric(perSec, "candidates/s")
	writeBenchTranslate(b)
}

// spBenchRequests pre-generates a fixed request stream on
// BenchmarkObsPipeline's workload, shared by both modes.
func spBenchRequests(b *testing.B) (*workload.SPWorkload, []core.Request) {
	b.Helper()
	w := workload.MustNewSP(workload.SPConfig{
		Keys: 400, Attrs: 4, DomainSize: 6,
		SelectingAttrs: 2, HiddenAttrs: 2, Tuples: 200, Seed: 21,
	})
	kinds := []update.Kind{update.Insert, update.Delete, update.Replace}
	var reqs []core.Request
	for i := 0; len(reqs) < 60 && i < 600; i++ {
		if r, ok := w.NextRequest(kinds[i%len(kinds)]); ok {
			reqs = append(reqs, r)
		}
	}
	if len(reqs) == 0 {
		b.Fatal("no requests")
	}
	return w, reqs
}

// BenchmarkTranslateSP compares the two modes on the SP workload of
// BenchmarkObsPipeline.
func BenchmarkTranslateSP(b *testing.B) {
	w, reqs := spBenchRequests(b)
	b.Run("clone", func(b *testing.B) {
		runTranslateBench(b, "TranslateSP/clone", w.DB, w.View, reqs, clonePipeline)
	})
	b.Run("overlay", func(b *testing.B) {
		runTranslateBench(b, "TranslateSP/overlay", w.DB, w.View, reqs, overlayPipeline)
	})
}

// spjBenchRequests pre-generates deletes, root-payload replaces and
// fresh-root inserts on a depth-2 reference tree.
func spjBenchRequests(b *testing.B) (*workload.TreeWorkload, []core.Request) {
	b.Helper()
	w := workload.MustNewTree(workload.TreeConfig{
		Depth: 2, Fanout: 2, Keys: 300, TuplesPerRelation: 80, Seed: 7,
	})
	payloadAttr := "P0"
	var reqs []core.Request
	for i := 0; len(reqs) < 30 && i < 300; i++ {
		switch i % 3 {
		case 0:
			if r, ok := w.InsertRequestForFreshRoot(); ok {
				reqs = append(reqs, r)
			}
		case 1:
			if row, ok := w.RandomRow(); ok {
				reqs = append(reqs, core.DeleteRequest(row))
			}
		default:
			if row, ok := w.RandomRow(); ok {
				old := row.MustGet(payloadAttr).Int()
				nu := row.MustWith(payloadAttr, value.NewInt((old+1)%100))
				reqs = append(reqs, core.ReplaceRequest(row, nu))
			}
		}
	}
	if len(reqs) == 0 {
		b.Fatal("no requests")
	}
	return w, reqs
}

// BenchmarkTranslateSPJ compares the two modes on the join-view tree
// workload.
func BenchmarkTranslateSPJ(b *testing.B) {
	w, reqs := spjBenchRequests(b)
	b.Run("clone", func(b *testing.B) {
		runTranslateBench(b, "TranslateSPJ/clone", w.DB, w.View, reqs, clonePipeline)
	})
	b.Run("overlay", func(b *testing.B) {
		runTranslateBench(b, "TranslateSPJ/overlay", w.DB, w.View, reqs, overlayPipeline)
	})
}
