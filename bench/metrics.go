package main

import (
	"math"
	"sort"
)

// A metricDef names one number the benchmark reports. bound is the
// share of the parent's median by which an end-to-end metric may get
// worse before a change counts as a regression; per-layer metrics have
// none. BENCHMARK.json carries the same tables (see TestBenchmarkJSON).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is what a client of vuserved sees. All but setup_s are
// reported at reference speed: as measured, divided by how much slower
// than the reference the speed probe found the box during the window
// (probe.go; README, The box). Every bound is the largest the driver
// allows. The box changes speed by a third over minutes; ten runs of one
// build, one per seed, spread by 4-29% of their median as measured and by
// 2-14% at reference speed, the widest on the durable workloads' p90 and
// rate when the shared disk has a bad minute, which no probe of the CPU
// sees. None of that carries the 10% the issue asked for, and a bound
// has to be about three times the spread it sits on.
//
// Two things the issue listed are per-layer metrics instead. The tail is
// p90 here and p99 there (wire.*_p99_ms): in the disk's bad minutes the
// p99 of a durable workload triples while p50 moves by 5%, and two such
// runs in ten put the p99's spread past any bound. disk_bytes_per_update
// is persist.disk_bytes_per_update: the in-memory workloads write no
// bytes, and every run has to report every end-to-end metric as a
// non-zero number.
var endToEnd = []metricDef{
	{"update_rps", "1/s", "higher", 0.25},
	{"update_p50_ms", "ms", "lower", 0.25},
	{"update_p90_ms", "ms", "lower", 0.25},
	{"read_rps", "1/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p90_ms", "ms", "lower", 0.25},
	{"server_cpu_ms_per_op", "ms/op", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the traced run's output, one group per package of the
// repository. A value of 0 on a time or a byte count means the layer is
// not on that workload's path (wal, persist and shard on the in-memory
// workloads; shard on the unsharded ones).
var perLayer = []metricDef{
	{"wire.update_p99_ms", "ms", "lower", 0},
	{"wire.read_p99_ms", "ms", "lower", 0},
	{"http.roundtrip.p50_us", "us", "lower", 0},
	{"http.self_p50_us", "us", "lower", 0},
	{"server.handler.p50_us", "us", "lower", 0},
	{"server.handler.self_p50_us", "us", "lower", 0},
	{"server.translate.p50_us", "us", "lower", 0},
	{"server.translate.self_p50_us", "us", "lower", 0},
	{"server.commit.p50_us", "us", "lower", 0},
	{"server.commit.p99_us", "us", "lower", 0},
	{"server.commit.self_p50_us", "us", "lower", 0},
	{"server.read_point.p50_us", "us", "lower", 0},
	{"server.read_full.p50_us", "us", "lower", 0},
	{"server.viewcache.hit_ratio", "ratio", "higher", 0},
	{"server.ivm.rebuilds", "count", "lower", 0},
	{"server.commits_per_fsync", "ratio", "higher", 0},
	{"server.stale_reads", "count", "lower", 0},
	{"core.enumerate.p50_us", "us", "lower", 0},
	{"core.candidates_per_request", "count", "lower", 0},
	{"core.verify.p50_us", "us", "lower", 0},
	{"core.accepted_ratio", "ratio", "higher", 0},
	{"view.materialize.p50_us", "us", "lower", 0},
	{"view.rows", "count", "lower", 0},
	{"view.delta.p50_us", "us", "lower", 0},
	{"storage.cow_apply.p50_us", "us", "lower", 0},
	{"storage.overlay_apply.p50_us", "us", "lower", 0},
	{"storage.base_rows_end", "count", "lower", 0},
	{"storage.leaked_rows_per_replace", "ratio", "lower", 0},
	{"wal.encode.p50_us", "us", "lower", 0},
	{"wal.append.p50_us", "us", "lower", 0},
	{"wal.fsync.p50_us", "us", "lower", 0},
	{"wal.fsync.p99_us", "us", "lower", 0},
	{"wal.bytes_per_commit", "bytes", "lower", 0},
	{"persist.apply.p50_us", "us", "lower", 0},
	{"persist.recovery_us_per_commit", "us", "lower", 0},
	{"persist.checkpoint_ms", "ms", "lower", 0},
	{"persist.disk_bytes_per_update", "bytes", "lower", 0},
	{"shard.classify.p50_us", "us", "lower", 0},
	{"shard.cross_fraction", "ratio", "lower", 0},
	{"shard.commit_cross.p50_us", "us", "lower", 0},
	{"sqlish.parse.p50_us", "us", "lower", 0},
	{"sqlish.init_script_ms", "ms", "lower", 0},
	{"trace.reconcile_gap_frac", "ratio", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// quantile returns the q-quantile (nearest rank) of an ascending
// slice, 0 when it is empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }
