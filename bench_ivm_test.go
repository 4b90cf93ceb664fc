package viewupdate

// Incremental view maintenance benchmarks: keeping a materialized SPJ
// view current across a non-root base-mutation stream, delta patching
// (storage reverse reference index + Join.DeltaForChange) against the
// full-rebuild baseline it replaced — and the serving side, read-heavy
// churn through the engine's view cache with and without delta
// patching on publish. Results land in BENCH_ivm.json. Run with:
//
//	go test -bench 'BenchmarkIVM' -run '^$' .

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"viewupdate/internal/schema"
	"viewupdate/internal/server"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/workload"
)

// ivmBenchEntry is one mode's result row in BENCH_ivm.json.
type ivmBenchEntry struct {
	Iterations  int     `json:"iterations"`
	Rows        int64   `json:"rows"`
	RowsPerSec  float64 `json:"rows_per_sec"`
	NsPerCommit int64   `json:"ns_per_commit"`
}

var benchIVMResults = map[string]ivmBenchEntry{}

// writeBenchIVM rewrites BENCH_ivm.json with every entry collected so
// far plus the patch/rebuild speedups where both sides have run.
func writeBenchIVM(b *testing.B) {
	b.Helper()
	out := map[string]interface{}{"benchmarks": benchIVMResults}
	for _, pair := range []struct{ name, baseline, ivm string }{
		{"speedup_maintain_rows_per_sec", "IVMMaintain/rebuild", "IVMMaintain/patch"},
		{"speedup_serve_rows_per_sec", "IVMServe/noivm", "IVMServe/ivm"},
	} {
		base, okB := benchIVMResults[pair.baseline]
		ivm, okI := benchIVMResults[pair.ivm]
		if okB && okI && base.RowsPerSec > 0 {
			out[pair.name] = ivm.RowsPerSec / base.RowsPerSec
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_ivm.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

func recordIVM(b *testing.B, name string, rows int64, elapsed time.Duration) {
	b.Helper()
	perSec := 0.0
	if elapsed > 0 {
		perSec = float64(rows) / elapsed.Seconds()
	}
	nsPer := int64(0)
	if b.N > 0 {
		nsPer = elapsed.Nanoseconds() / int64(b.N)
	}
	benchIVMResults[name] = ivmBenchEntry{
		Iterations: b.N, Rows: rows, RowsPerSec: perSec, NsPerCommit: nsPer,
	}
	b.ReportMetric(perSec, "rows/s")
	writeBenchIVM(b)
}

// ivmTreeConfig sizes the maintain-mode workload: a depth-2 fanout-2
// reference tree (7 relations) big enough that a full rebuild per
// commit clearly dominates a delta patch.
var ivmTreeConfig = workload.TreeConfig{
	Depth: 2, Fanout: 2, Keys: 4000, TuplesPerRelation: 1200, Seed: 29,
}

// nonRootReplace builds the i-th payload replace against a non-root
// relation, resolving the current tuple by key so the stream stays
// applicable as the database evolves.
func nonRootReplace(w *workload.TreeWorkload, rng *rand.Rand, i int) *update.Translation {
	rels := w.Relations[1:]
	rel := rels[i%len(rels)]
	ts := w.DB.Tuples(rel.Name())
	cur := ts[rng.Intn(len(ts))]
	pAttr := rel.Attributes()[1]
	nu := int64(rng.Intn(100))
	if value.NewInt(nu) == cur.At(1) {
		nu = (nu + 1) % 100
	}
	return update.NewTranslation(update.NewReplace(cur, cur.MustWith(pAttr.Name, value.NewInt(nu))))
}

// BenchmarkIVMMaintain keeps the tree view's materialization current
// across a non-root payload-replace stream: "patch" applies
// Join.DeltaForChange to a copy-on-write clone of the maintained set
// (the production patch path), "rebuild" rematerializes after every
// commit. The reported rate is maintained view rows per second.
func BenchmarkIVMMaintain(b *testing.B) {
	b.Run("rebuild", func(b *testing.B) {
		w := workload.MustNewTree(ivmTreeConfig)
		rng := rand.New(rand.NewSource(31))
		var rows int64
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			tr := nonRootReplace(w, rng, i)
			if err := w.DB.Apply(tr); err != nil {
				b.Fatal(err)
			}
			maintained := w.View.Materialize(w.DB)
			rows += int64(maintained.Len())
		}
		b.StopTimer()
		recordIVM(b, "IVMMaintain/rebuild", rows, time.Since(start))
	})
	b.Run("patch", func(b *testing.B) {
		w := workload.MustNewTree(ivmTreeConfig)
		rng := rand.New(rand.NewSource(31))
		maintained := w.View.Materialize(w.DB)
		var rows int64
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			tr := nonRootReplace(w, rng, i)
			ov := storage.NewOverlay(w.DB)
			if err := ov.Apply(tr); err != nil {
				b.Fatal(err)
			}
			rem, add := w.View.DeltaForChange(w.DB, ov, tr.Removed().Slice(), tr.Added().Slice())
			if rem.Len() > 0 || add.Len() > 0 {
				next := maintained.Clone() // copy-on-write, as the server cache does
				for _, r := range rem.Slice() {
					next.Remove(r)
				}
				for _, r := range add.Slice() {
					next.Add(r)
				}
				maintained = next
			}
			if err := w.DB.Apply(tr); err != nil {
				b.Fatal(err)
			}
			rows += int64(maintained.Len())
		}
		b.StopTimer()
		elapsed := time.Since(start)
		if !maintained.Equal(w.View.Materialize(w.DB)) {
			b.Fatal("patched set diverged from rebuild")
		}
		recordIVM(b, "IVMMaintain/patch", rows, elapsed)
	})
}

// ivmServeScript is the serving workload schema: join view J over root
// CXD referencing AB.
const ivmServeScript = `
CREATE DOMAIN AKey AS INT RANGE 1 TO 100000;
CREATE DOMAIN Pay AS INT RANGE 0 TO 999;
CREATE DOMAIN CKey AS INT RANGE 1 TO 100000;
CREATE TABLE AB (A AKey, B Pay, PRIMARY KEY (A));
CREATE TABLE CXD (C CKey, X AKey, D Pay, PRIMARY KEY (C),
                  FOREIGN KEY (X) REFERENCES AB);
CREATE VIEW ABV AS SELECT * FROM AB;
CREATE VIEW CXDV AS SELECT * FROM CXD;
CREATE JOIN VIEW J ROOT CXDV WITH CXDV (X) REFERENCES ABV;
`

// newServeBenchEngine builds a memory-only engine, seeds nTuples per
// relation through one group commit, and returns it with the AB
// relation schema and its seeded keys.
func newServeBenchEngine(b *testing.B, nTuples int) (*server.Engine, *schema.Relation, []int64) {
	b.Helper()
	e, err := server.NewEngine(server.Config{MaxInFlight: 64, MaxBatch: 32}, ivmServeScript)
	if err != nil {
		b.Fatal(err)
	}
	db, _ := e.Snapshot()
	ab, cxd := db.Schema().Relation("AB"), db.Schema().Relation("CXD")
	rng := rand.New(rand.NewSource(37))
	seed := update.NewTranslation()
	keys := make([]int64, nTuples)
	for i := 0; i < nTuples; i++ {
		keys[i] = int64(i + 1)
		seed.Add(update.NewInsert(tuple.MustNew(ab,
			value.NewInt(keys[i]), value.NewInt(int64(rng.Intn(1000))))))
	}
	for i := 0; i < nTuples; i++ {
		seed.Add(update.NewInsert(tuple.MustNew(cxd,
			value.NewInt(int64(i+1)), value.NewInt(keys[rng.Intn(nTuples)]), value.NewInt(int64(rng.Intn(1000))))))
	}
	if _, err := e.Commit(context.Background(), seed, false, 0); err != nil {
		b.Fatal(err)
	}
	return e, ab, keys
}

// runServeBench is one serving mode: each iteration lands one non-root
// payload replace through the commit pipeline, then serves a burst of
// reads of every view through the cache. The reported rate is view
// rows served per second. invalidate is the baseline: an empty admin
// script after each commit republishes at a bumped version that no
// delta patch carries the cache to, so the first read of every view
// rematerializes — invalidate-on-publish, what serving was before IVM.
func runServeBench(b *testing.B, name string, invalidate bool) {
	const nTuples = 1500
	const readsPerCommit = 8
	e, ab, keys := newServeBenchEngine(b, nTuples)
	defer e.Close()
	rng := rand.New(rand.NewSource(41))
	probeFor := func(k int64) tuple.T {
		return tuple.MustNew(ab, value.NewInt(k), value.NewInt(0))
	}
	var rows int64
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		db, _ := e.Snapshot()
		cur, ok := db.LookupKey(probeFor(keys[rng.Intn(len(keys))]))
		if !ok {
			b.Fatal("seeded AB tuple vanished")
		}
		nu := cur.MustWith("B", value.NewInt(int64(rng.Intn(1000))))
		if nu.Equal(cur) {
			continue
		}
		tr := update.NewTranslation(update.NewReplace(cur, nu))
		if _, err := e.Commit(context.Background(), tr, false, 0); err != nil {
			b.Fatal(err)
		}
		if invalidate {
			if _, err := e.ExecScript(""); err != nil {
				b.Fatal(err)
			}
		}
		for r := 0; r < readsPerCommit; r++ {
			for _, vn := range []string{"J", "ABV"} {
				set, _, err := e.ReadView(vn)
				if err != nil {
					b.Fatal(err)
				}
				rows += int64(set.Len())
			}
		}
	}
	b.StopTimer()
	recordIVM(b, name, rows, time.Since(start))
}

// BenchmarkIVMServe measures read-heavy serve churn: commits
// interleaved with read bursts, with the view cache delta-patched on
// publish ("ivm") against invalidate-on-publish ("noivm", see
// runServeBench).
func BenchmarkIVMServe(b *testing.B) {
	b.Run("noivm", func(b *testing.B) { runServeBench(b, "IVMServe/noivm", true) })
	b.Run("ivm", func(b *testing.B) { runServeBench(b, "IVMServe/ivm", false) })
}
