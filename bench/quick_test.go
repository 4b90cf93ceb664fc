package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestQuick runs every workload the way `bench -quick` does — a 1 s
// wire window against a real vuserved child, every correctness check
// including kill -9 and restart, and 50 traced ops — so the benchmark
// cannot rot unnoticed. The workloads run side by side: quick numbers
// are not for reading.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("starts vuserved children; skipped with -short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	bin, err := buildServer(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Every exit path of runWorkload removes its scratch directory.
		entries, err := os.ReadDir(runDir)
		if err != nil {
			t.Error(err)
		}
		for _, e := range entries {
			for _, w := range workloads() {
				if strings.HasPrefix(e.Name(), w.name+"-") {
					t.Errorf("run left %s/%s behind", runDir, e.Name())
				}
			}
		}
	})
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(ctx, w, configFor(1, time.Second, false, true), bin)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.problems {
				t.Error(p)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("attempted=%d failed=%d", res.attempted, res.failed)
			}
			for _, d := range endToEnd {
				if res.metrics[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.metrics[d.name])
				}
			}
			// The layers a workload is built to leave out must read 0,
			// and the ones it is built to stress must not.
			for _, d := range perLayer {
				layer, _, _ := strings.Cut(d.name, ".")
				offPath := (layer == "wal" || layer == "persist") && !w.durable || layer == "shard" && w.shards == 0
				if v := res.metrics[d.name]; offPath && v != 0 {
					t.Errorf("%s = %v on a workload without that layer", d.name, v)
				} else if !offPath && v == 0 && strings.HasSuffix(d.name, "_us") {
					t.Errorf("%s = 0 on a workload with that layer", d.name)
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps the driver's contract file and the program's
// own tables from drifting apart.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the bench directory:", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}
	ws := workloads()
	if len(file.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(ws))
	}
	for i, w := range ws {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, file.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
}
