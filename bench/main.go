// Command bench is the repository's benchmark: it builds cmd/vuserved,
// runs it as a child process per workload, drives it over loopback HTTP
// in a closed loop, checks every reply and the final state against a
// client-side model, and prints every metric by name with its unit. A
// traced mode times the public functions of each layer from outside so
// the per-layer numbers can be reconciled with the wire figure. See
// README.md.
//
// Usage (from the repository root):
//
//	go run -C bench .                          # every workload, end-to-end metrics
//	go run -C bench . -trace 1                 # every workload, per-layer metrics
//	go run -C bench . -workload sp_large_mixed -seed 2 -seconds 25
//	go run -C bench . -quick                   # 1 s windows, 50 traced ops, all checks
//	go run -C bench . -selfcheck               # the full set twice; must agree within bounds
//	bash bench/run.sh --workload ... --seed ... --seconds ... --trace 0|1   # the driver's form
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "workload seed; the server only ever sees the generated requests")
	seconds := flag.Int("seconds", 25, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	quick := flag.Bool("quick", false, "smoke run: 1 s windows, 50 traced ops, every correctness check, both metric sets")
	selfcheck := flag.Bool("selfcheck", false, "run the full set twice and fail if an end-to-end metric differs by more than its bound")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-quick] [-selfcheck]")
		return 2
	}
	ws := workloads()
	if *name != "" {
		var named []*workload
		for _, w := range ws {
			if w.name == *name {
				named = append(named, w)
			}
		}
		if named == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		ws = named
	}

	// SIGINT and SIGTERM cancel the context; every loop below watches
	// it, so the deferred clean-up in runWorkload still runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := configFor(*seed, time.Duration(*seconds)*time.Second, *trace == 1, *quick)
	bin, err := buildServer(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *selfcheck {
		return selfCheck(ctx, ws, cfg, bin)
	}
	code := 0
	for _, w := range ws {
		res, err := runWorkload(ctx, w, cfg, bin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printResult(res, cfg, *quick)
		if !res.correct() {
			code = 1
		}
	}
	return code
}

// configFor derives a run's shape from the flags. A traced run spends
// its seconds on a shorter wire window (the /metrics deltas and the
// restart timing need one) and on the in-process passes.
func configFor(seed int64, seconds time.Duration, trace, quick bool) runConfig {
	cfg := runConfig{seed: seed, warmup: 3 * time.Second, window: seconds, setups: 5}
	if trace {
		cfg.trace, cfg.setups, cfg.traceOps = true, 1, 300
		cfg.window = seconds * 3 / 10
		cfg.traceBudget = seconds * 9 / 20
	}
	if quick {
		cfg = runConfig{seed: seed, warmup: 200 * time.Millisecond, window: time.Second, setups: 1,
			trace: true, traceOps: 50, traceBudget: 3 * time.Second}
	}
	return cfg
}

// printResult prints one workload's metrics for people, then the one
// JSON line the driver reads.
func printResult(res *result, cfg runConfig, both bool) {
	res.env.print()
	fmt.Printf("%s: seed=%d clients=%d closed-loop warmup=%s window=%s\n", res.workload, cfg.seed, clients, cfg.warmup, cfg.window)
	fmt.Printf("%s: attempted=%d failed=%d samples: updates=%d reads=%d generator_cpu=%.2f cores\n",
		res.workload, res.attempted, res.failed, res.updates, res.reads, res.genCPU)
	fmt.Printf("%s: box speed: %.3fx slower than the reference during the window (speed probe, %d samples); end-to-end timings are scaled to the reference, the measured ones follow in brackets\n",
		res.workload, res.speed, res.probeN)
	fmt.Printf("%s: printed, not judged (a bad minute of the disk moves them severalfold): update_p99_ms=%.3f update_p999_ms=%.3f read_p99_ms=%.3f read_p999_ms=%.3f stale_reads=%.0f\n",
		res.workload, res.metrics["wire.update_p99_ms"], res.updP999, res.metrics["wire.read_p99_ms"], res.rdP999, res.metrics["server.stale_reads"])
	for _, n := range res.notes {
		fmt.Printf("%s: note: %s\n", res.workload, n)
	}
	if cpf := res.metrics["server.commits_per_fsync"]; cpf > 0 && cpf < 1.5 {
		fmt.Printf("%s: note: %d clients cannot fill a group-commit batch (commits per fsync ~1), so no workload here shows a batching gain\n",
			res.workload, clients)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if both {
			defs = append(append([]metricDef(nil), endToEnd...), perLayer...)
		}
	}
	out := map[string]any{}
	for _, d := range defs {
		v := res.metrics[d.name]
		if raw, ok := res.raw[d.name]; ok {
			fmt.Printf("%s: %-34s %14.4f %-6s [%.4f]\n", res.workload, d.name, v, d.unit, raw)
		} else {
			fmt.Printf("%s: %-34s %14.4f %s\n", res.workload, d.name, v, d.unit)
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, p := range res.problems {
		fmt.Printf("%s: FAILED CHECK: %s\n", res.workload, p)
	}
	attempted := res.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, _ := json.Marshal(map[string]any{
		"correct": res.correct(), "attempted": attempted, "failed": res.failed, "metrics": out,
	})
	fmt.Println(string(line))
}

// selfCheck runs every workload twice on the same build and compares
// the end-to-end metrics: a benchmark that disagrees with itself by
// more than its bounds cannot judge a change.
func selfCheck(ctx context.Context, ws []*workload, cfg runConfig, bin string) int {
	cfg.trace = false
	code := 0
	for _, w := range ws {
		var runs [2]*result
		for i := range runs {
			res, err := runWorkload(ctx, w, cfg, bin)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if !res.correct() {
				printResult(res, cfg, false)
				return 1
			}
			runs[i] = res
		}
		for _, d := range endToEnd {
			a, b := runs[0].metrics[d.name], runs[1].metrics[d.name]
			diff := math.Abs(b-a) / a
			verdict := "ok"
			if diff > d.bound {
				verdict, code = "OUTSIDE BOUND", 1
			}
			fmt.Printf("%s: %-22s run1=%12.4f run2=%12.4f %s diff=%5.1f%% bound=%4.1f%% %s\n",
				w.name, d.name, a, b, d.unit, 100*diff, 100*d.bound, verdict)
		}
	}
	return code
}
