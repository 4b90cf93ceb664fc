// Command vuload is a wire-level load generator for vuserved: it
// drives N concurrent HTTP clients through an insert/replace/delete
// view-update workload against disjoint key partitions, measures
// client-side latency, and emits BENCH_server.json with throughput,
// p50/p99/p999 latency, conflict/overload rates, EMP's final row
// count, the server's group-commit counters (commits per fsync) and
// the server-side per-stage pipeline breakdown (translate/verify/
// queue/commit/fsync/publish), both scraped from the Prometheus
// /metrics endpoint before and after the run. Read scale-out across followers is measured by
// BenchmarkReplicaScale (make bench-replica), not here.
//
// Usage:
//
//	vuload -addr http://localhost:8080 -clients 8 -requests 200
//	vuload -addr ... -min-batch-p99 4 -min-commits-per-sync 4  # group-commit floors
//	vuload -addr ... -chaos              # crash-contract mode (make chaos-soak)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"viewupdate/internal/obs"
)

// benchReport is the BENCH_server.json shape.
type benchReport struct {
	Config     benchConfig           `json:"config"`
	ElapsedNS  int64                 `json:"elapsed_ns"`
	Sent       int64                 `json:"sent"`
	OK         int64                 `json:"ok"`
	Conflicts  int64                 `json:"conflicts"`
	Overloaded int64                 `json:"overloaded"`
	Rejected   int64                 `json:"rejected"`
	Failed     int64                 `json:"failed"`
	Throughput float64               `json:"throughput_rps"`
	Latency    obs.HistogramSnapshot `json:"latency_ns"`
	Rates      benchRates            `json:"rates"`
	// BaseRowsEnd is EMP's cardinality after the run. Every client
	// deletes what it inserted, so it is 0 unless a translation left
	// rows behind in the base.
	BaseRowsEnd int64       `json:"base_rows_end"`
	Client      clientStats `json:"client"`
	Server      serverStats `json:"server"`
}

// benchConfig records everything needed to compare runs across PRs:
// the workload shape plus the server build's batching knobs and
// GOMAXPROCS, scraped from /healthz at run start.
type benchConfig struct {
	Addr       string `json:"addr"`
	Clients    int    `json:"clients"`
	Requests   int    `json:"requests_per_client"`
	Keys       int64  `json:"keys"`
	Seed       int64  `json:"seed"`
	MaxBatch   int    `json:"max_batch"`
	BatchDelay int64  `json:"batch_delay_ns"`
	GoMaxProcs int    `json:"server_gomaxprocs"`
}

// clientStats is the connection-reuse evidence from httptrace: a
// healthy keep-alive run dials about one connection per client and
// reuses it for everything else. A reuse fraction near zero means the
// client is paying a dial (and its latency) per request and the
// throughput number measures the dialer, not the server.
type clientStats struct {
	ConnsDialed   int64   `json:"conns_dialed"`
	ConnsReused   int64   `json:"conns_reused"`
	ReuseFraction float64 `json:"reuse_fraction"`
}

// connCounts feeds clientStats; GotConn fires once per request with
// the connection's provenance.
var connCounts struct{ dialed, reused atomic.Int64 }

var connTrace = &httptrace.ClientTrace{
	GotConn: func(info httptrace.GotConnInfo) {
		if info.Reused {
			connCounts.reused.Add(1)
		} else {
			connCounts.dialed.Add(1)
		}
	},
}

type benchRates struct {
	Conflict float64 `json:"conflict"`
	Overload float64 `json:"overload"`
}

// serverStats is the group-commit evidence, as deltas of the server's
// obs counters across the run, plus the per-stage pipeline latency
// breakdown scraped from /metrics.
type serverStats struct {
	WALSyncs       int64   `json:"wal_syncs"`
	Commits        int64   `json:"commits"`
	Batches        int64   `json:"batches"`
	CommitsPerSync float64 `json:"commits_per_sync"`
	BatchSizeP99   int64   `json:"batch_size_p99"`
	BatchSizeMax   int64   `json:"batch_size_max"`
	// Sharded servers (vuserved -shards N) additionally report the
	// cross-shard commit count and the per-shard commit distribution,
	// so a load run shows both the 2PC fraction and hot-shard skew.
	CrossCommits int64                     `json:"cross_commits,omitempty"`
	ShardCommits []int64                   `json:"shard_commits,omitempty"`
	Stages       map[string]stageBreakdown `json:"stages"`
}

// stageBreakdown is one pipeline stage's server-side latency summary:
// the observation count is the delta across the run; the quantiles are
// from the closing scrape (the run dominates them on a fresh server).
type stageBreakdown struct {
	Count  int64 `json:"count"`
	P50NS  int64 `json:"p50_ns"`
	P90NS  int64 `json:"p90_ns"`
	P99NS  int64 `json:"p99_ns"`
	P999NS int64 `json:"p999_ns"`
}

// pipelineStages are the stage families reported in the breakdown, in
// pipeline order.
var pipelineStages = []string{"translate", "verify", "queue", "commit", "fsync", "publish"}

// counters aggregates client-side outcomes.
type counters struct {
	sent, ok, conflicts, overloaded, rejected, failed atomic.Int64
}

// keys is the size of the bench key domain, partitioned across the
// clients.
const keys = 100000

// chaosOpTimeout is chaos mode's per-operation retry budget; it must
// cover the server outage.
const chaosOpTimeout = 60 * time.Second

func main() {
	addr := flag.String("addr", "http://localhost:8080", "vuserved base URL")
	clients := flag.Int("clients", 8, "concurrent clients")
	requests := flag.Int("requests", 200, "requests per client")
	seed := flag.Int64("seed", 1, "workload seed")
	out := flag.String("out", "BENCH_server.json", "report path")
	chaos := flag.Bool("chaos", false, "chaos mode: idempotent keyed inserts, retry-through-outage, ack verification; writes BENCH_chaos.json")
	minBatchP99 := flag.Int64("min-batch-p99", 0, "exit 1 unless the server's batch_size_p99 reaches this")
	minCommitsPerSync := flag.Float64("min-commits-per-sync", 0, "exit 1 unless commits/fsync reaches this")
	flag.Parse()

	// One keep-alive pool sized for the clients: the default transport
	// caps idle connections at 2 per host, so anything beyond 2 clients
	// would dial (and slow-start) on nearly every request.
	hc := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        2 * *clients,
			MaxIdleConnsPerHost: 2 * *clients,
			IdleConnTimeout:     90 * time.Second,
		},
	}
	if err := runSetup(hc, *addr); err != nil {
		fmt.Fprintln(os.Stderr, "setup:", err)
		os.Exit(1)
	}

	if *chaos {
		dest := *out
		if dest == "BENCH_server.json" {
			dest = "BENCH_chaos.json"
		}
		os.Exit(runChaos(*addr, *clients, *requests, *seed, dest))
	}

	before, err := scrapeProm(hc, *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metrics:", err)
		os.Exit(1)
	}
	lat := obs.NewHistogram()
	var cnt counters
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			runClient(hc, *addr, id, *clients, *requests, *seed, lat, &cnt)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := scrapeProm(hc, *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metrics:", err)
		os.Exit(1)
	}

	cfg := benchConfig{
		Addr: *addr, Clients: *clients, Requests: *requests,
		Keys: keys, Seed: *seed,
	}
	if h, err := scrapeHealth(hc, *addr); err == nil {
		cfg.MaxBatch, cfg.BatchDelay, cfg.GoMaxProcs = h.MaxBatch, h.BatchDelayNS, h.GoMaxProcs
	} else {
		fmt.Fprintln(os.Stderr, "healthz:", err)
	}
	rep := buildReport(cfg, elapsed, lat, &cnt, before, after)
	rep.Server.Stages = stageBreakdowns(before, after)
	// The SELECT's output ends in "(N rows)".
	rows, err := execz(hc, *addr, "SELECT * FROM EMP;")
	if err == nil {
		_, err = fmt.Sscanf(rows[strings.LastIndex(rows, "(")+1:], "%d rows)", &rep.BaseRowsEnd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "base rows:", err)
		os.Exit(1)
	}
	rep.Client.ConnsDialed = connCounts.dialed.Load()
	rep.Client.ConnsReused = connCounts.reused.Load()
	if total := rep.Client.ConnsDialed + rep.Client.ConnsReused; total > 0 {
		rep.Client.ReuseFraction = float64(rep.Client.ConnsReused) / float64(total)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "encoding report:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "writing report:", err)
		os.Exit(1)
	}
	fmt.Printf("vuload: %d ok / %d sent in %s (%.0f req/s), p50 %s p99 %s p999 %s, %.2f commits/fsync\n",
		rep.OK, rep.Sent, elapsed.Round(time.Millisecond), rep.Throughput,
		time.Duration(rep.Latency.P50), time.Duration(rep.Latency.P99),
		time.Duration(rep.Latency.P999), rep.Server.CommitsPerSync)
	fmt.Printf("vuload: conns dialed %d reused %d (%.1f%% reuse), batch p99 %d max %d\n",
		rep.Client.ConnsDialed, rep.Client.ConnsReused, 100*rep.Client.ReuseFraction,
		rep.Server.BatchSizeP99, rep.Server.BatchSizeMax)
	for _, name := range pipelineStages {
		if st, ok := rep.Server.Stages[name]; ok && st.Count > 0 {
			fmt.Printf("vuload:   stage %-9s n=%-6d p50 %-10s p99 %s\n",
				name, st.Count, time.Duration(st.P50NS), time.Duration(st.P99NS))
		}
	}
	if *minBatchP99 > 0 && rep.Server.BatchSizeP99 < *minBatchP99 {
		fmt.Fprintf(os.Stderr, "vuload: batch_size_p99 %d below floor %d\n", rep.Server.BatchSizeP99, *minBatchP99)
		os.Exit(1)
	}
	if *minCommitsPerSync > 0 && rep.Server.CommitsPerSync < *minCommitsPerSync {
		fmt.Fprintf(os.Stderr, "vuload: %.2f commits/fsync below floor %.2f\n", rep.Server.CommitsPerSync, *minCommitsPerSync)
		os.Exit(1)
	}
}

// healthKnobs is the slice of /healthz this tool records into the
// bench config block.
type healthKnobs struct {
	MaxBatch     int   `json:"max_batch"`
	BatchDelayNS int64 `json:"batch_delay_ns"`
	GoMaxProcs   int   `json:"gomaxprocs"`
}

// scrapeHealth fetches the server's batching knobs from /healthz.
func scrapeHealth(hc *http.Client, addr string) (healthKnobs, error) {
	var h healthKnobs
	resp, err := hc.Get(addr + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	return h, json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h)
}

func buildReport(cfg benchConfig, elapsed time.Duration, lat *obs.Histogram, cnt *counters, before, after map[string]float64) benchReport {
	rep := benchReport{
		Config:     cfg,
		ElapsedNS:  int64(elapsed),
		Sent:       cnt.sent.Load(),
		OK:         cnt.ok.Load(),
		Conflicts:  cnt.conflicts.Load(),
		Overloaded: cnt.overloaded.Load(),
		Rejected:   cnt.rejected.Load(),
		Failed:     cnt.failed.Load(),
		Latency:    lat.Stats(),
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.OK) / elapsed.Seconds()
	}
	if rep.Sent > 0 {
		rep.Rates.Conflict = float64(rep.Conflicts) / float64(rep.Sent)
		rep.Rates.Overload = float64(rep.Overloaded) / float64(rep.Sent)
	}
	delta := func(name string) int64 { return int64(after[name] - before[name]) }
	rep.Server = serverStats{
		WALSyncs: delta("wal_sync"),
		Commits:  delta("server_commit_committed"),
		Batches:  delta("server_commit_batches"),
	}
	if rep.Server.WALSyncs > 0 {
		rep.Server.CommitsPerSync = float64(rep.Server.Commits) / float64(rep.Server.WALSyncs)
	}
	rep.Server.BatchSizeP99 = int64(after["server_commit_batch_size|0.99"])
	rep.Server.BatchSizeMax = int64(after["server_commit_batch_size_max"])
	rep.Server.CrossCommits = delta("server_cross_commits")
	for i := 0; ; i++ {
		name := fmt.Sprintf("server_shard_%d_committed", i)
		if _, ok := after[name]; !ok {
			break
		}
		rep.Server.ShardCommits = append(rep.Server.ShardCommits, delta(name))
	}
	return rep
}

// runSetup creates the bench schema statement by statement, tolerating
// "already exists" (a durable store restarted under the same data dir
// keeps its tables; views are not durable and are always recreated).
func runSetup(hc *http.Client, addr string) error {
	stmts := []string{
		fmt.Sprintf("CREATE DOMAIN KeyDom AS INT RANGE 1 TO %d;", keys),
		"CREATE DOMAIN LocDom AS STRING ('New York', 'San Francisco', 'Austin');",
		"CREATE TABLE EMP (EmpNo KeyDom, Location LocDom, PRIMARY KEY (EmpNo));",
		"CREATE VIEW NY AS SELECT * FROM EMP WHERE Location = 'New York';",
	}
	for _, stmt := range stmts {
		if _, err := execz(hc, addr, stmt); err != nil && !strings.Contains(err.Error(), "already exists") {
			return err
		}
	}
	return nil
}

// execz runs one statement through /execz and returns its output.
func execz(hc *http.Client, addr, stmt string) (string, error) {
	body, _ := json.Marshal(map[string]string{"script": stmt})
	resp, err := hc.Post(addr+"/execz", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct{ Output, Error string }
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&out); err != nil {
		return "", fmt.Errorf("%s: %w", stmt, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: %s", stmt, out.Error)
	}
	return out.Output, nil
}

// scrapeProm fetches /metrics and parses the Prometheus text format
// into a flat map: plain samples under "name", quantile samples under
// "name|q" (e.g. "server_stage_commit_ns|0.99"). Comment lines and
// anything it does not understand are skipped.
func scrapeProm(hc *http.Client, addr string) (map[string]float64, error) {
	resp, err := hc.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		key := name
		if base, labels, hasLabels := strings.Cut(name, "{"); hasLabels {
			q, found := quantileLabel(strings.TrimSuffix(labels, "}"))
			if !found {
				continue
			}
			key = base + "|" + q
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			continue
		}
		out[key] = v
	}
	return out, nil
}

// quantileLabel extracts the quantile="..." value from a label set.
func quantileLabel(labels string) (string, bool) {
	for _, l := range strings.Split(labels, ",") {
		k, v, ok := strings.Cut(l, "=")
		if ok && strings.TrimSpace(k) == "quantile" {
			return strings.Trim(strings.TrimSpace(v), `"`), true
		}
	}
	return "", false
}

// stageBreakdowns folds the before/after Prometheus scrapes into the
// per-stage latency breakdown: counts as deltas across the run,
// quantiles from the closing scrape. Stages that saw no observations
// during the run are omitted.
func stageBreakdowns(before, after map[string]float64) map[string]stageBreakdown {
	out := map[string]stageBreakdown{}
	for _, name := range pipelineStages {
		fam := "server_stage_" + name + "_ns"
		n := int64(after[fam+"_count"] - before[fam+"_count"])
		if n <= 0 {
			continue
		}
		out[name] = stageBreakdown{
			Count:  n,
			P50NS:  int64(after[fam+"|0.5"]),
			P90NS:  int64(after[fam+"|0.9"]),
			P99NS:  int64(after[fam+"|0.99"]),
			P999NS: int64(after[fam+"|0.999"]),
		}
	}
	return out
}

// runClient drives one client's share of the workload: a rotation of
// insert → replace (move to a fresh key) → delete over the client's own
// key partition. 429 and 503 responses are retried on a per-client
// jittered backoff schedule seeded from the workload seed.
func runClient(hc *http.Client, addr string, id, clients, requests int, seed int64, lat *obs.Histogram, cnt *counters) {
	bo := newBackoff(50*time.Millisecond, 800*time.Millisecond, seed+int64(id))
	// The top 16 keys stay outside every partition, so each client's
	// keys match those of earlier BENCH_server.json runs.
	span := (keys - 16) / int64(clients)
	base := int64(id) * span
	next := base + 1
	var alive []int64

	fresh := func() (int64, bool) {
		if next > base+span {
			return 0, false
		}
		k := next
		next++
		return k, true
	}

	for n := 0; n < requests; n++ {
		var path string
		var body map[string]any
		switch n % 3 {
		case 0:
			k, ok := fresh()
			if !ok {
				continue
			}
			path = "/views/NY/insert"
			body = map[string]any{"values": []string{strconv.FormatInt(k, 10), "New York"}}
			alive = append(alive, k)
		case 1:
			if len(alive) == 0 {
				continue
			}
			k := alive[len(alive)-1]
			to, ok := fresh()
			if !ok {
				continue
			}
			path = "/views/NY/replace"
			body = map[string]any{
				"where": map[string]string{"EmpNo": strconv.FormatInt(k, 10)},
				"set":   map[string]string{"EmpNo": strconv.FormatInt(to, 10)},
			}
			alive[len(alive)-1] = to
		default:
			if len(alive) == 0 {
				continue
			}
			k := alive[len(alive)-1]
			alive = alive[:len(alive)-1]
			path = "/views/NY/delete"
			body = map[string]any{"where": map[string]string{"EmpNo": strconv.FormatInt(k, 10)}}
		}
		issue(hc, addr+path, body, lat, cnt, bo)
	}
	for _, k := range alive { // leave the base as it was found
		issue(hc, addr+"/views/NY/delete", map[string]any{"where": map[string]string{"EmpNo": strconv.FormatInt(k, 10)}}, lat, cnt, bo)
	}
}

// issue sends one update, classifying the outcome and retrying
// overloads (429) and brownouts (503) on the client's jittered backoff
// schedule (up to 3 attempts). The Retry-After hint floors each delay;
// full jitter on top keeps a burst of rejected clients from
// re-arriving in lockstep.
func issue(hc *http.Client, url string, body map[string]any, lat *obs.Histogram, cnt *counters, bo *backoff) {
	payload, _ := json.Marshal(body)
	for attempt := 0; ; attempt++ {
		cnt.sent.Add(1)
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
		if err != nil {
			cnt.failed.Add(1)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), connTrace))
		start := time.Now()
		resp, err := hc.Do(req)
		lat.Observe(int64(time.Since(start)))
		if err != nil {
			cnt.failed.Add(1)
			return
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			cnt.ok.Add(1)
			return
		case resp.StatusCode == http.StatusConflict:
			cnt.conflicts.Add(1)
			return
		case resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable:
			cnt.overloaded.Add(1)
			if attempt >= 2 {
				return
			}
			after, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			time.Sleep(bo.delay(attempt, time.Duration(after)*100*time.Millisecond))
		case resp.StatusCode == http.StatusBadRequest ||
			resp.StatusCode == http.StatusUnprocessableEntity ||
			resp.StatusCode == http.StatusNotFound:
			// Refused before translation (row gone or key taken).
			cnt.rejected.Add(1)
			return
		default:
			cnt.failed.Add(1)
			return
		}
	}
}
