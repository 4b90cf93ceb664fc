package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A runConfig is one run's shape. The three modes differ only here.
type runConfig struct {
	seed   int64
	warmup time.Duration
	// window is the measured time. A workload without a reading client
	// spends a sixth of it in the read-back phase.
	window time.Duration
	// setups is how many times the server is booted, seeded and warmed
	// before the run that is kept; setup_s is the median.
	setups int
	// trace adds the in-process passes after the wire window, replaying
	// up to traceOps ops for at most traceBudget.
	trace       bool
	traceOps    int
	traceBudget time.Duration
}

// A result is everything one run of one workload measured.
type result struct {
	workload string
	// metrics holds every metric by name: the per-layer ones and setup_s
	// as measured, the other end-to-end ones at reference speed (see
	// speed). raw holds those as measured.
	metrics map[string]float64
	raw     map[string]float64
	// speed is how much slower than the reference the box ran during the
	// window, by the speed probe (probe.go); probeN is its sample count.
	speed     float64
	probeN    int
	attempted int
	failed    int
	updates   int     // samples behind update_*
	reads     int     // samples behind read_*
	updP999   float64 // printed, not a metric
	rdP999    float64
	genCPU    float64 // generator CPU, in cores, over the window
	problems  []string
	notes     []string // printed; not failures
	env       environment
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *result) problemf(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// Load phases. Clients run through them without pausing; an op is
// counted only if it starts and finishes inside one slice of one phase,
// and none is counted in phaseWarmup. The shared phase word holds the
// slice number above these two bits.
const (
	phaseWarmup int32 = iota
	phaseMeasure
	// phaseReadBack follows every acknowledged update with the point
	// read of the row it wrote. Only workloads without a reading client
	// go through it; their read metrics are these reads.
	phaseReadBack
	phaseStop
	phaseMask = 3
)

// A workload with a read-back phase alternates between the two phases,
// one slice of each per sliceEvery of the window. The box changes speed
// for seconds at a time (README, The box); one read-back phase at the
// end of the window would sit inside one such stretch, and the read
// metrics would spread twice as widely as the update metrics measured
// beside them. Slices are long against the slowest workload's 16 ms
// update+read pair, because the pair in flight when a slice ends is not
// counted. The read-back phase gets a sixth of the window, and at least
// minReadBack, so that a one-second -quick window still sees a few
// reads on that workload.
const (
	sliceEvery  = 5 * time.Second
	minReadBack = 400 * time.Millisecond
)

// A loadClient is one closed-loop caller on one keep-alive connection.
type loadClient struct {
	id        int
	hc        *http.Client
	base      string
	gen       generator
	model     *model
	phase     *atomic.Int32
	upd, rd   []time.Duration // latencies of the counted updates and reads
	attempted int
	failed    int
	firstErr  error
	// stale counts read-backs that did not show the update acknowledged
	// just before them; firstStale describes the first.
	stale      int
	firstStale error
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// request builds the HTTP request of an op against base.
func (o op) request(base string) (*http.Request, error) {
	if o.isRead() {
		q := url.Values{}
		for k, v := range o.Where {
			q.Set(k, v)
		}
		return http.NewRequest(http.MethodGet, base+"/views/"+o.View+"?"+q.Encode(), nil)
	}
	body, err := json.Marshal(struct {
		Values []string          `json:"values,omitempty"`
		Where  map[string]string `json:"where,omitempty"`
		Set    map[string]string `json:"set,omitempty"`
	}{o.Values, o.Where, o.Set})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/views/"+o.View+"/"+o.Kind, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// A wireReply is the union of the update and read reply bodies.
type wireReply struct {
	OK    bool       `json:"ok"`
	Ops   []string   `json:"ops"`
	Rows  [][]string `json:"rows"`
	Error string     `json:"error"`
}

// check folds a reply into the model: status, then the model's own
// verdict on what the server said it did or returned.
func (o op) check(m *model, status int, body []byte) error {
	var reply wireReply
	if err := json.Unmarshal(body, &reply); err != nil {
		return fmt.Errorf("%s %s: undecodable reply (status %d): %w", o.View, o.Step, status, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", o.View, o.Step, status, reply.Error)
	}
	if o.isRead() {
		return m.checkRead(o, reply.Rows)
	}
	return m.ackUpdate(o, reply.Ops)
}

// send sends one op and returns its latency, measured from just before
// the request is written until the whole reply body has arrived.
func (c *loadClient) send(o op) (d time.Duration, status int, body []byte, err error) {
	req, err := o.request(c.base)
	if err != nil {
		return 0, 0, nil, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	body, err = io.ReadAll(resp.Body)
	d = time.Since(start)
	resp.Body.Close()
	return d, resp.StatusCode, body, err
}

// do sends one op and checks the reply against the model.
func (c *loadClient) do(o op) (time.Duration, error) {
	d, status, body, err := c.send(o)
	if err != nil {
		return 0, err
	}
	return d, o.check(c.model, status, body)
}

// readBack reads the row the acknowledged update o wrote. A reply that
// does not show the update is counted as stale, not as a failed op: the
// sharded pipeline is known to allow it (README, Findings), and the
// count is what keeps that visible.
func (c *loadClient) readBack(o op) (time.Duration, error) {
	r := o.readback(c.model.cols[o.View][0])
	d, status, body, err := c.send(r)
	if err != nil {
		return 0, err
	}
	var reply wireReply
	if err := json.Unmarshal(body, &reply); err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("%s readback: status %d: %s", r.View, status, body)
	}
	if err := c.model.checkRead(r, reply.Rows); err != nil {
		if c.stale++; c.firstStale == nil {
			c.firstStale = fmt.Errorf("after %s: %w", o.Step, err)
		}
	}
	return d, nil
}

func (c *loadClient) run() {
	for {
		before := c.phase.Load()
		kind := before & phaseMask
		if kind == phaseStop {
			return
		}
		o := c.gen.next()
		d, err := c.do(o)
		var rb time.Duration
		if err == nil && kind == phaseReadBack {
			rb, err = c.readBack(o)
		}
		if err != nil {
			// A failed op leaves the model unsure of the key's state,
			// so the client stops: the run is already incorrect.
			c.attempted++
			c.failed++
			c.firstErr = err
			return
		}
		if kind == phaseWarmup || c.phase.Load() != before {
			continue
		}
		c.attempted++
		switch {
		case kind == phaseReadBack:
			c.attempted++
			c.rd = append(c.rd, rb)
		case o.isRead():
			c.rd = append(c.rd, d)
		default:
			c.upd = append(c.upd, d)
		}
	}
}

// latencyMS merges the clients' latencies, in milliseconds, ascending.
func latencyMS(clients []*loadClient, pick func(*loadClient) []time.Duration) []float64 {
	var out []float64
	for _, c := range clients {
		for _, d := range pick(c) {
			out = append(out, float64(d)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// A harness owns one workload's files and children for one run.
type harness struct {
	w        *workload
	bin      string
	dir      string // this run's scratch directory under runDir
	initPath string
	hc       *http.Client
	srv      *child
	dataDir  string
}

func (h *harness) serverArgs() []string {
	args := []string{"-init", h.initPath}
	if h.w.durable {
		args = append(args, "-data", h.dataDir)
	}
	return append(args, h.w.flags...)
}

// initScript is what -init runs: the DDL, plus the seeded rows where a
// restart never re-runs it over existing data.
func (w *workload) initScript() string {
	if w.durable {
		return w.ddl
	}
	return w.ddl + insertScript(w.seed)
}

// setup brings up a seeded server with a warm view cache and returns
// how long that took from exec: boot, the -init script, the seed, and
// the first read of each view the ops address.
func (h *harness) setup(ctx context.Context, n int) (time.Duration, error) {
	h.dataDir = filepath.Join(h.dir, fmt.Sprintf("data-%d", n))
	start := time.Now()
	srv, err := startChild(ctx, h.bin, h.serverArgs())
	if err != nil {
		return 0, err
	}
	h.srv = srv
	if h.w.durable && len(h.w.seed) > 0 {
		if err := srv.exec(h.hc, insertScript(h.w.seed)); err != nil {
			return 0, fmt.Errorf("seeding: %w", err)
		}
	}
	for _, v := range h.w.opViews {
		if _, err := readView(h.hc, srv.base, v); err != nil {
			return 0, fmt.Errorf("warming %s: %w", v, err)
		}
	}
	return time.Since(start), nil
}

// teardown kills the current child and removes its data.
func (h *harness) teardown() {
	h.srv.kill()
	h.srv = nil
	os.RemoveAll(h.dataDir)
}

// checkViews reads every view over the wire and compares it with the
// model.
func (h *harness) checkViews(m *model, res *result, when string) {
	for _, v := range h.w.views {
		rows, err := readView(h.hc, h.srv.base, v.name)
		if err != nil {
			res.problemf("%s: reading %s: %v", when, v.name, err)
			continue
		}
		for _, mm := range m.checkView(v.name, rows) {
			res.problemf("%s: view %s: %s", when, v.name, mm)
		}
	}
}

// A usage is a reading of the meters whose differences over the window
// become metrics; the zero usage accumulates such differences.
type usage struct {
	at    time.Time
	wall  time.Duration
	cpuMS float64       // the child's utime+stime
	disk  int64         // bytes under the data directory
	self  time.Duration // the generator's own CPU
}

func (h *harness) usage() (u usage, err error) {
	if u.cpuMS, err = h.srv.cpuMS(); err != nil {
		return u, err
	}
	if h.w.durable {
		if u.disk, err = dirBytes(h.dataDir); err != nil {
			return u, err
		}
	}
	u.self, u.at = selfCPU(), time.Now()
	return u, nil
}

// add accumulates what was used between two readings.
func (u *usage) add(from, to usage) {
	u.wall += to.at.Sub(from.at)
	u.cpuMS += to.cpuMS - from.cpuMS
	u.disk += to.disk - from.disk
	u.self += to.self - from.self
}

// runWorkload runs one workload once: set-up, warm-up, the measured
// window over the wire, the correctness checks, and in traced mode the
// in-process passes.
func runWorkload(ctx context.Context, w *workload, cfg runConfig, bin string) (res *result, err error) {
	res = &result{workload: w.name, metrics: map[string]float64{}, raw: map[string]float64{}}
	h := &harness{w: w, bin: bin, hc: newHTTPClient()}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	if h.dir, err = os.MkdirTemp(runDir, w.name+"-"); err != nil {
		return nil, err
	}
	// Whatever happens below — a failed check, a cancelled context, a
	// panic — the child is killed and reaped and its files are removed.
	defer func() {
		h.srv.kill()
		os.RemoveAll(h.dir)
	}()
	if res.env, err = probeEnvironment(h.dir); err != nil {
		return nil, err
	}
	h.initPath = filepath.Join(h.dir, "init.sql")
	if err := os.WriteFile(h.initPath, []byte(w.initScript()), 0o644); err != nil {
		return nil, err
	}

	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if i > 0 {
			h.teardown()
		}
		d, err := h.setup(ctx, i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	res.metrics["setup_s"] = median(setups)

	var health struct {
		GoMaxProcs int `json:"gomaxprocs"`
	}
	if err := getJSON(h.hc, h.srv.base+"/healthz", &health); err != nil {
		return nil, err
	}
	res.env.ServerMaxPro = health.GoMaxProcs

	mod := newModel(w)
	var phase atomic.Int32
	lcs := make([]*loadClient, clients)
	var wg sync.WaitGroup
	var panicked atomic.Value
	for i := range lcs {
		lcs[i] = &loadClient{id: i, hc: newHTTPClient(), base: h.srv.base, gen: w.newClient(cfg.seed, i), model: mod, phase: &phase}
		wg.Add(1)
		go func(c *loadClient) {
			defer wg.Done()
			// A panic on this goroutine would skip runWorkload's deferred
			// clean-up; hand it to the caller's goroutine instead.
			defer func() {
				if p := recover(); p != nil {
					panicked.Store(fmt.Sprint(p))
					phase.Store(phaseStop)
				}
			}()
			c.run()
		}(lcs[i])
	}
	sleep := func(d time.Duration) {
		select {
		case <-time.After(d):
		case <-ctx.Done():
		}
	}
	sleep(cfg.warmup)

	// The window is cut into slices, each followed by a slice of the
	// read-back phase where the workload has one; what the server and
	// the generator used is added up over the window's slices only.
	slices, window, readBack := 1, cfg.window, time.Duration(0)
	if w.readBack {
		slices = max(1, int(cfg.window/sliceEvery))
		readBack = max(cfg.window/6, minReadBack)
		window -= readBack
	}
	before, err := h.srv.counters(h.hc)
	if err != nil {
		return nil, err
	}
	var used usage
	var readElapsed time.Duration
	probe := startSpeedProbe()
	for i := int32(0); i < int32(slices); i++ {
		u0, err := h.usage()
		if err != nil {
			return nil, err
		}
		phase.Store(i<<2 | phaseMeasure)
		sleep(window / time.Duration(slices))
		if w.readBack {
			phase.Store(i<<2 | phaseReadBack)
		} else {
			phase.Store(phaseStop)
		}
		// The clients do not pause between phases, so the differences
		// include the one or two requests in flight while they are read.
		u1, err := h.usage()
		if err != nil {
			return nil, err
		}
		used.add(u0, u1)
		if w.readBack {
			sleep(readBack / time.Duration(slices))
			readElapsed += time.Since(u1.at)
		}
	}
	phase.Store(phaseStop)
	probeUS, probeN := probe.finish()
	if !w.readBack {
		readElapsed = used.wall
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := h.srv.counters(h.hc)
	if err != nil {
		return nil, err
	}

	for _, c := range lcs {
		res.attempted += c.attempted
		res.failed += c.failed
		if c.firstErr != nil {
			res.problemf("client: %v", c.firstErr)
		}
		res.metrics["server.stale_reads"] += float64(c.stale)
		if c.firstStale != nil {
			res.notes = append(res.notes, fmt.Sprintf("%d stale read-backs on client %d, the first %v", c.stale, c.id, c.firstStale))
		}
	}
	upd := latencyMS(lcs, func(c *loadClient) []time.Duration { return c.upd })
	rd := latencyMS(lcs, func(c *loadClient) []time.Duration { return c.rd })
	if len(upd) == 0 || len(rd) == 0 {
		return nil, fmt.Errorf("%d updates and %d reads completed inside their phases; both must", len(upd), len(rd))
	}
	res.updates, res.reads = len(upd), len(rd)
	res.genCPU = float64(used.self) / float64(used.wall)
	// Ops the server acknowledged inside the window: the read-back
	// phase's reads are outside it.
	acked := float64(len(upd))
	if !w.readBack {
		acked += float64(len(rd))
	}
	if probeN == 0 {
		return nil, fmt.Errorf("the speed probe took no sample inside the %s window", cfg.window)
	}
	res.speed, res.probeN = probeUS/refProbeUS, probeN
	m, raw := res.metrics, res.raw
	raw["update_rps"] = float64(len(upd)) / used.wall.Seconds()
	raw["update_p50_ms"] = quantile(upd, 0.5)
	raw["update_p90_ms"] = quantile(upd, 0.9)
	m["wire.update_p99_ms"] = quantile(upd, 0.99)
	res.updP999 = quantile(upd, 0.999)
	raw["read_rps"] = float64(len(rd)) / readElapsed.Seconds()
	raw["read_p50_ms"] = quantile(rd, 0.5)
	raw["read_p90_ms"] = quantile(rd, 0.9)
	m["wire.read_p99_ms"] = quantile(rd, 0.99)
	res.rdP999 = quantile(rd, 0.999)
	raw["server_cpu_ms_per_op"] = used.cpuMS / acked
	for name, v := range raw {
		if strings.HasSuffix(name, "_rps") {
			m[name] = v * res.speed
		} else {
			m[name] = v / res.speed
		}
	}

	delta := func(name string) float64 { return after[name] - before[name] }
	if lookups := delta("server.viewcache.hit") + delta("server.viewcache.miss"); lookups > 0 {
		m["server.viewcache.hit_ratio"] = delta("server.viewcache.hit") / lookups
	}
	m["server.ivm.rebuilds"] = delta("server.ivm.rebuild")
	if syncs := delta("wal.sync"); syncs > 0 {
		m["server.commits_per_fsync"] = delta("server.commit.committed") / syncs
	}
	if committed := delta("server.commit.committed"); committed > 0 && w.shards > 1 {
		m["shard.cross_fraction"] = delta("server.cross.commits") / committed
	}
	if w.durable {
		m["persist.disk_bytes_per_update"] = float64(used.disk) / float64(len(upd))
	}
	m["storage.base_rows_end"] = float64(mod.baseRows())
	if mod.keyMoves > 0 {
		m["storage.leaked_rows_per_replace"] = float64(mod.leaked) / float64(mod.keyMoves)
	}

	h.checkViews(mod, res, "after the window")
	if w.durable {
		// Acknowledged means durable: kill -9, recover from the same
		// directory, and every view must still equal the model.
		h.srv.kill()
		restart := time.Now()
		if h.srv, err = startChild(ctx, bin, h.serverArgs()); err != nil {
			return nil, fmt.Errorf("restart after kill -9: %w", err)
		}
		recovery := time.Since(restart)
		m["persist.recovery_us_per_commit"] =
			float64(recovery.Microseconds()) / float64(mod.commits+len(w.seed))
		h.checkViews(mod, res, "after kill -9 and restart")
	}
	h.srv.kill()

	if cfg.trace {
		if err := tracePasses(ctx, w, cfg, h.dir, res); err != nil {
			return nil, fmt.Errorf("traced passes: %w", err)
		}
	}
	return res, nil
}
