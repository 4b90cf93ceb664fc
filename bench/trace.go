package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"viewupdate/internal/core"
	"viewupdate/internal/obs"
	"viewupdate/internal/persist"
	"viewupdate/internal/schema"
	"viewupdate/internal/server"
	"viewupdate/internal/shard"
	"viewupdate/internal/sqlish"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
	"viewupdate/internal/wal"
)

// The traced run times the public functions of each layer from the
// outside. The same ops are replayed, one client, over identically
// seeded in-process engines:
//
//	pass A   loopback HTTP into server.NewHandler(engine)
//	pass B   server.NewHandler(engine).ServeHTTP on a recorder
//	pass C   Engine.Translate then Engine.Commit, or Engine.ReadView,
//	         and around each op the standalone calls of the lower
//	         layers against the snapshot the op ran on
//
// Op i is request i in every pass, so a layer's self time is its span
// minus its children's spans of the same request, even though the spans
// come from different engines. The passes are interleaved op by op so
// that a run cut short by its time budget still has whole requests.

// A span is one timed call. Parent names the span one level out.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Req     int    `json:"req"`
	StartNS int64  `json:"start_ns"` // since the passes began
	EndNS   int64  `json:"end_ns"`
}

// A tracer keeps spans in a preallocated slice until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// timed runs fn and returns its duration in microseconds, recording a
// span when record is set.
func (t *tracer) timed(record bool, name, parent string, req int, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	if record {
		t.spans = append(t.spans, span{name, parent, req, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	}
	return float64(end.Sub(start).Nanoseconds()) / 1e3
}

// opTimes holds one request's durations in microseconds; a zero means
// the call is not on this op's or this workload's path.
type opTimes struct {
	update                                bool
	cross                                 bool
	aOff, aOn, b                          float64
	translate, commit, read, readPoint    float64
	enumerate, verify, materialize, delta float64
	cow, overlay                          float64
	classify, encode, appendUS, fsync     float64
	papply, parse                         float64
	cands, rows, walBytes                 int
}

// An engineUnderTest is one in-process engine with its own model.
type engineUnderTest struct {
	eng     *server.Engine
	handler http.Handler
	model   *model
}

func newEngineUnderTest(w *workload, dir string) (*engineUnderTest, error) {
	cfg := server.Config{Shards: w.shards}
	if w.durable {
		cfg.Dir = dir
	}
	eng, err := server.NewEngine(cfg, w.initScript())
	if err != nil {
		return nil, err
	}
	if w.durable && len(w.seed) > 0 {
		if _, err := eng.ExecScript(insertScript(w.seed)); err != nil {
			eng.Kill()
			return nil, err
		}
	}
	return &engineUnderTest{eng: eng, handler: server.NewHandler(eng), model: newModel(w)}, nil
}

// httpParts spells an op as method, request target and body.
func (o op) httpParts() (method, target string, body []byte, err error) {
	req, err := o.request("")
	if err != nil {
		return "", "", nil, err
	}
	if req.Body != nil {
		if body, err = io.ReadAll(req.Body); err != nil {
			return "", "", nil, err
		}
	}
	return req.Method, req.URL.RequestURI(), body, nil
}

// parseVal reads a wire string as a value of the attribute's domain;
// the workloads use integers and strings only.
func parseVal(a schema.Attribute, s string) (value.Value, error) {
	if a.Domain.Kind() == value.Int {
		i, err := strconv.ParseInt(s, 10, 64)
		return value.NewInt(i), err
	}
	return value.NewString(s), nil
}

// wireCell renders a value the way the wire does: strings unquoted.
func wireCell(v value.Value) string {
	if v.Kind() == value.String {
		return v.Str()
	}
	return v.String()
}

// buildRequest turns an op into a core.Request the way the server's
// handler does: an insert parses its row against the view schema, a
// delete or replace finds its row by scanning the view's cached
// materialization in order.
func buildRequest(eng *server.Engine, o op, v view.View) (core.Request, error) {
	rel := v.Schema()
	if o.Kind == "insert" {
		vals := make([]value.Value, len(o.Values))
		for i, a := range rel.Attributes() {
			var err error
			if vals[i], err = parseVal(a, o.Values[i]); err != nil {
				return core.Request{}, err
			}
		}
		t, err := tuple.New(rel, vals...)
		return core.InsertRequest(t), err
	}
	rows, _, err := eng.ReadView(o.View)
	if err != nil {
		return core.Request{}, err
	}
	var old tuple.T
	for _, row := range rows.Slice() {
		match := true
		for name, s := range o.Where {
			a, _ := rel.Attribute(name)
			want, err := parseVal(a, s)
			if got, ok := row.Get(name); err != nil || !ok || got != want {
				match = false
			}
		}
		if match {
			old = row
		}
	}
	if old.IsZero() {
		return core.Request{}, fmt.Errorf("no row of %s matches %v", o.View, o.Where)
	}
	if o.Kind == "delete" {
		return core.DeleteRequest(old), nil
	}
	repl := old
	for name, s := range o.Set {
		a, _ := rel.Attribute(name)
		nv, err := parseVal(a, s)
		if err != nil {
			return core.Request{}, err
		}
		if repl, err = repl.With(name, nv); err != nil {
			return core.Request{}, err
		}
	}
	return core.ReplaceRequest(old, repl), nil
}

// standalone holds the durable layers driven on their own, beside the
// engines: a persist.Store that applies the same translations, and a
// bare WAL for the encode, append and fsync costs.
type standalone struct {
	store *persist.Store
	log   *wal.Log
	seq   uint64
}

func newStandalone(dir string, seeded *storage.Database) (*standalone, error) {
	st, err := persist.Create(filepath.Join(dir, "standalone-store"), seeded.Clone(), persist.Options{})
	if err != nil {
		return nil, err
	}
	lg, _, err := wal.OpenFile(filepath.Join(dir, "standalone.wal"), wal.SyncNever)
	if err != nil {
		st.Close()
		return nil, err
	}
	return &standalone{store: st, log: lg}, nil
}

func (s *standalone) close() {
	if s != nil {
		s.store.Close()
		s.log.Close()
	}
}

// passes is the state of one traced replay.
type passes struct {
	w      *workload
	tr     *tracer
	aOff   *engineUnderTest
	aOn    *engineUnderTest
	b      *engineUnderTest
	c      *engineUnderTest
	baseA  [2]string // loopback base URLs of aOff and aOn
	hc     *http.Client
	alone  *standalone
	shards *shard.Map
	// The candidate check is the one standalone call that costs more
	// than the request itself, so it samples requests until its own
	// budget is spent.
	checkBudget       time.Duration
	checked, accepted int
}

// serveLoopback serves an engine's handler on a loopback port.
func serveLoopback(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// overHTTP is pass A for one op.
func (p *passes) overHTTP(e *engineUnderTest, base string, record bool, i int, o op) (float64, error) {
	req, err := o.request(base)
	if err != nil {
		return 0, err
	}
	var status int
	var body []byte
	us := p.tr.timed(record, "http.roundtrip", "", i, func() {
		var resp *http.Response
		if resp, err = p.hc.Do(req); err != nil {
			return
		}
		status = resp.StatusCode
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	})
	if err != nil {
		return 0, err
	}
	return us, o.check(e.model, status, body)
}

// throughHandler is pass B for one op, recorded as a span called name.
func (p *passes) throughHandler(name, parent string, i int, o op) (float64, error) {
	method, target, body, err := o.httpParts()
	if err != nil {
		return 0, err
	}
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	us := p.tr.timed(true, name, parent, i, func() { p.b.handler.ServeHTTP(rec, req) })
	return us, o.check(p.b.model, rec.Code, rec.Body.Bytes())
}

// engineCalls is pass C for one op, with the standalone calls.
func (p *passes) engineCalls(i int, o op, t *opTimes) error {
	eng, tr := p.c.eng, p.tr
	ctx := context.Background()
	if o.isRead() {
		var err error
		t.read = tr.timed(true, "server.read", "server.handler", i, func() { _, _, err = eng.ReadView(o.View) })
		return err
	}
	snap, _ := eng.Snapshot()
	before, _, err := eng.ReadView(o.View)
	if err != nil {
		return err
	}
	var v view.View
	var cand core.Candidate
	var req core.Request
	var baseVersion uint64
	t.translate = tr.timed(true, "server.translate", "server.handler", i, func() {
		cand, _, req, baseVersion, err = eng.Translate(ctx, o.View, nil, func(vv view.View, _ storage.Source) (core.Request, error) {
			v = vv
			return buildRequest(eng, o, vv)
		})
	})
	if err != nil {
		return err
	}
	trn := cand.Translation
	t.commit = tr.timed(true, "server.commit", "server.handler", i, func() { _, err = eng.Commit(ctx, trn, false, baseVersion) })
	if err != nil {
		return err
	}
	ops := make([]string, 0, trn.Len())
	for _, bo := range trn.Ops() {
		ops = append(ops, bo.String())
	}
	if err := p.c.model.ackUpdate(o, ops); err != nil {
		return err
	}
	after, _ := eng.Snapshot()

	// core
	var cands []core.Candidate
	t.enumerate = tr.timed(true, "core.enumerate", "server.translate", i, func() { cands, err = core.Enumerate(snap, v, req) })
	if err != nil {
		return err
	}
	t.cands = len(cands)
	t.verify = tr.timed(true, "core.verify", "server.translate", i, func() {
		_, err = core.NewVerifierWithBefore(snap, v, req, before).SideEffects(trn)
	})
	if err != nil {
		return err
	}
	if p.checkBudget > 0 {
		_, exact := v.(*view.SP)
		start := time.Now()
		for _, c := range cands {
			p.checked++
			if core.CheckCandidates(snap, v, req, []core.Candidate{c}, exact) == nil {
				p.accepted++
			}
		}
		p.checkBudget -= time.Since(start)
	}

	// view
	t.materialize = tr.timed(true, "view.materialize", "", i, func() { t.rows = v.Materialize(snap).Len() })
	removed, added := trn.Removed().Slice(), trn.Added().Slice()
	t.delta = tr.timed(true, "view.delta", "server.commit", i, func() {
		switch vv := v.(type) {
		case *view.Join:
			vv.DeltaForChange(snap, after, removed, added)
		case *view.SP:
			for _, bt := range removed {
				vv.RowFor(bt)
			}
			for _, bt := range added {
				vv.RowFor(bt)
			}
		}
	})

	// storage
	t.cow = tr.timed(true, "storage.cow_apply", "server.commit", i, func() { err = snap.CloneShared().Apply(trn) })
	if err != nil {
		return err
	}
	t.overlay = tr.timed(true, "storage.overlay_apply", "", i, func() { err = storage.NewOverlay(snap).Apply(trn) })
	if err != nil {
		return err
	}

	// shard
	if p.shards != nil {
		var route *shard.Route
		t.classify = tr.timed(true, "shard.classify", "server.commit", i, func() { route, err = shard.Classify(p.shards, snap.Schema(), trn) })
		if err != nil {
			return err
		}
		t.cross = route.Cross()
	}

	// persist and wal
	if p.alone != nil {
		t.papply = tr.timed(true, "persist.apply", "server.commit", i, func() {
			err = p.alone.store.ApplyBatch([]*update.Translation{trn})[0]
		})
		if err != nil {
			return err
		}
		p.alone.seq++
		var recs []wal.Record
		t.encode = tr.timed(true, "wal.encode", "persist.apply", i, func() { recs = persist.EncodeBatchRecords(p.alone.seq, trn) })
		t.appendUS = tr.timed(true, "wal.append", "persist.apply", i, func() { err = p.alone.log.AppendBatch(recs) })
		if err != nil {
			return err
		}
		t.fsync = tr.timed(true, "wal.fsync", "persist.apply", i, func() { err = p.alone.log.Sync() })
		if err != nil {
			return err
		}
		for _, rec := range recs {
			frame, err := wal.Frame(rec)
			if err != nil {
				return err
			}
			t.walBytes += len(frame)
		}
	}

	// sqlish
	t.parse = tr.timed(true, "sqlish.parse", "", i, func() { _, err = sqlish.Parse(o.dml()) })
	return err
}

// tracePasses replays the head of the seed's op stream through the
// passes and adds the per-layer metrics to res.
func tracePasses(ctx context.Context, w *workload, cfg runConfig, dir string, res *result) (err error) {
	// vuserved always runs with an obs sink; the in-process engines get
	// one too, so that they do the same work per request.
	obs.Enable(obs.NewSink(obs.NewLogger(io.Discard, slog.LevelError)))
	defer obs.Disable()

	p := &passes{w: w, hc: newHTTPClient(), checkBudget: cfg.traceBudget / 5,
		tr: &tracer{spans: make([]span, 0, cfg.traceOps*24)}}
	var stops []func()
	defer func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		p.alone.close()
	}()

	start := time.Now()
	if _, err := sqlish.NewSession().ExecScript(w.ddl + insertScript(w.seed)); err != nil {
		return fmt.Errorf("init script: %w", err)
	}
	res.metrics["sqlish.init_script_ms"] = float64(time.Since(start).Microseconds()) / 1e3

	engines := []**engineUnderTest{&p.aOff, &p.aOn, &p.b, &p.c}
	for i, slot := range engines {
		e, err := newEngineUnderTest(w, filepath.Join(dir, fmt.Sprintf("engine-%d", i)))
		if err != nil {
			return err
		}
		*slot = e
		stops = append(stops, e.eng.Kill)
	}
	for i, e := range []*engineUnderTest{p.aOff, p.aOn} {
		base, stop, err := serveLoopback(e.handler)
		if err != nil {
			return err
		}
		p.baseA[i] = base
		stops = append(stops, stop)
	}
	seeded, _ := p.c.eng.Snapshot()
	if w.durable {
		if p.alone, err = newStandalone(dir, seeded); err != nil {
			return err
		}
	}
	if st := p.c.eng.ShardStore(); st != nil {
		p.shards = st.Map()
	}

	gens := make([]generator, clients)
	for i := range gens {
		gens[i] = w.newClient(cfg.seed, i)
	}
	times := make([]opTimes, 0, cfg.traceOps)
	p.tr.t0 = time.Now()
	for i := 0; i < cfg.traceOps && time.Since(p.tr.t0) < cfg.traceBudget && ctx.Err() == nil; i++ {
		o := gens[i%clients].next()
		t := opTimes{update: !o.isRead()}
		// Whichever of the two pass-A engines goes first pays for the
		// caches the previous op's standalone calls evicted, so they
		// take turns.
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				t.aOff, err = p.overHTTP(p.aOff, p.baseA[0], false, i, o)
			} else {
				t.aOn, err = p.overHTTP(p.aOn, p.baseA[1], true, i, o)
			}
			if err != nil {
				return fmt.Errorf("pass A, op %d: %w", i, err)
			}
		}
		if t.b, err = p.throughHandler("server.handler", "http.roundtrip", i, o); err != nil {
			return fmt.Errorf("pass B, op %d: %w", i, err)
		}
		// A point read's handler time: the op itself where the stream has
		// reads, the read-back of the update where it has none.
		t.readPoint = t.b
		if w.readBack {
			rb := o.readback(p.b.model.cols[o.View][0])
			if t.readPoint, err = p.throughHandler("server.read_point", "", i, rb); err != nil {
				return fmt.Errorf("read-back, op %d: %w", i, err)
			}
		}
		if err = p.engineCalls(i, o, &t); err != nil {
			return fmt.Errorf("pass C, op %d: %w", i, err)
		}
		times = append(times, t)
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// Full-view reads are not in the op streams; time a few through the
	// handler now that the engine holds a realistic state.
	var full []float64
	for i := 0; i < 20; i++ {
		req := httptest.NewRequest(http.MethodGet, "/views/"+w.opViews[0], nil)
		rec := httptest.NewRecorder()
		full = append(full, p.tr.timed(true, "server.read_full", "", len(times)+i, func() { p.b.handler.ServeHTTP(rec, req) }))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("full read of %s: status %d", w.opViews[0], rec.Code)
		}
	}
	res.metrics["server.read_full.p50_us"] = median(full)

	if p.alone != nil {
		start := time.Now()
		if err := p.alone.store.Checkpoint(); err != nil {
			return err
		}
		res.metrics["persist.checkpoint_ms"] = float64(time.Since(start).Microseconds()) / 1e3
	}
	for _, e := range []*engineUnderTest{p.aOff, p.aOn, p.b, p.c} {
		for _, v := range w.views {
			rows, _, err := e.eng.ReadView(v.name)
			if err != nil {
				return err
			}
			got := make([][]string, 0, rows.Len())
			for _, row := range rows.Slice() {
				cells := make([]string, len(row.Values()))
				for i, val := range row.Values() {
					cells[i] = wireCell(val)
				}
				got = append(got, cells)
			}
			for _, mm := range e.model.checkView(v.name, got) {
				res.problemf("traced engine: view %s: %s", v.name, mm)
			}
		}
	}
	layerMetrics(times, p, res)
	return writeSpans(filepath.Join(runDir, "trace-"+w.name+".json"), p.tr.spans)
}

// layerMetrics reduces the per-request durations to the per-layer
// metrics. Medians are over update requests unless the name says
// otherwise.
func layerMetrics(times []opTimes, p *passes, res *result) {
	col := func(keep func(opTimes) bool, f func(opTimes) float64) []float64 {
		var out []float64
		for _, t := range times {
			if keep(t) {
				out = append(out, f(t))
			}
		}
		return sortedCopy(out)
	}
	upd := func(t opTimes) bool { return t.update }
	p50 := func(f func(opTimes) float64) float64 { return quantile(col(upd, f), 0.5) }
	m := res.metrics

	m["http.roundtrip.p50_us"] = p50(func(t opTimes) float64 { return t.aOn })
	m["server.handler.p50_us"] = p50(func(t opTimes) float64 { return t.b })
	m["server.translate.p50_us"] = p50(func(t opTimes) float64 { return t.translate })
	m["server.commit.p50_us"] = p50(func(t opTimes) float64 { return t.commit })
	m["server.commit.p99_us"] = quantile(col(upd, func(t opTimes) float64 { return t.commit }), 0.99)
	m["server.read_point.p50_us"] = quantile(col(func(t opTimes) bool { return !t.update || p.w.readBack },
		func(t opTimes) float64 { return t.readPoint }), 0.5)

	self := map[string]float64{
		"http.self_p50_us":             p50(func(t opTimes) float64 { return t.aOn - t.b }),
		"server.handler.self_p50_us":   p50(func(t opTimes) float64 { return t.b - t.translate - t.commit }),
		"server.translate.self_p50_us": p50(func(t opTimes) float64 { return t.translate - t.enumerate - t.verify }),
		"server.commit.self_p50_us":    p50(func(t opTimes) float64 { return t.commit - t.cow - t.delta - t.papply - t.classify }),
	}
	leaves := map[string]float64{
		"core.enumerate.p50_us":    p50(func(t opTimes) float64 { return t.enumerate }),
		"core.verify.p50_us":       p50(func(t opTimes) float64 { return t.verify }),
		"view.delta.p50_us":        p50(func(t opTimes) float64 { return t.delta }),
		"storage.cow_apply.p50_us": p50(func(t opTimes) float64 { return t.cow }),
		"shard.classify.p50_us":    p50(func(t opTimes) float64 { return t.classify }),
		"wal.encode.p50_us":        p50(func(t opTimes) float64 { return t.encode }),
		"wal.append.p50_us":        p50(func(t opTimes) float64 { return t.appendUS }),
		"wal.fsync.p50_us":         p50(func(t opTimes) float64 { return t.fsync }),
	}
	// Per request the self times and the leaves add up to pass A's time
	// exactly, whatever was attributed to whom, so their sum cannot show
	// unaccounted time. The gap is therefore taken between directly timed
	// spans only: the share of the wire p50 that the p50s of the leaf
	// calls, each a layer's public function timed on its own, do not
	// cover. That share is visible from outside only as remainders.
	var covered float64
	for name, v := range self {
		m[name] = v
	}
	for name, v := range leaves {
		m[name] = v
		covered += v
	}
	if rt := m["http.roundtrip.p50_us"]; rt > 0 {
		m["trace.reconcile_gap_frac"] = math.Abs(rt-covered) / rt
	}
	if off := p50(func(t opTimes) float64 { return t.aOff }); off > 0 {
		m["trace.overhead_frac"] = math.Abs(m["http.roundtrip.p50_us"]-off) / off
	}

	m["core.candidates_per_request"] = mean(col(upd, func(t opTimes) float64 { return float64(t.cands) }))
	if p.checked > 0 {
		m["core.accepted_ratio"] = float64(p.accepted) / float64(p.checked)
	}
	m["view.materialize.p50_us"] = p50(func(t opTimes) float64 { return t.materialize })
	m["view.rows"] = p50(func(t opTimes) float64 { return float64(t.rows) })
	m["storage.overlay_apply.p50_us"] = p50(func(t opTimes) float64 { return t.overlay })
	m["wal.fsync.p99_us"] = quantile(col(upd, func(t opTimes) float64 { return t.fsync }), 0.99)
	m["wal.bytes_per_commit"] = mean(col(upd, func(t opTimes) float64 { return float64(t.walBytes) }))
	m["persist.apply.p50_us"] = p50(func(t opTimes) float64 { return t.papply })
	m["shard.commit_cross.p50_us"] = quantile(col(func(t opTimes) bool { return t.cross }, func(t opTimes) float64 { return t.commit }), 0.5)
	m["sqlish.parse.p50_us"] = p50(func(t opTimes) float64 { return t.parse })
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// writeSpans dumps the recorded spans for inspection.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
