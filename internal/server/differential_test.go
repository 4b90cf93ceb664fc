package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"viewupdate/internal/bruteforce"
	"viewupdate/internal/core"
	"viewupdate/internal/faultinject"
	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/update"
	"viewupdate/internal/view"
	"viewupdate/internal/workload"
)

// The differential harness: one seeded request stream — over an SP
// view with a selection and a hidden attribute, and a workload.SmallTree
// join view whose nodes select and hide attributes; inserts, replaces
// and deletes — runs through these observers of the same commits:
//
//	(a) core.Translator on the workloads' own databases, every
//	    translation it applies checked against bruteforce.Search's
//	    acceptable set for that state, every rejection against an
//	    empty one;
//	(b) a durable single-store engine over HTTP;
//	(c) a durable 4-shard engine over HTTP, answering every request
//	    with (b)'s status;
//	(d) a follower of (b)'s /wal/stream, and one of (c)'s;
//	(e) mirrors rebuilding each view from (b)'s /subscribe events
//	    alone, subscribed before the first commit.
//
// After every commit all of them hold the same view states: Keller's
// V(DB′) = U(V(DB)), checked on every path a commit takes. Each seed
// sheds both followers' stream tails and one subscriber at the feeds'
// fault sites; all must resume without a gap or a duplicate (the
// mirrors apply changes strictly). At the end (b) and (c) are killed
// and reopened from their directories: recovery — wal.Reassemble and
// the one replay path — must rebuild the translator's views.
// Concurrent clients and kill points inside the pipeline are not
// observed here.

// differentialSteps is the number of requests each seed draws.
const differentialSteps = 24

// differentialCrossSeed is a committed seed whose stream takes the
// sharded engine's two-phase route (server.cross.commits > 0); the
// harness asserts it does, so the 2PC path stays observed.
const differentialCrossSeed = 1

// A servedEngine is one durable observer, (b) or (c), with its follower
// and the number of /wal/stream requests it has served.
type servedEngine struct {
	name    string
	cfg     Config
	e       *Engine
	url     string
	fol     *Engine
	streams atomic.Int32
}

// FuzzDifferential runs the harness on the seed it is given. The
// committed seeds run in tier 1; make soak fuzzes fresh ones.
func FuzzDifferential(f *testing.F) {
	for seed := int64(1); seed <= 40; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkDifferential)
}

// An observedView is one view of the stream with observer (a)'s state:
// the workload database its requests are drawn from and applied to.
type observedView struct {
	name string
	v    view.View
	db   *storage.Database
	next func(update.Kind) (core.Request, bool)
	last core.Request
	m    *mirror
}

// differentialScript renders the workloads' schemas and views as the
// init DDL, and their rows as the seed script.
func differentialScript(sp *workload.SPWorkload, tree *workload.TreeWorkload) (ddl, seed string) {
	domains := map[string]bool{}
	var b, rows strings.Builder
	schemaScript(&b, &rows, sp.DB, []*schema.Relation{sp.Rel}, domains)
	createView := func(name string, v *view.SP) {
		sel := v.Selection()
		var terms []string
		for _, a := range sel.SelectingAttributes() {
			terms = append(terms, fmt.Sprintf("%s IN (%s)", a, sqlLits(sel.SelectingValues(a))))
		}
		fmt.Fprintf(&b, "CREATE VIEW %s AS SELECT %s FROM %s", name,
			strings.Join(v.Schema().AttributeNames(), ", "), v.Base().Name())
		if len(terms) > 0 {
			fmt.Fprintf(&b, " WHERE %s", strings.Join(terms, " AND "))
		}
		b.WriteString(";\n")
	}
	createView("V", sp.View)
	parentsFirst := slices.Clone(tree.Relations)
	slices.Reverse(parentsFirst)
	schemaScript(&b, &rows, tree.DB, parentsFirst, domains)
	var edges []string
	for _, n := range tree.View.Nodes() {
		createView(n.SP.Name(), n.SP)
		for _, ref := range n.Refs {
			edges = append(edges, fmt.Sprintf("%s (%s) REFERENCES %s",
				n.SP.Name(), strings.Join(ref.Attrs, ", "), ref.Target.SP.Name()))
		}
	}
	fmt.Fprintf(&b, "CREATE JOIN VIEW TREE ROOT %s", tree.View.Nodes()[0].SP.Name())
	if len(edges) > 0 {
		fmt.Fprintf(&b, " WITH %s", strings.Join(edges, ", "))
	}
	b.WriteString(";\n")
	return b.String(), rows.String()
}

func checkDifferential(t *testing.T, seed int64) {
	sp, err := workload.NewSP(workload.SPConfig{Keys: 6, Attrs: 2, DomainSize: 2,
		SelectingAttrs: 1, HiddenAttrs: 1, Tuples: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := workload.SmallTree(seed)
	if err != nil {
		t.Fatal(err)
	}
	ddl, seedRows := differentialScript(sp, tree)

	// (b) and (c), each with its follower (d), then (e) — all attached
	// before the first commit.
	sink := metricsSink(t)
	served := []*servedEngine{
		{name: "single-store", cfg: Config{Dir: t.TempDir()}},
		{name: "sharded", cfg: Config{Dir: t.TempDir(), Shards: 4}},
	}
	for _, se := range served {
		se.cfg.MaxInFlight, se.cfg.RequestTimeout = 16, 5*time.Second
		if se.e, err = NewEngine(se.cfg, ddl); err != nil {
			t.Fatalf("seed %d: %s primary: %v\n%s", seed, se.name, err, ddl)
		}
		t.Cleanup(func() { se.e.Close() })
		h := NewHandler(se.e)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/wal/stream" {
				se.streams.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		se.url = srv.URL
		if se.fol, err = NewEngine(Config{Follow: srv.URL, RequestTimeout: 5 * time.Second}, ddl); err != nil {
			t.Fatalf("seed %d: %s follower: %v", seed, se.name, err)
		}
		t.Cleanup(func() { se.fol.Close() })
		waitUntil(t, 5*time.Second, se.name+"'s follower stream tail", func() bool { return se.e.stream.Tails() == 1 })
	}
	single, sharded := served[0], served[1]
	views := []*observedView{
		{name: "V", v: sp.View, db: sp.DB, next: sp.NextRequest},
		{name: "TREE", v: tree.View, db: tree.DB, next: tree.RandomRequest},
	}
	for _, ov := range views {
		ov.m = startMirror(t, single.url+"/subscribe/"+ov.name)
	}

	// Each follower's tail is shed at a seeded frame of its primary's
	// seeding script, one plan per primary, so the hit numbers count
	// that primary's frames alone.
	rng := rand.New(rand.NewSource(seed))
	shed := errors.New("forced shed")
	seedFrames := strings.Count(seedRows, "INSERT INTO")
	shardedPlan := faultinject.NewPlan(seed).
		FailNth(faultinject.SiteStreamSend, 1+rng.Intn(seedFrames), shed)
	plan := faultinject.NewPlan(seed).
		FailNth(faultinject.SiteStreamSend, 1+rng.Intn(seedFrames), shed).
		FailNth(faultinject.SiteSubscribeSend, 2+rng.Intn(4), shed)
	defer faultinject.Disable()

	// read fetches a view's rows from a primary over HTTP, as a mirror
	// renders them.
	read := func(se *servedEngine, step, name string) []string {
		t.Helper()
		var reply rowsReply
		if st := doJSON(t, http.MethodGet, se.url+"/views/"+name, nil, &reply); st != http.StatusOK {
			t.Fatalf("seed %d, %s: reading %s from the %s engine: status %d", seed, step, name, se.name, st)
		}
		got := make([]string, len(reply.Rows))
		for i, row := range reply.Rows {
			got[i] = strings.Join(row, ",")
		}
		sort.Strings(got)
		return got
	}
	checkServed := func(se *servedEngine, step string) {
		t.Helper()
		for _, ov := range views {
			want := setRows(ov.v.Materialize(ov.db))
			if got := read(se, step, ov.name); !slices.Equal(got, want) {
				t.Fatalf("seed %d, %s: the %s engine's %s served %v, the translator holds %v", seed, step, se.name, ov.name, got, want)
			}
			waitUntil(t, 5*time.Second, fmt.Sprintf("seed %d, %s: the %s follower's %s", seed, step, se.name, ov.name), func() bool {
				set, _, err := se.fol.ReadView(ov.name)
				return err == nil && slices.Equal(setRows(set), want)
			})
		}
	}
	check := func(step string) {
		t.Helper()
		for _, se := range served {
			checkServed(se, step)
		}
		for _, ov := range views {
			ov.m.waitFor(t, fmt.Sprintf("seed %d, %s: the subscriber's %s", seed, step, ov.name), setRows(ov.v.Materialize(ov.db)))
		}
	}

	seedEngine := func(se *servedEngine) {
		var out execReply
		if st := doJSON(t, http.MethodPost, se.url+"/execz", execBody{Script: seedRows}, &out); st != http.StatusOK || !out.OK {
			t.Fatalf("seed %d: seeding the %s engine: %d %+v", seed, se.name, st, out)
		}
	}
	faultinject.Enable(shardedPlan)
	seedEngine(sharded)
	checkServed(sharded, "seed rows")
	faultinject.Enable(plan)
	seedEngine(single)
	check("seed rows")
	if shardedPlan.Fired(faultinject.SiteStreamSend) != 1 {
		t.Fatalf("seed %d: sheds injected on the sharded follower: %d, want 1", seed, shardedPlan.Fired(faultinject.SiteStreamSend))
	}

	kinds := []update.Kind{update.Insert, update.Replace, update.Delete}
	used := map[update.Kind]bool{}
	applied, refused := 0, 0
	for i := 0; i < differentialSteps; i++ {
		ov, kind := views[i%2], kinds[(i/2)%3]
		// Every fifth step re-sends the view's previous request, stale
		// by now: its row exists already, or no longer does.
		req, ok := ov.last, i%5 == 4 && ov.last.Kind != 0
		if !ok {
			if req, ok = ov.next(kind); !ok {
				continue
			}
		}
		ov.last = req
		used[req.Kind] = true
		step := fmt.Sprintf("step %d (%s %s)", i, ov.name, req)
		cand, terr := core.NewTranslator(ov.v, nil).Translate(ov.db, req)
		maxOps := 2
		if terr == nil {
			maxOps = max(maxOps, cand.Translation.Len())
		}
		res, err := bruteforce.Search(ov.db, ov.v, req, bruteforce.Config{MaxOps: maxOps, MaxUniverse: 5000})
		if err != nil {
			t.Fatalf("seed %d, %s: oracle: %v", seed, step, err)
		}
		acceptable := map[string]bool{}
		for _, tr := range res.Translations {
			acceptable[tr.Encode()] = true
		}
		switch {
		case terr != nil && len(acceptable) > 0:
			t.Fatalf("seed %d, %s: refused (%v), the oracle accepts %d translations", seed, step, terr, len(acceptable))
		case terr == nil && !acceptable[cand.Translation.Encode()]:
			t.Fatalf("seed %d, %s: applies %s, outside the oracle's acceptable set", seed, step, cand.Translation)
		case terr == nil:
			if err := ov.db.Apply(cand.Translation); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, step, err)
			}
			applied++
		default:
			refused++
		}
		o := toWire(ov.name, req)
		var status []int
		for _, se := range served {
			var reply updateReply
			st := doJSON(t, http.MethodPost, se.url+"/views/"+o.view+"/"+o.op, o.body, &reply)
			if (st == http.StatusOK) != (terr == nil) {
				t.Fatalf("seed %d, %s: the %s engine answered %d, the translator says %v", seed, step, se.name, st, terr)
			}
			status = append(status, st)
		}
		if status[0] != status[1] {
			t.Fatalf("seed %d, %s: statuses %v differ between the single-store and sharded engines", seed, step, status)
		}
		check(step)
	}

	for _, k := range kinds {
		if !used[k] {
			t.Fatalf("seed %d: the stream drew no %s request", seed, k)
		}
	}
	if plan.Fired(faultinject.SiteStreamSend) != 1 || plan.Fired(faultinject.SiteSubscribeSend) != 1 {
		t.Fatalf("seed %d: sheds injected: follower %d, subscriber %d; want one each", seed,
			plan.Fired(faultinject.SiteStreamSend), plan.Fired(faultinject.SiteSubscribeSend))
	}
	for _, se := range served {
		// One stream to attach, one to resume after the shed.
		if n := se.streams.Load(); n != 2 {
			t.Fatalf("seed %d: the %s follower opened %d streams, want 2", seed, se.name, n)
		}
	}
	cross := sink.Metrics().Snapshot().Counters["server.cross.commits"]
	if seed == differentialCrossSeed && cross == 0 {
		t.Fatalf("seed %d: no commit took the sharded engine's two-phase route", seed)
	}
	resumed := 0
	for _, ov := range views {
		ov.m.mu.Lock()
		opens := slices.Clone(ov.m.opens)
		ov.m.mu.Unlock()
		if slices.Contains(opens, "resync") {
			t.Fatalf("seed %d: %s's subscriber fell out of the window: %v", seed, ov.name, opens)
		}
		resumed += len(opens) - 1
	}
	if resumed != 1 {
		t.Fatalf("seed %d: %d subscriber resumes, want the one forced", seed, resumed)
	}

	// Kill both primaries and reopen them from their directories: the
	// recovered views are the translator's.
	faultinject.Disable()
	for _, ov := range views {
		ov.m.stop()
	}
	for _, se := range served {
		se.fol.Close()
		se.e.Kill()
		re, err := NewEngine(se.cfg, ddl)
		if err != nil {
			t.Fatalf("seed %d: reopening the %s engine: %v", seed, se.name, err)
		}
		t.Cleanup(func() { re.Close() })
		for _, ov := range views {
			set, _, err := re.ReadView(ov.name)
			if err != nil {
				t.Fatalf("seed %d: the reopened %s engine's %s: %v", seed, se.name, ov.name, err)
			}
			if got, want := setRows(set), setRows(ov.v.Materialize(ov.db)); !slices.Equal(got, want) {
				t.Fatalf("seed %d: the reopened %s engine's %s holds %v, the translator %v", seed, se.name, ov.name, got, want)
			}
		}
	}
	t.Logf("seed %d: %d requests applied, %d refused, %d cross-shard commits", seed, applied, refused, cross)
}
