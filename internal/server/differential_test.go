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
// and deletes — runs through four observers of the same commits:
//
//	(a) core.Translator on the workloads' own databases, every
//	    translation it applies checked against bruteforce.Search's
//	    acceptable set for that state, every rejection against an
//	    empty one;
//	(b) a durable engine over HTTP;
//	(d) a follower of (b)'s /wal/stream;
//	(e) mirrors rebuilding each view from (b)'s /subscribe events
//	    alone, subscribed before the first commit.
//
// After every commit all four hold the same view states: Keller's
// V(DB′) = U(V(DB)), checked on every path a commit takes. Each seed
// sheds the follower's stream tail and one subscriber at the feeds'
// fault sites; both must resume without a gap or a duplicate (the
// mirrors apply changes strictly). The sharded engine, concurrent
// clients and kill points are not observed here.

// differentialSteps is the number of requests each seed draws.
const differentialSteps = 24

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

	// (b), then (d) and (e) attached before the first commit.
	p, err := NewEngine(Config{Dir: t.TempDir(), MaxInFlight: 16, RequestTimeout: 5 * time.Second}, ddl)
	if err != nil {
		t.Fatalf("seed %d: primary: %v\n%s", seed, err, ddl)
	}
	t.Cleanup(func() { p.Close() })
	srv := httptest.NewServer(NewHandler(p))
	t.Cleanup(srv.Close)
	fol, err := NewEngine(Config{Follow: srv.URL, RequestTimeout: 5 * time.Second}, ddl)
	if err != nil {
		t.Fatalf("seed %d: follower: %v", seed, err)
	}
	t.Cleanup(func() { fol.Close() })
	waitUntil(t, 5*time.Second, "the follower's stream tail", func() bool { return p.stream.Tails() == 1 })
	views := []*observedView{
		{name: "V", v: sp.View, db: sp.DB, next: sp.NextRequest},
		{name: "TREE", v: tree.View, db: tree.DB, next: tree.RandomRequest},
	}
	for _, ov := range views {
		ov.m = startMirror(t, srv.URL+"/subscribe/"+ov.name)
	}

	rng := rand.New(rand.NewSource(seed))
	shed := errors.New("forced shed")
	plan := faultinject.NewPlan(seed).
		FailNth(faultinject.SiteStreamSend, 2+rng.Intn(6), shed).
		FailNth(faultinject.SiteSubscribeSend, 2+rng.Intn(4), shed)
	faultinject.Enable(plan)
	defer faultinject.Disable()

	check := func(step string) {
		t.Helper()
		for _, ov := range views {
			want := setRows(ov.v.Materialize(ov.db))
			var reply rowsReply
			if st := doJSON(t, http.MethodGet, srv.URL+"/views/"+ov.name, nil, &reply); st != http.StatusOK {
				t.Fatalf("seed %d, %s: reading %s: status %d", seed, step, ov.name, st)
			}
			got := make([]string, len(reply.Rows))
			for i, row := range reply.Rows {
				got[i] = strings.Join(row, ",")
			}
			sort.Strings(got)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d, %s: %s served %v, the translator holds %v", seed, step, ov.name, got, want)
			}
			waitUntil(t, 5*time.Second, fmt.Sprintf("seed %d, %s: the follower's %s", seed, step, ov.name), func() bool {
				set, _, err := fol.ReadView(ov.name)
				return err == nil && slices.Equal(setRows(set), want)
			})
			ov.m.waitFor(t, fmt.Sprintf("seed %d, %s: the subscriber's %s", seed, step, ov.name), want)
		}
	}

	var out execReply
	if st := doJSON(t, http.MethodPost, srv.URL+"/execz", execBody{Script: seedRows}, &out); st != http.StatusOK || !out.OK {
		t.Fatalf("seed %d: seeding: %d %+v", seed, st, out)
	}
	check("seed rows")

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
		var reply updateReply
		if st := doJSON(t, http.MethodPost, srv.URL+"/views/"+o.view+"/"+o.op, o.body, &reply); (st == http.StatusOK) != (terr == nil) {
			t.Fatalf("seed %d, %s: served status %d, the translator says %v", seed, step, st, terr)
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
	t.Logf("seed %d: %d requests applied, %d refused", seed, applied, refused)
}
