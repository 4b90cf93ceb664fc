package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"viewupdate/internal/core"
	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/workload"
)

// The mode-equivalence test: which durable store is attached must be
// invisible on the wire. One deterministic internal/workload stream —
// an SP view and a join view; inserts, replaces and deletes over the
// update routes, interleaved with /execz scripts (base-table DML, a view
// update, a BEGIN…COMMIT block, a join-view insert spanning both of its
// relations, one refused statement); some rejected — is driven over
// HTTP through a memory-only engine, a single-store engine and a
// 4-shard engine, and every reply status, every landed version, every
// script's output or error text and the final view rows must be
// identical. A follower attached to each durable engine before the
// stream must end with the same rows — script commits reach /wal/stream
// through the same feed as pipeline commits. The durable two are then
// killed and reopened, and must still agree.

// wireLit renders a value the way the wire (and, quoted, sqlish) spells
// it.
func wireLit(v value.Value) string {
	if v.Kind() == value.Int {
		return strconv.FormatInt(v.Int(), 10)
	}
	return v.Str()
}

func sqlLit(v value.Value) string {
	if v.Kind() == value.Int {
		return wireLit(v)
	}
	return "'" + v.Str() + "'"
}

func sqlLits(vals []value.Value) string {
	lits := make([]string, len(vals))
	for i, v := range vals {
		lits[i] = sqlLit(v)
	}
	return strings.Join(lits, ", ")
}

// schemaScript appends the sqlish DDL that rebuilds db's schema to ddl
// and the INSERTs that rebuild its contents to seed, relations in the
// given order (referenced relations first).
func schemaScript(ddl, seed *strings.Builder, db *storage.Database, rels []*schema.Relation, domains map[string]bool) {
	for _, rel := range rels {
		var cols []string
		for _, a := range rel.Attributes() {
			if d := a.Domain; !domains[d.Name()] {
				domains[d.Name()] = true
				if d.Kind() == value.Int {
					fmt.Fprintf(ddl, "CREATE DOMAIN %s AS INT RANGE %s TO %s;\n", d.Name(),
						wireLit(d.At(0)), wireLit(d.At(d.Size()-1)))
				} else {
					fmt.Fprintf(ddl, "CREATE DOMAIN %s AS STRING (%s);\n", d.Name(), sqlLits(d.Values()))
				}
			}
			cols = append(cols, a.Name+" "+a.Domain.Name())
		}
		cols = append(cols, "PRIMARY KEY ("+strings.Join(rel.Key(), ", ")+")")
		for _, d := range db.Schema().InclusionsFrom(rel.Name()) {
			cols = append(cols, fmt.Sprintf("FOREIGN KEY (%s) REFERENCES %s", strings.Join(d.ChildAttrs, ", "), d.Parent))
		}
		fmt.Fprintf(ddl, "CREATE TABLE %s (%s);\n", rel.Name(), strings.Join(cols, ", "))
		for _, t := range db.Tuples(rel.Name()) {
			fmt.Fprintf(seed, "INSERT INTO %s VALUES (%s);\n", rel.Name(), sqlLits(t.Values()))
		}
	}
}

// A wireOp is one request of the stream: an update route's body, or —
// when script is set — a sqlish script for /execz.
type wireOp struct {
	view, op string
	body     updateBody
	script   string
}

func wireRow(t tuple.T) []string {
	row := make([]string, len(t.Values()))
	for i, v := range t.Values() {
		row[i] = wireLit(v)
	}
	return row
}

// wireKey addresses row by its view key.
func wireKey(row tuple.T) map[string]string {
	where := map[string]string{}
	for _, k := range row.Relation().Key() {
		where[k] = wireLit(row.MustGet(k))
	}
	return where
}

// toWire spells a core.Request as the wire op a client would send.
func toWire(view string, req core.Request) wireOp {
	switch req.Kind {
	case update.Insert:
		return wireOp{view: view, op: "insert", body: updateBody{Values: wireRow(req.Tuple)}}
	case update.Delete:
		return wireOp{view: view, op: "delete", body: updateBody{Where: wireKey(req.Tuple)}}
	default:
		set := map[string]string{}
		for _, a := range req.Old.Relation().AttributeNames() {
			if req.Old.MustGet(a) != req.New.MustGet(a) {
				set[a] = wireLit(req.New.MustGet(a))
			}
		}
		return wireOp{view: view, op: "replace", body: updateBody{Where: wireKey(req.Old), Set: set}}
	}
}

// toSQL spells a core.Request as the sqlish statement a script would
// run.
func toSQL(view string, req core.Request) string {
	where := func(row tuple.T) string {
		var terms []string
		for _, k := range row.Relation().Key() {
			terms = append(terms, k+" = "+sqlLit(row.MustGet(k)))
		}
		return strings.Join(terms, " AND ")
	}
	switch req.Kind {
	case update.Insert:
		return fmt.Sprintf("INSERT INTO %s VALUES (%s);", view, sqlLits(req.Tuple.Values()))
	case update.Delete:
		return fmt.Sprintf("DELETE FROM %s WHERE %s;", view, where(req.Tuple))
	default:
		var sets []string
		for _, a := range req.Old.Relation().AttributeNames() {
			if req.Old.MustGet(a) != req.New.MustGet(a) {
				sets = append(sets, a+" = "+sqlLit(req.New.MustGet(a)))
			}
		}
		return fmt.Sprintf("UPDATE %s SET %s WHERE %s;", view, strings.Join(sets, ", "), where(req.Old))
	}
}

// freshKey returns the lowest key of rel's int key domain that db does
// not hold.
func freshKey(t *testing.T, db *storage.Database, rel *schema.Relation) int64 {
	t.Helper()
	used := map[int64]bool{}
	for _, tp := range db.Tuples(rel.Name()) {
		used[tp.At(0).Int()] = true
	}
	for _, v := range rel.Attributes()[0].Domain.Values() {
		if !used[v.Int()] {
			return v.Int()
		}
	}
	t.Fatalf("no fresh key left in %s", rel.Name())
	return 0
}

// modeStream builds the init script — the DDL every boot runs and the
// seed rows only the first does — and the op stream. Requests are
// generated against reference models advanced with the default policy,
// so most are accepted; every fifth op re-sends the request before it,
// which by then is stale (its row exists already, or no longer does)
// and must be rejected by every mode alike. Every fourth op is a
// script, cycling through the kinds of the header comment; the models
// advance by its base-level effect.
func modeStream(t *testing.T, steps int) (ddl, seed string, ops []wireOp) {
	t.Helper()
	sp := workload.MustNewSP(workload.SPConfig{Keys: 120, Attrs: 2, DomainSize: 4,
		SelectingAttrs: 1, HiddenAttrs: 1, Tuples: 30, Seed: 7})
	tree := workload.MustNewTree(workload.TreeConfig{Depth: 1, Fanout: 1, Keys: 120,
		TuplesPerRelation: 20, Seed: 11})

	domains := map[string]bool{}
	var b, rows strings.Builder
	schemaScript(&b, &rows, sp.DB, []*schema.Relation{sp.Rel}, domains)
	sel := sp.View.Selection()
	var terms []string
	for _, a := range sel.SelectingAttributes() {
		terms = append(terms, fmt.Sprintf("%s IN (%s)", a, sqlLits(sel.SelectingValues(a))))
	}
	fmt.Fprintf(&b, "CREATE VIEW V AS SELECT %s FROM R WHERE %s;\n",
		strings.Join(sp.View.Schema().AttributeNames(), ", "), strings.Join(terms, " AND "))
	// tree.Relations lists referrers before the relations they
	// reference; tables are created the other way round.
	parentsFirst := make([]*schema.Relation, len(tree.Relations))
	for i, rel := range tree.Relations {
		parentsFirst[len(parentsFirst)-1-i] = rel
	}
	schemaScript(&b, &rows, tree.DB, parentsFirst, domains)
	var edges []string
	for _, rel := range tree.Relations {
		fmt.Fprintf(&b, "CREATE VIEW %sv AS SELECT * FROM %s;\n", rel.Name(), rel.Name())
		for _, d := range tree.Schema.InclusionsFrom(rel.Name()) {
			edges = append(edges, fmt.Sprintf("%sv (%s) REFERENCES %sv", rel.Name(), strings.Join(d.ChildAttrs, ", "), d.Parent))
		}
	}
	fmt.Fprintf(&b, "CREATE JOIN VIEW TREE ROOT %sv WITH %s;\n", tree.Relations[0].Name(), strings.Join(edges, ", "))

	advance := func(tr *core.Translator, db *storage.Database, req core.Request) {
		if cand, err := tr.Translate(db, req); err == nil {
			if err := db.Apply(cand.Translation); err != nil {
				t.Fatalf("model apply: %v", err)
			}
		}
	}
	spTr := core.NewTranslator(sp.View, core.Simplest{})
	treeTr := core.NewTranslator(tree.View, core.Simplest{})
	rootPay := tree.Relations[0].AttributeNames()[1]
	kinds := []update.Kind{update.Insert, update.Replace, update.Delete}
	model := func(db *storage.Database, ops ...update.Op) {
		if err := db.Apply(update.NewTranslation(ops...)); err != nil {
			t.Fatalf("model apply: %v", err)
		}
	}
	// An R row outside the view (A0 is not a selecting value), so base
	// DML on it never collides with what the V requests reach for.
	hidden := func(k int64, a1 string) tuple.T {
		return tuple.MustNew(sp.Rel, value.NewInt(k), value.NewString("v02"), value.NewString(a1))
	}
	insertR := func(row tuple.T) string {
		return fmt.Sprintf("INSERT INTO R VALUES (%s);", sqlLits(row.Values()))
	}
	var lastHidden tuple.T
	scripts := 0
	nextScript := func() string {
		defer func() { scripts++ }()
		switch scripts % 7 {
		case 0: // base-table INSERT
			lastHidden = hidden(freshKey(t, sp.DB, sp.Rel), "v00")
			model(sp.DB, update.NewInsert(lastHidden))
			return insertR(lastHidden)
		case 1: // base-table UPDATE
			moved := lastHidden.MustWith("A1", value.NewString("v03"))
			model(sp.DB, update.NewReplace(lastHidden, moved))
			lastHidden = moved
			return fmt.Sprintf("UPDATE R SET A1 = 'v03' WHERE K = %s;", wireLit(moved.At(0)))
		case 2: // a refused statement: the key exists
			return insertR(lastHidden)
		case 3: // base-table DELETE
			model(sp.DB, update.NewDelete(lastHidden))
			return fmt.Sprintf("DELETE FROM R WHERE K = %s;", wireLit(lastHidden.At(0)))
		case 4: // a view update
			req, ok := sp.NextRequest(update.Insert)
			if !ok {
				t.Fatal("no insert request left for V")
			}
			advance(spTr, sp.DB, req)
			return toSQL("V", req)
		case 5: // one transaction: COMMIT lands its two inserts as one translation
			a := hidden(freshKey(t, sp.DB, sp.Rel), "v01")
			model(sp.DB, update.NewInsert(a))
			b := hidden(freshKey(t, sp.DB, sp.Rel), "v02")
			model(sp.DB, update.NewInsert(b))
			return "BEGIN;\n" + insertR(a) + "\n" + insertR(b) + "\nCOMMIT;"
		default: // a join-view insert under a parent that does not exist yet:
			// SPJ-I inserts into both relations, so on 4 shards the one
			// translation takes the two-phase route when the keys hash apart.
			root, parent := tree.Relations[0], tree.Relations[1]
			k0, k1 := freshKey(t, tree.DB, root), freshKey(t, tree.DB, parent)
			req := core.InsertRequest(tuple.MustNew(tree.View.Schema(), value.NewInt(k0), value.NewInt(1),
				value.NewInt(k1), value.NewInt(k1), value.NewInt(2)))
			advance(treeTr, tree.DB, req)
			return toSQL("TREE", req)
		}
	}
	for step := 0; len(ops) < steps; step++ {
		if len(ops)%5 == 4 && ops[len(ops)-1].script == "" {
			ops = append(ops, ops[len(ops)-1])
			continue
		}
		if len(ops)%4 == 2 {
			ops = append(ops, wireOp{script: nextScript()})
			continue
		}
		kind := kinds[step%len(kinds)]
		if step%2 == 0 {
			if req, ok := sp.NextRequest(kind); ok {
				ops = append(ops, toWire("V", req))
				advance(spTr, sp.DB, req)
			}
			continue
		}
		var req core.Request
		ok := false
		switch kind {
		case update.Insert:
			req, ok = tree.InsertRequestForFreshRoot()
		case update.Delete:
			var row tuple.T
			if row, ok = tree.RandomRow(); ok {
				req = core.DeleteRequest(row)
			}
		default:
			var row tuple.T
			if row, ok = tree.RandomRow(); ok {
				pay := (row.MustGet(rootPay).Int() + 1) % 100
				req = core.ReplaceRequest(row, row.MustWith(rootPay, value.NewInt(pay)))
			}
		}
		if ok {
			ops = append(ops, toWire("TREE", req))
			advance(treeTr, tree.DB, req)
		}
	}
	return b.String(), rows.String(), ops
}

// A modeRun is everything one engine showed the client; texts holds a
// script's output or error text ("" for update routes).
type modeRun struct {
	statuses []int
	versions []uint64
	texts    []string
	views    string
}

// readViews renders both views' rows, sorted, as one comparable string.
func readViews(t *testing.T, url string) string {
	t.Helper()
	var b strings.Builder
	for _, v := range []string{"V", "TREE"} {
		var reply rowsReply
		if st := doJSON(t, http.MethodGet, url+"/views/"+v, nil, &reply); st != http.StatusOK {
			t.Fatalf("reading %s: status %d", v, st)
		}
		rows := make([]string, len(reply.Rows))
		for i, row := range reply.Rows {
			rows[i] = strings.Join(row, ",")
		}
		sort.Strings(rows)
		fmt.Fprintf(&b, "%s %v: %s\n", v, reply.Columns, strings.Join(rows, " | "))
	}
	return b.String()
}

func TestModeEquivalence(t *testing.T) {
	sink := metricsSink(t)
	ddl, seed, ops := modeStream(t, 120)
	modes := []struct {
		name string
		cfg  Config
	}{
		{"memory", Config{}},
		{"store", Config{Dir: t.TempDir()}},
		{"sharded", Config{Dir: t.TempDir(), Shards: 4}},
	}
	var ref modeRun
	for i, m := range modes {
		e, err := NewEngine(m.cfg, ddl+seed)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		srv := httptest.NewServer(NewHandler(e))
		// The follower attaches before the stream, so every commit of the
		// stream reaches it over /wal/stream rather than in its bootstrap
		// snapshot.
		var fol *Engine
		var fsrv *httptest.Server
		if m.cfg.Dir != "" {
			if fol, err = NewEngine(Config{Follow: srv.URL}, ddl); err != nil {
				t.Fatalf("%s: follower: %v", m.name, err)
			}
			fsrv = httptest.NewServer(NewHandler(fol))
		}
		crossBefore := sink.Metrics().Snapshot().Counters["server.cross.commits"]
		var run modeRun
		for _, o := range ops {
			if o.script != "" {
				var reply struct {
					Output string `json:"output"`
					Error  string `json:"error"`
				}
				st := doJSON(t, http.MethodPost, srv.URL+"/execz", execBody{Script: o.script}, &reply)
				run.statuses = append(run.statuses, st)
				run.versions = append(run.versions, 0)
				run.texts = append(run.texts, reply.Output+reply.Error)
				continue
			}
			var reply updateReply
			st := doJSON(t, http.MethodPost, srv.URL+"/views/"+o.view+"/"+o.op, o.body, &reply)
			run.statuses = append(run.statuses, st)
			run.versions = append(run.versions, reply.Version)
			run.texts = append(run.texts, "")
		}
		run.views = readViews(t, srv.URL)
		if fol != nil {
			waitUntil(t, 5*time.Second, m.name+" follower to show the primary's rows", func() bool {
				return readViews(t, fsrv.URL) == run.views
			})
			fsrv.Close()
			if err := fol.Close(); err != nil {
				t.Fatalf("%s: closing follower: %v", m.name, err)
			}
		}
		srv.Close()
		e.Kill()
		if cross := sink.Metrics().Snapshot().Counters["server.cross.commits"] - crossBefore; (cross > 0) != (m.cfg.Shards > 1) {
			t.Fatalf("%s: %d two-phase commits; the join-view scripts must take that route on 4 shards and nowhere else", m.name, cross)
		}

		if i == 0 {
			ref = run
			accepted, refusedScripts := 0, 0
			for k, st := range run.statuses {
				if st == http.StatusOK {
					accepted++
				} else if ops[k].script != "" {
					refusedScripts++
				}
			}
			if accepted < len(ops)/2 || accepted == len(ops) || refusedScripts == 0 {
				t.Fatalf("stream is not a useful mix: %d of %d ops accepted, %d scripts refused (statuses %v)",
					accepted, len(ops), refusedScripts, run.statuses)
			}
			continue
		}
		for k := range ops {
			if run.statuses[k] != ref.statuses[k] || run.versions[k] != ref.versions[k] || run.texts[k] != ref.texts[k] {
				t.Fatalf("%s: op %d (%s %s %+v %s) answered status %d version %d %q, memory-only answered %d / %d / %q",
					m.name, k, ops[k].op, ops[k].view, ops[k].body, ops[k].script,
					run.statuses[k], run.versions[k], run.texts[k], ref.statuses[k], ref.versions[k], ref.texts[k])
			}
		}
		if run.views != ref.views {
			t.Fatalf("%s: final views\n%s\nmemory-only\n%s", m.name, run.views, ref.views)
		}

		// The crash: Kill skipped the checkpoint, so the reopened engine
		// recovers from the WAL(s) alone.
		e2, err := NewEngine(m.cfg, ddl)
		if err != nil {
			t.Fatalf("%s: reopening: %v", m.name, err)
		}
		srv2 := httptest.NewServer(NewHandler(e2))
		recovered := readViews(t, srv2.URL)
		srv2.Close()
		if err := e2.Close(); err != nil {
			t.Fatalf("%s: closing reopened engine: %v", m.name, err)
		}
		if recovered != ref.views {
			t.Fatalf("%s: views after kill + reopen\n%s\nwant\n%s", m.name, recovered, ref.views)
		}
	}
}
