package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

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
// an SP view and a join view; inserts, replaces and deletes; some
// rejected — is driven over HTTP through a memory-only engine, a
// single-store engine and a 4-shard engine, and every reply status,
// every landed version and the final view rows must be identical. The
// durable two are then killed and reopened, and must still agree.

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

// A wireOp is one update request of the stream.
type wireOp struct {
	view, op string
	body     updateBody
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
		return wireOp{view, "insert", updateBody{Values: wireRow(req.Tuple)}}
	case update.Delete:
		return wireOp{view, "delete", updateBody{Where: wireKey(req.Tuple)}}
	default:
		set := map[string]string{}
		for _, a := range req.Old.Relation().AttributeNames() {
			if req.Old.MustGet(a) != req.New.MustGet(a) {
				set[a] = wireLit(req.New.MustGet(a))
			}
		}
		return wireOp{view, "replace", updateBody{Where: wireKey(req.Old), Set: set}}
	}
}

// modeStream builds the init script — the DDL every boot runs and the
// seed rows only the first does — and the op stream. Requests are
// generated against reference models advanced with the default policy,
// so most are accepted; every fifth op re-sends the request before it,
// which by then is stale (its row exists already, or no longer does)
// and must be rejected by every mode alike.
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
	spTr := core.NewTranslator(sp.View, core.PickFirst{})
	treeTr := core.NewTranslator(tree.View, core.PickFirst{})
	rootPay := tree.Relations[0].AttributeNames()[1]
	kinds := []update.Kind{update.Insert, update.Replace, update.Delete}
	for step := 0; len(ops) < steps; step++ {
		if len(ops)%5 == 4 {
			ops = append(ops, ops[len(ops)-1])
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

// A modeRun is everything one engine showed the client.
type modeRun struct {
	statuses []int
	versions []uint64
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
	ddl, seed, ops := modeStream(t, 90)
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
		var run modeRun
		for _, o := range ops {
			var reply updateReply
			st := doJSON(t, http.MethodPost, srv.URL+"/views/"+o.view+"/"+o.op, o.body, &reply)
			run.statuses = append(run.statuses, st)
			run.versions = append(run.versions, reply.Version)
		}
		run.views = readViews(t, srv.URL)
		srv.Close()
		e.Kill()

		if i == 0 {
			ref = run
			accepted := 0
			for _, st := range run.statuses {
				if st == http.StatusOK {
					accepted++
				}
			}
			if accepted < len(ops)/2 || accepted == len(ops) {
				t.Fatalf("stream is not a useful mix: %d of %d ops accepted (statuses %v)", accepted, len(ops), run.statuses)
			}
			continue
		}
		for k := range ops {
			if run.statuses[k] != ref.statuses[k] || run.versions[k] != ref.versions[k] {
				t.Fatalf("%s: op %d (%s %s %+v) answered status %d version %d, memory-only answered %d / %d",
					m.name, k, ops[k].op, ops[k].view, ops[k].body, run.statuses[k], run.versions[k], ref.statuses[k], ref.versions[k])
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
