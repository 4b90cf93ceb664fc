package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// An op is one request of the generated stream. The server only ever
// sees ops; the seed never reaches it.
type op struct {
	Client int    `json:"client"`
	Kind   string `json:"kind"` // insert | replace | delete | read
	Step   string `json:"step"` // which step of the client's cycle
	View   string `json:"view"`
	// Values is the positional row of an insert; Where the key equality
	// of a delete, replace or point read; Set the assignments of a
	// replace.
	Values []string          `json:"values,omitempty"`
	Where  map[string]string `json:"where,omitempty"`
	Set    map[string]string `json:"set,omitempty"`
}

func (o op) isRead() bool { return o.Kind == "read" }

// keyMoving reports whether a replace assigns the view's key (its
// first column), the case whose default translation leaks a base row.
func (o op) keyMoving(keyCol string) bool {
	_, ok := o.Set[keyCol]
	return o.Kind == "replace" && ok
}

// readback is the point read that shows what an acknowledged update
// did: the row an insert or replace left behind, or the absence of the
// row a delete removed. keyCol is the view's key column.
func (o op) readback(keyCol string) op {
	key := o.Where[keyCol]
	if o.Kind == "insert" {
		key = o.Values[0]
	} else if to, ok := o.Set[keyCol]; ok {
		key = to
	}
	return op{Client: o.Client, Kind: "read", Step: "readback", View: o.View, Where: map[string]string{keyCol: key}}
}

// A generator yields one client's ops. It is a pure function of the
// workload, the seed and the client number: it never looks at replies,
// which is sound because the workloads are built so that no op fails.
type generator interface{ next() op }

// A keyRing hands out the keys lo+1..lo+span in order from a seeded
// starting point and wraps, so a client's keys stay inside its
// partition and a run of any length never exhausts the domain. Every
// key is dead again (deleted) long before the ring comes back to it.
type keyRing struct {
	lo, span, i int64
}

func newKeyRing(rng *rand.Rand, lo, span int64) *keyRing {
	return &keyRing{lo: lo, span: span, i: rng.Int63n(span)}
}

func (r *keyRing) next() string {
	k := r.lo + 1 + r.i%r.span
	r.i++
	return strconv.FormatInt(k, 10)
}

// cycleGen turns a function that builds one whole cycle into a
// generator.
type cycleGen struct {
	queue []op
	build func() []op
}

func (g *cycleGen) next() op {
	if len(g.queue) == 0 {
		g.queue = g.build()
	}
	o := g.queue[0]
	g.queue = g.queue[1:]
	return o
}

func itoa(i int) string { return strconv.Itoa(i) }

// A baseRow is one seeded tuple: relation name plus values in schema
// order, key first.
type baseRow struct {
	rel  string
	vals []string
}

// insertScript renders seeded rows as sqlish INSERT statements.
func insertScript(rows []baseRow) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString("INSERT INTO ")
		b.WriteString(r.rel)
		b.WriteString(" VALUES (")
		for i, v := range r.vals {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(sqlLit(v))
		}
		b.WriteString(");\n")
	}
	return b.String()
}

// A workload is one traffic mix with the schema it runs on.
type workload struct {
	name string
	why  string
	// ddl defines domains, tables, views and policies; it is the
	// server's -init script. The seeded rows are appended to it on the
	// in-memory workloads and posted to /execz once after the first
	// boot on the durable ones, because a restart re-runs -init over the
	// recovered store and a second INSERT of the same row would fail.
	ddl     string
	seed    []baseRow
	durable bool
	flags   []string // extra vuserved flags
	shards  int      // for the in-process engines of the traced run
	views   []viewDef
	// opViews are the views the ops address; they are read once during
	// set-up so the measured window starts with a warm view cache. The
	// identity views stay cold until the final check.
	opViews []string
	// cols maps a relation to its column names, key first.
	cols      map[string][]string
	newClient func(seed int64, client int) generator
	// readBack marks a workload none of whose clients reads. The driver
	// wants every end-to-end metric from every workload, so the read
	// metrics of such a workload come from a phase of its own after the
	// measured window, in which every acknowledged update is followed by
	// the point read of the row it wrote (README, Load shape).
	readBack bool
}

const clients = 2 // = nproc on the reference box; one keep-alive connection each

func clientRNG(name string, seed int64, client int) *rand.Rand {
	h := int64(0)
	for _, c := range name {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + h))
}

func workloads() []*workload {
	return []*workload{spSmallDurable(), spLargeMixed(), spjMidMem(), spjShardedDurable()}
}

// spSmallDurable is the `make serve-bench` schema and op rotation on a
// real data directory: the view holds a handful of rows, so the time
// goes to HTTP, the wire codec, the commit queue, the WAL append and
// the fsync.
func spSmallDurable() *workload {
	const keys = 100000
	return &workload{
		name:    "sp_small_durable",
		why:     "tiny SP view on a durable store: HTTP, wire codec, commit queue, WAL append and fsync do the work; core, view and storage almost none",
		durable: true,
		ddl: `CREATE DOMAIN KeyDom AS INT RANGE 1 TO 100000;
CREATE DOMAIN LocDom AS STRING ('New York', 'San Francisco', 'Austin');
CREATE TABLE EMP (EmpNo KeyDom, Location LocDom, PRIMARY KEY (EmpNo));
CREATE VIEW NY AS SELECT * FROM EMP WHERE Location = 'New York';
CREATE VIEW EMPALL AS SELECT * FROM EMP;
SET POLICY NY PREFER 'R-1', 'R-2', 'I-1', 'D-1';
`,
		cols: map[string][]string{"EMP": {"EmpNo", "Location"}},
		views: []viewDef{
			{name: "NY", rel: "EMP", selCol: 1, selVal: "New York"},
			{name: "EMPALL", rel: "EMP", selCol: -1},
		},
		opViews:  []string{"NY"},
		readBack: true,
		newClient: func(seed int64, client int) generator {
			rng := clientRNG("sp_small_durable", seed, client)
			span := int64(keys / clients)
			ring := newKeyRing(rng, int64(client)*span, span)
			return &cycleGen{build: func() []op {
				k1, k2 := ring.next(), ring.next()
				return []op{
					{Client: client, Kind: "insert", Step: "insert", View: "NY", Values: []string{k1, "New York"}},
					{Client: client, Kind: "replace", Step: "replace_key", View: "NY",
						Where: map[string]string{"EmpNo": k1}, Set: map[string]string{"EmpNo": k2}},
					{Client: client, Kind: "delete", Step: "delete", View: "NY", Where: map[string]string{"EmpNo": k2}},
				}
			}}
		},
	}
}

// spLargeMixed is the same SP path over a working set of 15,000 base
// rows, 5,000 of them in the view, with one writer and one reader on
// the same view and the default policy.
func spLargeMixed() *workload {
	const seeded, depts = 15000, 100
	locs := []string{"New York", "San Francisco", "Austin"}
	var seed []baseRow
	for i := 1; i <= seeded; i++ {
		seed = append(seed, baseRow{"EMP", []string{itoa(i), itoa(i%depts + 1), locs[i%3]}})
	}
	return &workload{
		name: "sp_large_mixed",
		why:  "15k-row base, 5k-row SP view, one writer beside one point reader, default policy: verify, the COW clone, publish/IVM patch and the view cache do the work; wal and persist none",
		ddl: `CREATE DOMAIN EKey AS INT RANGE 1 TO 100000;
CREATE DOMAIN DKey AS INT RANGE 1 TO 100;
CREATE DOMAIN LocDom AS STRING ('New York', 'San Francisco', 'Austin');
CREATE TABLE EMP (ENo EKey, Dept DKey, Loc LocDom, PRIMARY KEY (ENo));
CREATE VIEW NY AS SELECT * FROM EMP WHERE Loc = 'New York';
CREATE VIEW EMPALL AS SELECT * FROM EMP;
`,
		seed: seed,
		cols: map[string][]string{"EMP": {"ENo", "Dept", "Loc"}},
		views: []viewDef{
			{name: "NY", rel: "EMP", selCol: 2, selVal: "New York"},
			{name: "EMPALL", rel: "EMP", selCol: -1},
		},
		opViews: []string{"NY"},
		newClient: func(seed int64, client int) generator {
			rng := clientRNG("sp_large_mixed", seed, client)
			if client == 1 {
				// The reader picks seeded view rows, which the writer
				// never touches, so every read has exactly one live row.
				return &cycleGen{build: func() []op {
					k := itoa(3 * (1 + rng.Intn(seeded/3)))
					return []op{{Client: client, Kind: "read", Step: "read_point", View: "NY", Where: map[string]string{"ENo": k}}}
				}}
			}
			ring := newKeyRing(rng, seeded, 100000-seeded)
			return &cycleGen{build: func() []op {
				k1, k2 := ring.next(), ring.next()
				d1 := 1 + rng.Intn(depts)
				d2 := 1 + (d1+rng.Intn(depts-1))%depts // != d1
				return []op{
					{Client: client, Kind: "insert", Step: "insert", View: "NY", Values: []string{k1, itoa(d1), "New York"}},
					{Client: client, Kind: "replace", Step: "replace_payload", View: "NY",
						Where: map[string]string{"ENo": k1}, Set: map[string]string{"Dept": itoa(d2)}},
					{Client: client, Kind: "replace", Step: "replace_key", View: "NY",
						Where: map[string]string{"ENo": k1}, Set: map[string]string{"ENo": k2}},
					{Client: client, Kind: "delete", Step: "delete", View: "NY", Where: map[string]string{"ENo": k2}},
				}
			}}
		},
	}
}

// A deptBook is a writer's own record of the DEPT rows in its
// partition, which it needs to spell out the parent columns of a join
// view row.
type deptBook struct {
	own    []int       // seeded DEPT keys this client may write
	budget map[int]int // current Budget of each
}

func newDeptBook(client, seeded int, budgetOf func(int) int) *deptBook {
	b := &deptBook{budget: map[int]int{}}
	for d := 1; d <= seeded; d++ {
		if (d-1)%clients == client {
			b.own = append(b.own, d)
			b.budget[d] = budgetOf(d)
		}
	}
	return b
}

// pick returns a random own DEPT other than not (0 for any).
func (b *deptBook) pick(rng *rand.Rand, not int) int {
	for {
		if d := b.own[rng.Intn(len(b.own))]; d != not {
			return d
		}
	}
}

// spjMidMem is a three-relation reference chain under one join view,
// in memory, with two writers.
func spjMidMem() *workload {
	const divs, depts, emps, maxFunds = 25, 250, 5000, 1000
	divOf := func(d int) int { return (d-1)%divs + 1 }
	headOf := func(v int) int { return v * 7 % (maxFunds + 1) }
	budget0 := func(d int) int { return d % (maxFunds + 1) }
	var seed []baseRow
	for v := 1; v <= divs; v++ {
		seed = append(seed, baseRow{"DIV", []string{itoa(v), itoa(headOf(v))}})
	}
	for d := 1; d <= depts; d++ {
		seed = append(seed, baseRow{"DEPT", []string{itoa(d), itoa(divOf(d)), itoa(budget0(d))}})
	}
	for e := 1; e <= emps; e++ {
		seed = append(seed, baseRow{"EMP", []string{itoa(e), itoa((e-1)%depts + 1)}})
	}
	// row spells out a view row: EMP columns, then its DEPT's, then
	// that DEPT's DIV's.
	row := func(e string, d, v, budget int) []string {
		return []string{e, itoa(d), itoa(d), itoa(v), itoa(budget), itoa(v), itoa(headOf(v))}
	}
	return &workload{
		name: "spj_mid_mem",
		why:  "DIV(25) <- DEPT(250) <- EMP(5000) under one join view, in memory, two writers: SPJ-I/SPJ-R composition, candidate enumeration and Join.DeltaForChange do the work; an SP-only fix should not move it",
		ddl: `CREATE DOMAIN EKey AS INT RANGE 1 TO 100000;
CREATE DOMAIN DKey AS INT RANGE 1 TO 20000;
CREATE DOMAIN VKey AS INT RANGE 1 TO 100;
CREATE DOMAIN Funds AS INT RANGE 0 TO 1000;
CREATE TABLE DIV (VNo VKey, Head Funds, PRIMARY KEY (VNo));
CREATE TABLE DEPT (DNo DKey, Div VKey, Budget Funds, PRIMARY KEY (DNo),
                   FOREIGN KEY (Div) REFERENCES DIV);
CREATE TABLE EMP (ENo EKey, Dept DKey, PRIMARY KEY (ENo),
                  FOREIGN KEY (Dept) REFERENCES DEPT);
CREATE VIEW VV AS SELECT * FROM DIV;
CREATE VIEW DV AS SELECT * FROM DEPT;
CREATE VIEW EV AS SELECT * FROM EMP;
CREATE JOIN VIEW EDD ROOT EV WITH EV (Dept) REFERENCES DV, DV (Div) REFERENCES VV;
`,
		seed: seed,
		cols: map[string][]string{"DIV": {"VNo", "Head"}, "DEPT": {"DNo", "Div", "Budget"}, "EMP": {"ENo", "Dept"}},
		views: []viewDef{
			{name: "EDD", rel: "EMP", selCol: -1, joins: []joinStep{{fromCol: 1, rel: "DEPT"}, {fromCol: 3, rel: "DIV"}}},
			{name: "EV", rel: "EMP", selCol: -1},
			{name: "DV", rel: "DEPT", selCol: -1},
			{name: "VV", rel: "DIV", selCol: -1},
		},
		opViews:  []string{"EDD"},
		readBack: true,
		newClient: func(seed int64, client int) generator {
			rng := clientRNG("spj_mid_mem", seed, client)
			book := newDeptBook(client, depts, budget0)
			const empSpan, deptSpan = (100000 - emps) / clients, (20000 - depts) / clients
			empRing := newKeyRing(rng, int64(emps+client*empSpan), empSpan)
			deptRing := newKeyRing(rng, int64(depts+client*deptSpan), deptSpan)
			return &cycleGen{build: func() []op {
				a, b, nd := empRing.next(), empRing.next(), deptRing.next()
				ndi, _ := strconv.Atoi(nd)
				dA := book.pick(rng, 0)
				d2 := book.pick(rng, dA)
				newBudget := (book.budget[dA] + 1 + rng.Intn(maxFunds)) % (maxFunds + 1) // != current
				ndDiv, ndBudget := 1+rng.Intn(divs), rng.Intn(maxFunds+1)
				rowD2 := row(a, d2, divOf(d2), book.budget[d2])
				cols := []string{"ENo", "Dept", "DNo", "Div", "Budget", "VNo", "Head"}
				move := map[string]string{}
				for i := 1; i < len(cols); i++ {
					move[cols[i]] = rowD2[i]
				}
				ops := []op{
					{Client: client, Kind: "insert", Step: "insert", View: "EDD", Values: row(a, dA, divOf(dA), book.budget[dA])},
					{Client: client, Kind: "insert", Step: "insert_new_parent", View: "EDD", Values: row(b, ndi, ndDiv, ndBudget)},
					{Client: client, Kind: "replace", Step: "replace_nonroot", View: "EDD",
						Where: map[string]string{"ENo": a}, Set: map[string]string{"Budget": itoa(newBudget)}},
					{Client: client, Kind: "replace", Step: "replace_root", View: "EDD", Where: map[string]string{"ENo": a}, Set: move},
					{Client: client, Kind: "delete", Step: "delete", View: "EDD", Where: map[string]string{"ENo": a}},
					{Client: client, Kind: "delete", Step: "delete", View: "EDD", Where: map[string]string{"ENo": b}},
					// A join-view delete removes only the root tuple, so the
					// parent made in step two goes through its own view;
					// otherwise DEPT would grow for the length of the run.
					{Client: client, Kind: "delete", Step: "delete_parent", View: "DV", Where: map[string]string{"DNo": nd}},
				}
				book.budget[dA] = newBudget
				return ops
			}}
		},
	}
}

// spjShardedDurable is the bench_shard_test.go schema on four shards
// and a real data directory.
func spjShardedDurable() *workload {
	const depts, maxFunds = 200, 100
	budget0 := func(d int) int { return d % (maxFunds + 1) }
	var seed []baseRow
	for d := 1; d <= depts; d++ {
		seed = append(seed, baseRow{"DEPT", []string{itoa(d), itoa(budget0(d))}})
	}
	row := func(e string, d, budget int) []string { return []string{e, itoa(d), itoa(d), itoa(budget)} }
	return &workload{
		name:    "spj_sharded_durable",
		why:     "DEPT/EMP join view on 4 shards and a real disk, two writers, one update in six two-relation (2PC when the keys hash apart): sequencer, shard committers, acker and prepare/decision barriers do the work",
		durable: true,
		flags:   []string{"-shards", "4"},
		shards:  4,
		ddl: `CREATE DOMAIN EKey AS INT RANGE 1 TO 100000;
CREATE DOMAIN DKey AS INT RANGE 1 TO 100000;
CREATE DOMAIN Funds AS INT RANGE 0 TO 100;
CREATE TABLE DEPT (DNo DKey, Budget Funds, PRIMARY KEY (DNo));
CREATE TABLE EMP (ENo EKey, Dept DKey, PRIMARY KEY (ENo),
                  FOREIGN KEY (Dept) REFERENCES DEPT);
CREATE VIEW DV AS SELECT * FROM DEPT;
CREATE VIEW EV AS SELECT * FROM EMP;
CREATE JOIN VIEW ED ROOT EV WITH EV (Dept) REFERENCES DV;
`,
		seed: seed,
		cols: map[string][]string{"DEPT": {"DNo", "Budget"}, "EMP": {"ENo", "Dept"}},
		views: []viewDef{
			{name: "ED", rel: "EMP", selCol: -1, joins: []joinStep{{fromCol: 1, rel: "DEPT"}}},
			{name: "EV", rel: "EMP", selCol: -1},
			{name: "DV", rel: "DEPT", selCol: -1},
		},
		opViews:  []string{"ED"},
		readBack: true,
		newClient: func(seed int64, client int) generator {
			rng := clientRNG("spj_sharded_durable", seed, client)
			book := newDeptBook(client, depts, budget0)
			const empSpan, deptSpan = 100000 / clients, (100000 - depts) / clients
			empRing := newKeyRing(rng, int64(client*empSpan), empSpan)
			deptRing := newKeyRing(rng, int64(depts+client*deptSpan), deptSpan)
			return &cycleGen{build: func() []op {
				a, b, nd := empRing.next(), empRing.next(), deptRing.next()
				ndi, _ := strconv.Atoi(nd)
				dA := book.pick(rng, 0)
				d2 := book.pick(rng, dA)
				// The sharded pipeline hands a commit to the shard committers
				// before it publishes the snapshot, so an ack can overtake
				// the publish and the very next request still sees the old
				// state (README, Findings). The sequencer is serial, though:
				// once a client's later update is acked, its earlier one is
				// published. So every op here depends only on updates that
				// have another acked update of the same client after them;
				// the read-back phase, which reads straight after every
				// ack, is where the defect stays visible (server.stale_reads).
				return []op{
					{Client: client, Kind: "insert", Step: "insert", View: "ED", Values: row(a, dA, book.budget[dA])},
					{Client: client, Kind: "insert", Step: "insert_new_parent", View: "ED", Values: row(b, ndi, rng.Intn(maxFunds+1))},
					{Client: client, Kind: "replace", Step: "replace_root", View: "ED", Where: map[string]string{"ENo": a},
						Set: map[string]string{"Dept": itoa(d2), "DNo": itoa(d2), "Budget": itoa(book.budget[d2])}},
					{Client: client, Kind: "delete", Step: "delete", View: "ED", Where: map[string]string{"ENo": b}},
					{Client: client, Kind: "delete", Step: "delete", View: "ED", Where: map[string]string{"ENo": a}},
					{Client: client, Kind: "delete", Step: "delete_parent", View: "DV", Where: map[string]string{"DNo": nd}},
				}
			}}
		},
	}
}

// dml renders the sqlish statement equivalent to an update op, for the
// parser's standalone timing.
func (o op) dml() string {
	eq := func(m map[string]string, sep string) string {
		keys := sortedKeys(m)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s = %s", k, sqlLit(m[k]))
		}
		return strings.Join(parts, sep)
	}
	switch o.Kind {
	case "insert":
		lits := make([]string, len(o.Values))
		for i, v := range o.Values {
			lits[i] = sqlLit(v)
		}
		return fmt.Sprintf("INSERT INTO %s VALUES (%s)", o.View, strings.Join(lits, ", "))
	case "delete":
		return fmt.Sprintf("DELETE FROM %s WHERE %s", o.View, eq(o.Where, " AND "))
	case "replace":
		return fmt.Sprintf("UPDATE %s SET %s WHERE %s", o.View, eq(o.Set, ", "), eq(o.Where, " AND "))
	default:
		return fmt.Sprintf("SELECT * FROM %s WHERE %s", o.View, eq(o.Where, " AND "))
	}
}

func sqlLit(v string) string {
	if _, err := strconv.Atoi(v); err == nil {
		return v
	}
	return "'" + v + "'"
}
