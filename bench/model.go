package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// A viewDef is the client-side definition of a server view, evaluated
// over the model's base tables: rows of rel, optionally selected on one
// column, optionally extended along a chain of references. Every
// relation's key is its first column.
type viewDef struct {
	name   string
	rel    string
	selCol int // -1 for no selection
	selVal string
	joins  []joinStep
}

// A joinStep appends the columns of the rel row whose key equals the
// accumulated row's column fromCol.
type joinStep struct {
	fromCol int
	rel     string
}

// A model is the benchmark's own copy of the database. Base tables
// change only by the operations the server acknowledged (every update
// reply lists the base operations of its translation); views are then
// computed from the base tables here, independently of the server. That
// checks two things the server could get wrong: that the translation it
// chose implements the view update that was asked for, and that its
// state is exactly the sum of what it acknowledged.
//
// All clients share one model. They write disjoint keys, so the order
// in which their acknowledgements interleave does not matter.
type model struct {
	mu    sync.Mutex
	base  map[string]map[string][]string // relation -> key -> row
	views map[string]viewDef
	cols  map[string][]string // view -> column names, key first
	// keyMoves counts acknowledged key-moving replaces, the
	// denominator of storage.leaked_rows_per_replace.
	keyMoves int
	// commits counts acknowledged updates since boot, the denominator
	// of persist.recovery_us_per_commit.
	commits int
	// leaked is the number of base rows the acknowledged translations
	// left behind beyond what the view updates asked for.
	leaked int
}

// netRows is the change in base rows a step's view update asks for; a
// translation that nets more leaves rows behind.
var netRows = map[string]int{"insert": 1, "insert_new_parent": 2, "delete": -1, "delete_parent": -1}

func newModel(w *workload) *model {
	m := &model{base: map[string]map[string][]string{}, views: map[string]viewDef{}, cols: map[string][]string{}}
	for rel := range w.cols {
		m.base[rel] = map[string][]string{}
	}
	for _, r := range w.seed {
		m.base[r.rel][r.vals[0]] = r.vals
	}
	for _, v := range w.views {
		m.views[v.name] = v
		cols := append([]string(nil), w.cols[v.rel]...)
		for _, j := range v.joins {
			cols = append(cols, w.cols[j.rel]...)
		}
		m.cols[v.name] = cols
	}
	return m
}

// row evaluates the view for one root key.
func (m *model) row(v viewDef, key string) ([]string, bool) {
	root, ok := m.base[v.rel][key]
	if !ok || (v.selCol >= 0 && root[v.selCol] != v.selVal) {
		return nil, false
	}
	if len(v.joins) == 0 {
		return root, true
	}
	out := append([]string(nil), root...)
	for _, j := range v.joins {
		parent, ok := m.base[j.rel][out[j.fromCol]]
		if !ok {
			return nil, false
		}
		out = append(out, parent...)
	}
	return out, true
}

// rows evaluates the whole view, keyed by root key.
func (m *model) rows(v viewDef) map[string][]string {
	out := make(map[string][]string, len(m.base[v.rel]))
	for key := range m.base[v.rel] {
		if r, ok := m.row(v, key); ok {
			out[key] = r
		}
	}
	return out
}

// A baseOp is one parsed operation of an acknowledged translation.
type baseOp struct {
	kind     string // INSERT | DELETE | REPLACE
	rel      string
	old, new []string
}

// parseTuple parses "EMP(20005, 9, 'New York')".
func parseTuple(s string) (rel string, vals []string, err error) {
	open := strings.IndexByte(s, '(')
	if open <= 0 || !strings.HasSuffix(s, ")") {
		return "", nil, fmt.Errorf("malformed tuple %q", s)
	}
	rel = s[:open]
	var cur strings.Builder
	quoted := false
	for _, c := range s[open+1 : len(s)-1] {
		switch {
		case c == '\'':
			quoted = !quoted
		case c == ',' && !quoted:
			vals = append(vals, cur.String())
			cur.Reset()
		case c == ' ' && !quoted:
		default:
			cur.WriteRune(c)
		}
	}
	if quoted {
		return "", nil, fmt.Errorf("unterminated string in %q", s)
	}
	return rel, append(vals, cur.String()), nil
}

// parseBaseOp parses one entry of an update reply's "ops".
func parseBaseOp(s string) (baseOp, error) {
	kind, rest, ok := strings.Cut(s, " ")
	if !ok {
		return baseOp{}, fmt.Errorf("malformed op %q", s)
	}
	o := baseOp{kind: kind}
	var err error
	switch kind {
	case "INSERT":
		o.rel, o.new, err = parseTuple(rest)
	case "DELETE":
		o.rel, o.old, err = parseTuple(rest)
	case "REPLACE":
		before, after, ok := strings.Cut(rest, " -> ")
		if !ok {
			return baseOp{}, fmt.Errorf("malformed replace %q", s)
		}
		if o.rel, o.old, err = parseTuple(before); err == nil {
			_, o.new, err = parseTuple(after)
		}
	default:
		err = fmt.Errorf("unknown op kind in %q", s)
	}
	return o, err
}

func sameRow(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// applyBase applies one acknowledged base operation, refusing any that
// does not fit the model's state: the server then acknowledged
// something it cannot have done.
func (m *model) applyBase(o baseOp) error {
	tbl, ok := m.base[o.rel]
	if !ok {
		return fmt.Errorf("op on unknown relation %s", o.rel)
	}
	if o.old != nil {
		if cur, ok := tbl[o.old[0]]; !ok || !sameRow(cur, o.old) {
			return fmt.Errorf("%s removes %s%v, model has %v", o.kind, o.rel, o.old, cur)
		}
		delete(tbl, o.old[0])
	}
	if o.new != nil {
		if cur, ok := tbl[o.new[0]]; ok {
			return fmt.Errorf("%s adds %s%v over existing %v", o.kind, o.rel, o.new, cur)
		}
		tbl[o.new[0]] = o.new
	}
	return nil
}

// ackUpdate folds an acknowledged update into the model and checks that
// the acknowledged translation did to the view what the op asked.
func (m *model) ackUpdate(o op, replyOps []string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.views[o.View]
	cols := m.cols[o.View]
	var want []string // the view row the op should leave behind
	oldKey := o.Where[cols[0]]
	switch o.Kind {
	case "insert":
		want = o.Values
	case "replace":
		old, ok := m.row(v, oldKey)
		if !ok {
			return fmt.Errorf("%s %s: model has no row %s to replace", o.View, o.Step, oldKey)
		}
		want = append([]string(nil), old...)
		for i, c := range cols {
			if nv, ok := o.Set[c]; ok {
				want[i] = nv
			}
		}
	}
	net := 0
	for _, s := range replyOps {
		bo, err := parseBaseOp(s)
		if err != nil {
			return err
		}
		switch bo.kind {
		case "INSERT":
			net++
		case "DELETE":
			net--
		}
		if err := m.applyBase(bo); err != nil {
			return fmt.Errorf("%s %s: %w", o.View, o.Step, err)
		}
	}
	m.commits++
	m.leaked += net - netRows[o.Step]
	if o.keyMoving(cols[0]) {
		m.keyMoves++
	}
	if want != nil {
		if got, ok := m.row(v, want[0]); !ok || !sameRow(got, want) {
			return fmt.Errorf("%s %s: acknowledged ops %v leave row %v, want %v", o.View, o.Step, replyOps, got, want)
		}
	}
	if o.Kind != "insert" && (want == nil || want[0] != oldKey) {
		if got, ok := m.row(v, oldKey); ok {
			return fmt.Errorf("%s %s: acknowledged ops %v leave row %v in the view", o.View, o.Step, replyOps, got)
		}
	}
	return nil
}

// checkRead compares a point read's rows with the model.
func (m *model) checkRead(o op, got [][]string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.views[o.View]
	want := map[string][]string{}
	if r, ok := m.row(v, o.Where[m.cols[o.View][0]]); ok {
		want[r[0]] = r
	}
	if ms := diffRows(want, got); len(ms) > 0 {
		return fmt.Errorf("read %s %v: %s", o.View, o.Where, ms[0])
	}
	return nil
}

// A mismatch is one way a view read differs from the model.
type mismatch struct {
	kind      string // missing | extra | stale
	key       string
	want, got []string
}

func (m mismatch) String() string {
	switch m.kind {
	case "missing":
		return fmt.Sprintf("missing row %v", m.want)
	case "extra":
		return fmt.Sprintf("extra row %v", m.got)
	default:
		return fmt.Sprintf("stale row %v, want %v", m.got, m.want)
	}
}

// diffRows reports every row the read lacks, every row it should not
// have, and every row whose values differ, in key order.
func diffRows(want map[string][]string, got [][]string) []mismatch {
	var out []mismatch
	seen := make(map[string]bool, len(got))
	for _, r := range got {
		if len(r) == 0 {
			out = append(out, mismatch{kind: "extra", got: r})
			continue
		}
		w, ok := want[r[0]]
		switch {
		case !ok || seen[r[0]]:
			out = append(out, mismatch{kind: "extra", key: r[0], got: r})
		case !sameRow(w, r):
			out = append(out, mismatch{kind: "stale", key: r[0], want: w, got: r})
		}
		seen[r[0]] = true
	}
	for k, w := range want {
		if !seen[k] {
			out = append(out, mismatch{kind: "missing", key: k, want: w})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].key != out[j].key {
			return out[i].key < out[j].key
		}
		return out[i].kind < out[j].kind
	})
	return out
}

// checkView compares a full view read with the model.
func (m *model) checkView(name string, got [][]string) []mismatch {
	m.mu.Lock()
	defer m.mu.Unlock()
	return diffRows(m.rows(m.views[name]), got)
}

// baseRows counts the model's base tuples.
func (m *model) baseRows() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, tbl := range m.base {
		n += len(tbl)
	}
	return n
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
