// Package workload generates deterministic synthetic schemas, database
// states and view-update request streams for the experiment harness and
// the benchmarks. All generators are seeded; the same configuration
// always produces the same workload.
package workload

import (
	"fmt"
	"math/rand"

	"viewupdate/internal/algebra"
	"viewupdate/internal/core"
	"viewupdate/internal/obs"
	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
)

// countRequest records the request mix emitted by the generators.
func countRequest(kind update.Kind) {
	switch kind {
	case update.Insert:
		obs.Inc("workload.request.insert")
	case update.Delete:
		obs.Inc("workload.request.delete")
	case update.Replace:
		obs.Inc("workload.request.replace")
	}
}

// SPConfig parameterizes a single-relation select-project workload.
type SPConfig struct {
	// Keys is the key domain size (keys are ints 1..Keys).
	Keys int64
	// Attrs is the number of non-key attributes.
	Attrs int
	// DomainSize is the size of each non-key attribute's domain.
	DomainSize int
	// SelectingAttrs is how many of the non-key attributes carry a
	// selection term (each selects the lower half of its domain).
	SelectingAttrs int
	// HiddenAttrs is how many trailing non-key attributes are projected
	// out of the view.
	HiddenAttrs int
	// Tuples is the number of tuples to load.
	Tuples int
	// VisibleFraction biases loading so roughly this share of tuples
	// satisfies the selection (0 defaults to 0.5).
	VisibleFraction float64
	// Seed drives all pseudo-random choices.
	Seed int64
}

// SPWorkload bundles a generated SP instance.
type SPWorkload struct {
	Schema *schema.Database
	Rel    *schema.Relation
	View   *view.SP
	DB     *storage.Database
	rng    *rand.Rand
	cfg    SPConfig
}

// NewSP generates the schema, view and a populated database state.
func NewSP(cfg SPConfig) (*SPWorkload, error) {
	if cfg.Keys <= 0 || cfg.Attrs < 0 || cfg.DomainSize < 2 {
		return nil, fmt.Errorf("workload: bad SP config %+v", cfg)
	}
	if cfg.SelectingAttrs > cfg.Attrs || cfg.HiddenAttrs > cfg.Attrs {
		return nil, fmt.Errorf("workload: selecting/hidden attrs exceed attrs in %+v", cfg)
	}
	if cfg.VisibleFraction == 0 {
		cfg.VisibleFraction = 0.5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	keyDom, err := schema.IntRangeDomain("KeyDom", 1, cfg.Keys)
	if err != nil {
		return nil, err
	}
	attrs := []schema.Attribute{{Name: "K", Domain: keyDom}}
	for i := 0; i < cfg.Attrs; i++ {
		vals := make([]value.Value, cfg.DomainSize)
		for j := range vals {
			vals[j] = value.NewString(fmt.Sprintf("v%02d", j))
		}
		dom, err := schema.NewDomain(fmt.Sprintf("A%dDom", i), vals...)
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, schema.Attribute{Name: fmt.Sprintf("A%d", i), Domain: dom})
	}
	rel, err := schema.NewRelation("R", attrs, []string{"K"})
	if err != nil {
		return nil, err
	}
	sch := schema.NewDatabase()
	if err := sch.AddRelation(rel); err != nil {
		return nil, err
	}

	sel := algebra.NewSelection(rel)
	for i := 0; i < cfg.SelectingAttrs; i++ {
		a, _ := rel.Attribute(fmt.Sprintf("A%d", i))
		half := a.Domain.Size() / 2
		if half == 0 {
			half = 1
		}
		selVals := a.Domain.Values()[:half]
		if err := sel.AddTerm(a.Name, selVals...); err != nil {
			return nil, err
		}
	}
	proj := []string{"K"}
	for i := 0; i < cfg.Attrs-cfg.HiddenAttrs; i++ {
		proj = append(proj, fmt.Sprintf("A%d", i))
	}
	// Hidden attributes are the trailing ones; selecting attributes are
	// the leading ones, so hidden ∩ selecting is non-empty only when
	// SelectingAttrs + (Attrs - HiddenAttrs) > Attrs... adjust: hide
	// trailing attrs, select leading ones; overlap occurs when
	// SelectingAttrs > Attrs - HiddenAttrs.
	v, err := view.NewSP("V", sel, proj)
	if err != nil {
		return nil, err
	}

	w := &SPWorkload{Schema: sch, Rel: rel, View: v, rng: rng, cfg: cfg}
	w.DB = storage.Open(sch)
	if err := w.populate(); err != nil {
		return nil, err
	}
	return w, nil
}

// MustNewSP is NewSP, panicking on error.
func MustNewSP(cfg SPConfig) *SPWorkload {
	w, err := NewSP(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// randomTuple builds a tuple with the given key; when visible is true
// every selecting attribute takes a selecting value.
func (w *SPWorkload) randomTuple(key int64, visible bool) tuple.T {
	vals := make([]value.Value, w.Rel.Arity())
	vals[0] = value.NewInt(key)
	for i, a := range w.Rel.Attributes() {
		if i == 0 {
			continue
		}
		var pool []value.Value
		if visible {
			pool = w.View.Selection().SelectingValues(a.Name)
		} else if w.View.Selection().IsSelecting(a.Name) {
			pool = w.View.Selection().ExcludingValues(a.Name)
		} else {
			pool = a.Domain.Values()
		}
		vals[i] = pool[w.rng.Intn(len(pool))]
	}
	return tuple.MustNew(w.Rel, vals...)
}

func (w *SPWorkload) populate() error {
	if int64(w.cfg.Tuples) > w.cfg.Keys {
		return fmt.Errorf("workload: %d tuples exceed %d keys", w.cfg.Tuples, w.cfg.Keys)
	}
	perm := w.rng.Perm(int(w.cfg.Keys))
	ts := make([]tuple.T, 0, w.cfg.Tuples)
	for i := 0; i < w.cfg.Tuples; i++ {
		key := int64(perm[i] + 1)
		visible := w.rng.Float64() < w.cfg.VisibleFraction
		ts = append(ts, w.randomTuple(key, visible))
	}
	return w.DB.Load("R", ts...)
}

// freshKey returns a key not currently in the database, or ok=false.
func (w *SPWorkload) freshKey() (int64, bool) {
	for attempt := 0; attempt < 64; attempt++ {
		k := int64(w.rng.Intn(int(w.cfg.Keys))) + 1
		if _, ok := w.DB.LookupKey(w.randomTuple(k, true)); !ok {
			return k, true
		}
	}
	return 0, false
}

// visibleRow returns a random current view row, or ok=false when the
// view is empty.
func (w *SPWorkload) visibleRow() (tuple.T, bool) {
	rows := w.View.Materialize(w.DB).Slice()
	if len(rows) == 0 {
		return tuple.T{}, false
	}
	return rows[w.rng.Intn(len(rows))], true
}

// visibleViewTuple builds a view tuple with the given key whose visible
// selecting attributes hold selecting values.
func (w *SPWorkload) visibleViewTuple(key int64) tuple.T {
	sch := w.View.Schema()
	vals := make([]value.Value, sch.Arity())
	for i, a := range sch.Attributes() {
		if a.Name == "K" {
			vals[i] = value.NewInt(key)
			continue
		}
		pool := w.View.Selection().SelectingValues(a.Name)
		vals[i] = pool[w.rng.Intn(len(pool))]
	}
	return tuple.MustNew(sch, vals...)
}

// NextRequest produces a valid request of the given kind against the
// current state, or ok=false when the state admits none (e.g. deleting
// from an empty view).
func (w *SPWorkload) NextRequest(kind update.Kind) (core.Request, bool) {
	switch kind {
	case update.Insert:
		k, ok := w.freshKey()
		if !ok {
			return core.Request{}, false
		}
		countRequest(kind)
		return core.InsertRequest(w.visibleViewTuple(k)), true
	case update.Delete:
		row, ok := w.visibleRow()
		if !ok {
			return core.Request{}, false
		}
		countRequest(kind)
		return core.DeleteRequest(row), true
	case update.Replace:
		row, ok := w.visibleRow()
		if !ok {
			return core.Request{}, false
		}
		// Prefer a key change to a fresh key; fall back to mutating a
		// visible non-selecting attribute.
		if k, ok := w.freshKey(); ok {
			moved := row.MustWith("K", value.NewInt(k))
			countRequest(kind)
			return core.ReplaceRequest(row, moved), true
		}
		for _, a := range w.View.Schema().Attributes() {
			if a.Name == "K" || w.View.Selection().IsSelecting(a.Name) {
				continue
			}
			cur := row.MustGet(a.Name)
			for _, v := range a.Domain.Values() {
				if v != cur {
					countRequest(kind)
					return core.ReplaceRequest(row, row.MustWith(a.Name, v)), true
				}
			}
		}
		return core.Request{}, false
	default:
		return core.Request{}, false
	}
}

// TreeConfig parameterizes a reference-connection tree workload.
type TreeConfig struct {
	// Depth is the number of levels below the root (0 = root only).
	Depth int
	// Fanout is the number of references each non-leaf node holds.
	Fanout int
	// Keys is each relation's key domain size.
	Keys int64
	// TuplesPerRelation is the number of tuples loaded per relation.
	TuplesPerRelation int
	// PayloadDomain is the size of every payload domain, whose values
	// are 0..PayloadDomain-1 (0 means 100).
	PayloadDomain int64
	// Selected names, by preorder node index, the nodes whose SP view
	// selects the lower half of its payload domain (at least one
	// value); nodes past its end select nothing.
	Selected []bool
	// Hidden names, by preorder node index, the nodes whose relation
	// carries one more attribute H<i> over {0, 1} that its SP view
	// projects out.
	Hidden []bool
	// Seed drives all pseudo-random choices.
	Seed int64
}

// flag reports whether node i is set in a per-node flag list.
func flag(fs []bool, i int) bool { return i < len(fs) && fs[i] }

// TreeWorkload bundles a generated join-view instance.
type TreeWorkload struct {
	Schema *schema.Database
	View   *view.Join
	DB     *storage.Database
	// Relations in preorder (index 0 = root).
	Relations []*schema.Relation
	rng       *rand.Rand
	cfg       TreeConfig
}

// NewTree generates a rooted reference tree of the given shape: each
// relation has an int key, one payload attribute, an optional hidden
// attribute, and Fanout foreign keys to its children in the tree (which
// are its parents in the reference direction). Each node's SP view
// projects out the hidden attribute and may select on the payload.
func NewTree(cfg TreeConfig) (*TreeWorkload, error) {
	if cfg.Depth < 0 || cfg.Fanout < 0 || cfg.Keys <= 0 {
		return nil, fmt.Errorf("workload: bad tree config %+v", cfg)
	}
	if cfg.TuplesPerRelation <= 0 || int64(cfg.TuplesPerRelation) > cfg.Keys {
		return nil, fmt.Errorf("workload: tuples per relation out of range in %+v", cfg)
	}
	if cfg.PayloadDomain == 0 {
		cfg.PayloadDomain = 100
	}
	if cfg.PayloadDomain < 0 {
		return nil, fmt.Errorf("workload: bad payload domain in %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sch := schema.NewDatabase()
	w := &TreeWorkload{Schema: sch, rng: rng, cfg: cfg}

	keyDom, err := schema.IntRangeDomain("TKeyDom", 1, cfg.Keys)
	if err != nil {
		return nil, err
	}
	payloadDom, err := schema.IntRangeDomain("PayDom", 0, cfg.PayloadDomain-1)
	if err != nil {
		return nil, err
	}
	hiddenDom, err := schema.IntRangeDomain("HidDom", 0, 1)
	if err != nil {
		return nil, err
	}

	counter := 0
	var build func(depth int) (*view.Node, error)
	build = func(depth int) (*view.Node, error) {
		id := counter
		counter++
		name := fmt.Sprintf("N%d", id)
		attrs := []schema.Attribute{
			{Name: fmt.Sprintf("K%d", id), Domain: keyDom},
			{Name: fmt.Sprintf("P%d", id), Domain: payloadDom},
		}
		if flag(cfg.Hidden, id) {
			attrs = append(attrs, schema.Attribute{Name: fmt.Sprintf("H%d", id), Domain: hiddenDom})
		}
		var children []*view.Node
		var fkAttrs []string
		if depth < cfg.Depth {
			for f := 0; f < cfg.Fanout; f++ {
				child, err := build(depth + 1)
				if err != nil {
					return nil, err
				}
				children = append(children, child)
				fk := fmt.Sprintf("F%dto%s", id, child.SP.Base().Name())
				fkAttrs = append(fkAttrs, fk)
				attrs = append(attrs, schema.Attribute{Name: fk, Domain: keyDom})
			}
		}
		rel, err := schema.NewRelation(name, attrs, []string{fmt.Sprintf("K%d", id)})
		if err != nil {
			return nil, err
		}
		if err := sch.AddRelation(rel); err != nil {
			return nil, err
		}
		w.Relations = append(w.Relations, rel)
		refs := make([]view.Ref, len(children))
		for i, child := range children {
			if err := sch.AddInclusion(schema.InclusionDependency{
				Child: name, ChildAttrs: []string{fkAttrs[i]}, Parent: child.SP.Base().Name(),
			}); err != nil {
				return nil, err
			}
			refs[i] = view.Ref{Attrs: []string{fkAttrs[i]}, Target: child}
		}
		sp, err := nodeView(name+"v", rel, flag(cfg.Selected, id))
		if err != nil {
			return nil, err
		}
		return &view.Node{SP: sp, Refs: refs}, nil
	}
	root, err := build(0)
	if err != nil {
		return nil, err
	}
	// build appends relations in postorder (targets before the nodes
	// referencing them); reverse so Relations[0] is the root and every
	// referenced relation appears after its referrer.
	for i, j := 0, len(w.Relations)-1; i < j; i, j = i+1, j-1 {
		w.Relations[i], w.Relations[j] = w.Relations[j], w.Relations[i]
	}
	jv, err := view.NewJoin("TREE", sch, root)
	if err != nil {
		return nil, err
	}
	w.View = jv
	w.DB = storage.Open(sch)
	if err := w.populate(); err != nil {
		return nil, err
	}
	return w, nil
}

// nodeView builds a tree node's SP view over rel: every attribute but
// the hidden one, selecting the lower half of the payload domain when
// selected is set.
func nodeView(name string, rel *schema.Relation, selected bool) (*view.SP, error) {
	sel := algebra.NewSelection(rel)
	var proj []string
	for _, a := range rel.Attributes() {
		switch a.Name[0] {
		case 'H':
			continue
		case 'P':
			if selected {
				vals := a.Domain.Values()
				if err := sel.AddTerm(a.Name, vals[:max(1, len(vals)/2)]...); err != nil {
					return nil, err
				}
			}
		}
		proj = append(proj, a.Name)
	}
	return view.NewSP(name, sel, proj)
}

// SmallTree builds the small tree instance a seed names, sized for
// exhaustive search: depth 1 or 2, three keys and two payload values
// per relation, two tuples loaded per relation, and a random selection
// and hidden attribute per node.
func SmallTree(seed int64) (*TreeWorkload, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := TreeConfig{
		Depth: 1 + rng.Intn(2), Fanout: 1, Keys: 3, TuplesPerRelation: 2,
		PayloadDomain: 2, Seed: seed,
	}
	if cfg.Depth == 1 {
		cfg.Fanout = 1 + rng.Intn(2)
	}
	for i := 0; i < 3; i++ {
		cfg.Selected = append(cfg.Selected, rng.Intn(2) == 0)
		cfg.Hidden = append(cfg.Hidden, rng.Intn(2) == 0)
	}
	return NewTree(cfg)
}

// MustNewTree is NewTree, panicking on error.
func MustNewTree(cfg TreeConfig) *TreeWorkload {
	w, err := NewTree(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// populate loads parents before children so every foreign key resolves
// to a loaded parent key.
func (w *TreeWorkload) populate() error {
	n := w.cfg.TuplesPerRelation
	keysOf := make(map[string][]int64)
	// Load in reverse preorder: parents (in the reference direction)
	// are deeper in the tree and must exist first; LoadAll makes order
	// irrelevant anyway, but keys must be consistent.
	var all []tuple.T
	for i := len(w.Relations) - 1; i >= 0; i-- {
		rel := w.Relations[i]
		perm := w.rng.Perm(int(w.cfg.Keys))
		keys := make([]int64, n)
		for j := 0; j < n; j++ {
			keys[j] = int64(perm[j] + 1)
		}
		keysOf[rel.Name()] = keys
		for _, k := range keys {
			vals := make([]value.Value, rel.Arity())
			for ai, a := range rel.Attributes() {
				switch {
				case ai == 0:
					vals[ai] = value.NewInt(k)
				case a.Name[0] == 'P' || a.Name[0] == 'H':
					dom := a.Domain.Values()
					vals[ai] = dom[w.rng.Intn(len(dom))]
				default:
					// Foreign key: pick a loaded key of the referenced
					// relation.
					target := referencedRelation(w.Schema, rel.Name(), a.Name)
					tk := keysOf[target]
					vals[ai] = value.NewInt(tk[w.rng.Intn(len(tk))])
				}
			}
			all = append(all, tuple.MustNew(rel, vals...))
		}
	}
	return w.DB.LoadAll(all...)
}

// referencedRelation finds the parent of the inclusion dependency whose
// child attribute is attr.
func referencedRelation(sch *schema.Database, child, attr string) string {
	for _, d := range sch.InclusionsFrom(child) {
		for _, ca := range d.ChildAttrs {
			if ca == attr {
				return d.Parent
			}
		}
	}
	panic(fmt.Sprintf("workload: no inclusion for %s.%s", child, attr))
}

// RandomRow returns a random current view row, or ok=false.
func (w *TreeWorkload) RandomRow() (tuple.T, bool) {
	rows := w.View.Materialize(w.DB).Slice()
	if len(rows) == 0 {
		return tuple.T{}, false
	}
	return rows[w.rng.Intn(len(rows))], true
}

// FreshRootKey returns a root key not currently used, or ok=false.
func (w *TreeWorkload) FreshRootKey() (int64, bool) {
	root := w.Relations[0]
	used := map[int64]bool{}
	for _, t := range w.DB.Tuples(root.Name()) {
		used[t.At(0).Int()] = true
	}
	for attempt := 0; attempt < 128; attempt++ {
		k := int64(w.rng.Intn(int(w.cfg.Keys))) + 1
		if !used[k] {
			return k, true
		}
	}
	return 0, false
}

// InsertRequestForFreshRoot builds a valid insert request that reuses
// an existing row's parent chain under a fresh root key, changing only
// the root payload.
func (w *TreeWorkload) InsertRequestForFreshRoot() (core.Request, bool) {
	row, ok := w.RandomRow()
	if !ok {
		return core.Request{}, false
	}
	k, ok := w.FreshRootKey()
	if !ok {
		return core.Request{}, false
	}
	rootKeyAttr := w.Relations[0].Key()[0]
	u := row.MustWith(rootKeyAttr, value.NewInt(k))
	countRequest(update.Insert)
	return core.InsertRequest(u), true
}

// RandomRequest returns a random valid request of the given kind
// against the current state, or ok=false after 64 draws. Inserts and
// replacements draw join-consistent rows that every node's selection
// passes, over the whole key domains, so they meet every case of SPJ-I
// and SPJ-R: absent, exactly present, and conflicting node tuples.
func (w *TreeWorkload) RandomRequest(kind update.Kind) (core.Request, bool) {
	for attempt := 0; attempt < 64; attempt++ {
		var r core.Request
		switch kind {
		case update.Insert:
			r = core.InsertRequest(w.randomViewRow(tuple.T{}))
		case update.Delete, update.Replace:
			old, ok := w.RandomRow()
			if !ok {
				return core.Request{}, false
			}
			r = core.DeleteRequest(old)
			if kind == update.Replace {
				r = core.ReplaceRequest(old, w.randomViewRow(old))
			}
		default:
			return core.Request{}, false
		}
		if core.ValidateRequest(w.DB, w.View, r) == nil {
			countRequest(kind)
			return r, true
		}
	}
	return core.Request{}, false
}

// randomViewRow draws a join-consistent row of the view whose node
// projections pass their selections. Given a row from, each node keeps
// from's projection with probability 1/2.
func (w *TreeWorkload) randomViewRow(from tuple.T) tuple.T {
	vals := map[string]value.Value{}
	for _, n := range w.View.Nodes() {
		keep := !from.IsZero() && w.rng.Intn(2) == 0
		for _, a := range n.SP.Schema().Attributes() {
			if keep {
				vals[a.Name] = from.MustGet(a.Name)
				continue
			}
			pool := n.SP.Selection().SelectingValues(a.Name)
			vals[a.Name] = pool[w.rng.Intn(len(pool))]
		}
	}
	for _, n := range w.View.Nodes() {
		for _, ref := range n.Refs {
			for i, a := range ref.Attrs {
				vals[a] = vals[ref.Target.SP.Base().Key()[i]]
			}
		}
	}
	row, err := tuple.FromMap(w.View.Schema(), vals)
	if err != nil {
		panic(fmt.Sprintf("workload: assembling a row of %s: %v", w.View.Name(), err))
	}
	return row
}
