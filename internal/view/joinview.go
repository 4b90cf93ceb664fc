package view

import (
	"fmt"
	"strings"

	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/value"
)

// A Node is one relation (wrapped in an SP view, possibly the identity)
// of a join view's query graph. Refs point in the many-to-one
// direction: from this node to the nodes whose keys it references,
// i.e. "away from the root", so the root is the node no other node
// references and "the key of the root is the key of the entire view".
type Node struct {
	SP   *SP
	Refs []Ref
}

// A Ref is one reference connection (§5-1): an extension join from
// Attrs of the owning node to Target's base key, backed by an inclusion
// dependency between the base relations.
type Ref struct {
	Attrs  []string
	Target *Node
}

// A Join is a select-project-join view in SPJNF whose query graph is a
// rooted tree of reference connections.
type Join struct {
	name  string
	root  *Node
	nodes []*Node // preorder
	vrel  *schema.Relation
	// attrNode maps each view attribute name to the preorder index of
	// the node that contributes it.
	attrNode map[string]int
	// dag marks views built with NewJoinDAG (shared target nodes).
	dag bool
	// rootRel is the root node's base relation name; nodeRels holds the
	// base relation name of every node. Both back the reverse-index walk
	// in DeltaForChange.
	rootRel  string
	nodeRels map[string]bool
	// inDeps maps a node's base relation name to the schema inclusion
	// dependency indexes of the view's reference connections *into* that
	// relation — the edges to walk backwards (via Source.Referencers)
	// from a changed tuple toward the root tuples whose rows it affects.
	inDeps map[string][]int
}

// NewJoin validates and builds a join view over the query graph rooted
// at root. sch supplies the inclusion dependencies that must back every
// reference connection. Validation enforces the paper's requirements:
//
//   - every node's SP view is over a distinct base relation and the
//     view attribute names are globally distinct (SPJNF keeps join
//     attributes visible under their own names);
//   - each Ref's Attrs are projected in the owning node's view and
//     their domains match the target base key's domains in order
//     (extension join);
//   - the schema records an inclusion dependency from the owning base
//     relation's Attrs to the target base relation (reference
//     connection);
//   - the graph is a tree: every node except the root is referenced
//     exactly once and there are no cycles.
func NewJoin(name string, sch *schema.Database, root *Node) (*Join, error) {
	if root == nil {
		return nil, fmt.Errorf("view: join %s has no root", name)
	}
	j := &Join{name: name, root: root, attrNode: make(map[string]int), inDeps: make(map[string][]int)}
	seenRel := make(map[string]bool)
	seenNode := make(map[*Node]bool)

	var attrs []schema.Attribute
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.SP == nil {
			return fmt.Errorf("view: join %s has a node without an SP view", name)
		}
		if seenNode[n] {
			return fmt.Errorf("view: join %s query graph is not a tree (node %s referenced twice)", name, n.SP.Name())
		}
		seenNode[n] = true
		baseName := n.SP.Base().Name()
		if seenRel[baseName] {
			return fmt.Errorf("view: join %s uses relation %s twice (each node must refer to a unique relation)", name, baseName)
		}
		seenRel[baseName] = true
		idx := len(j.nodes)
		j.nodes = append(j.nodes, n)
		for _, a := range n.SP.Schema().Attributes() {
			if _, dup := j.attrNode[a.Name]; dup {
				return fmt.Errorf("view: join %s attribute %s appears in two nodes", name, a.Name)
			}
			j.attrNode[a.Name] = idx
			attrs = append(attrs, a)
		}
		for _, ref := range n.Refs {
			if ref.Target == nil {
				return fmt.Errorf("view: join %s: ref from %s has no target", name, n.SP.Name())
			}
			tkey := ref.Target.SP.Base().Key()
			if len(ref.Attrs) != len(tkey) {
				return fmt.Errorf("view: join %s: ref %s->%s has %d attributes, target key has %d",
					name, n.SP.Name(), ref.Target.SP.Name(), len(ref.Attrs), len(tkey))
			}
			for i, a := range ref.Attrs {
				va, ok := n.SP.Schema().Attribute(a)
				if !ok {
					return fmt.Errorf("view: join %s: join attribute %s not visible in node %s (SPJNF requires join attributes in the view)",
						name, a, n.SP.Name())
				}
				ta, _ := ref.Target.SP.Base().Attribute(tkey[i])
				if va.Domain != ta.Domain {
					return fmt.Errorf("view: join %s: domain mismatch on join attribute %s (%s vs %s)",
						name, a, va.Domain.Name(), ta.Domain.Name())
				}
			}
			if !j.recordRefEdge(sch, baseName, ref) {
				return fmt.Errorf("view: join %s: no inclusion dependency %s[%s] ⊆ %s[key] (reference connection required)",
					name, baseName, strings.Join(ref.Attrs, ","), ref.Target.SP.Base().Name())
			}
			if err := walk(ref.Target); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}

	vrel, err := schema.NewRelation(name, attrs, root.SP.Base().Key())
	if err != nil {
		return nil, fmt.Errorf("view: join %s: %w", name, err)
	}
	j.vrel = vrel
	j.finishIVMIndex()
	return j, nil
}

// MustNewJoin is NewJoin, panicking on error.
func MustNewJoin(name string, sch *schema.Database, root *Node) *Join {
	j, err := NewJoin(name, sch, root)
	if err != nil {
		panic(err)
	}
	return j
}

// inclusionIndex returns the position in sch.Inclusions() of the
// dependency backing the reference connection child[attrs] ⊆
// parent[key], or -1 if the schema records none. The position doubles
// as the dependency's slot in storage's reverse reference index.
func inclusionIndex(sch *schema.Database, child string, attrs []string, parent string) int {
	for i, d := range sch.Inclusions() {
		if d.Child != child || d.Parent != parent || len(d.ChildAttrs) != len(attrs) {
			continue
		}
		match := true
		for k := range attrs {
			if d.ChildAttrs[k] != attrs[k] {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
}

// recordRefEdge validates that ref is backed by an inclusion dependency
// from child and, if so, records the dependency's index under the
// target relation for DeltaForChange's reverse walk. It reports whether
// the dependency exists.
func (j *Join) recordRefEdge(sch *schema.Database, child string, ref Ref) bool {
	parent := ref.Target.SP.Base().Name()
	idx := inclusionIndex(sch, child, ref.Attrs, parent)
	if idx < 0 {
		return false
	}
	for _, have := range j.inDeps[parent] {
		if have == idx {
			return true
		}
	}
	j.inDeps[parent] = append(j.inDeps[parent], idx)
	return true
}

// finishIVMIndex records the relation-name lookups DeltaForChange needs
// once the node walk has succeeded.
func (j *Join) finishIVMIndex() {
	j.rootRel = j.root.SP.Base().Name()
	j.nodeRels = make(map[string]bool, len(j.nodes))
	for _, n := range j.nodes {
		j.nodeRels[n.SP.Base().Name()] = true
	}
}

// Name implements View.
func (j *Join) Name() string { return j.name }

// Schema implements View. The view key is the root's key.
func (j *Join) Schema() *schema.Relation { return j.vrel }

// Root returns the root node.
func (j *Join) Root() *Node { return j.root }

// Nodes returns the nodes in preorder.
func (j *Join) Nodes() []*Node { return j.nodes }

// NodeOfAttr returns the preorder index of the node contributing the
// named view attribute, or -1.
func (j *Join) NodeOfAttr(attr string) int {
	i, ok := j.attrNode[attr]
	if !ok {
		return -1
	}
	return i
}

// Materialize implements View: for every root base tuple passing the
// root's SP view, follow each reference to the (unique, by the key
// dependency) referenced tuples; the row appears iff every referenced
// tuple exists and passes its node's SP selection. With the inclusion
// dependencies enforced by storage, identity SP views make every root
// row appear.
func (j *Join) Materialize(db storage.Source) *tuple.Set {
	out := tuple.NewSet()
	sc := j.newRowScratch()
	db.Each(j.rootRel, func(rt tuple.T) bool {
		if row, ok := j.rowForRoot(db, rt, sc); ok {
			out.Add(row)
		}
		return true
	})
	return out
}

// rowScratch holds the per-row assembly maps of rowForRoot so one
// materialization (or delta pass) reuses them across root tuples
// instead of allocating per row.
type rowScratch struct {
	vals     map[string]value.Value
	resolved map[*Node]tuple.T
}

func (j *Join) newRowScratch() *rowScratch {
	return &rowScratch{
		vals:     make(map[string]value.Value, j.vrel.Arity()),
		resolved: make(map[*Node]tuple.T, len(j.nodes)),
	}
}

// RowForRoot assembles the join-view row generated by the given root
// base tuple, or ok=false if any node's selection fails, a reference
// does not resolve, or (in a DAG view) two reference paths to a shared
// node resolve to different tuples.
func (j *Join) RowForRoot(db storage.Source, rootBase tuple.T) (tuple.T, bool) {
	return j.rowForRoot(db, rootBase, j.newRowScratch())
}

func (j *Join) rowForRoot(db storage.Source, rootBase tuple.T, sc *rowScratch) (tuple.T, bool) {
	vals, resolved := sc.vals, sc.resolved
	clear(vals)
	clear(resolved)
	var fill func(n *Node, base tuple.T) bool
	fill = func(n *Node, base tuple.T) bool {
		if prev, seen := resolved[n]; seen {
			// Shared node (DAG): all paths must converge on one tuple.
			return prev.Equal(base)
		}
		resolved[n] = base
		row, ok := n.SP.RowFor(base)
		if !ok {
			return false
		}
		for i, a := range n.SP.Schema().Attributes() {
			vals[a.Name] = row.At(i)
		}
		for _, ref := range n.Refs {
			probe, ok := refProbe(n, ref, base)
			if !ok {
				return false
			}
			parent, ok := db.LookupKey(probe)
			if !ok {
				return false
			}
			if !fill(ref.Target, parent) {
				return false
			}
		}
		return true
	}
	if !fill(j.root, rootBase) {
		return tuple.T{}, false
	}
	t, err := tuple.FromMap(j.vrel, vals)
	if err != nil {
		panic(fmt.Sprintf("view: assembling row of %s: %v", j.name, err))
	}
	return t, true
}

// refProbe builds a key probe for ref's target from the referencing
// base tuple.
func refProbe(n *Node, ref Ref, base tuple.T) (tuple.T, bool) {
	target := ref.Target.SP.Base()
	attrs := target.Attributes()
	vals := make([]value.Value, len(attrs))
	keyVals := make(map[string]value.Value, len(ref.Attrs))
	for i, a := range ref.Attrs {
		v, ok := base.Get(a)
		if !ok {
			return tuple.T{}, false
		}
		keyVals[target.Key()[i]] = v
	}
	for i, a := range attrs {
		if v, ok := keyVals[a.Name]; ok {
			vals[i] = v
		} else {
			vals[i] = a.Domain.At(0)
		}
	}
	return tuple.MustNew(target, vals...), true
}

// ProjectNode projects a view tuple onto the SP view of the node at
// preorder index idx ("take the projections of the join view to the
// attributes listed in each SP view").
func (j *Join) ProjectNode(idx int, viewTuple tuple.T) tuple.T {
	n := j.nodes[idx]
	sch := n.SP.Schema()
	vals := make([]value.Value, sch.Arity())
	for i, a := range sch.Attributes() {
		vals[i] = viewTuple.MustGet(a.Name)
	}
	return tuple.MustNew(sch, vals...)
}

// JoinConsistent checks that a (user-supplied) view tuple equates join
// attributes with the referenced keys: for every ref, the values at the
// referencing attributes equal the values at the target's key
// attributes. Rows produced by Materialize always satisfy this.
func (j *Join) JoinConsistent(viewTuple tuple.T) error {
	for _, n := range j.nodes {
		for _, ref := range n.Refs {
			tkey := ref.Target.SP.Base().Key()
			for i, a := range ref.Attrs {
				av := viewTuple.MustGet(a)
				kv := viewTuple.MustGet(tkey[i])
				if av != kv {
					return fmt.Errorf("view: %s: join attribute %s=%s disagrees with %s=%s",
						j.name, a, av, tkey[i], kv)
				}
			}
		}
	}
	return nil
}

// Lookup implements View: the row of the root tuple with probe's key.
func (j *Join) Lookup(db storage.Source, probe tuple.T) (tuple.T, bool) {
	rootBase, ok := j.RootBaseForKey(db, probe)
	if !ok {
		return tuple.T{}, false
	}
	return j.RowForRoot(db, rootBase)
}

// RootBaseForKey returns the root base tuple whose key matches probe's
// key (probe is of the view schema).
func (j *Join) RootBaseForKey(db storage.Source, probe tuple.T) (tuple.T, bool) {
	if p, ok := keyProbe(j.root.SP.Base(), probe.Get); ok {
		return db.LookupKey(p)
	}
	return tuple.T{}, false
}
