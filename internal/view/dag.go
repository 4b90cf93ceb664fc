package view

import (
	"fmt"
	"strings"

	"viewupdate/internal/schema"
)

// This file implements the paper's §5-1 footnote: "We can relax this
// constraint to allow rooted DAGs if we relax the five criteria
// somewhat." A rooted DAG shares target nodes between references: two
// different relations may reference the same node (still one node per
// relation). The extension's semantics, chosen here and documented in
// DESIGN.md:
//
//   - a view row exists only if every reference path to a shared node
//     resolves to the same tuple (the chains converge); divergent rows
//     simply do not appear;
//   - SPJ-I processes each node once (its projection from the view
//     tuple is unique, since its attributes appear once);
//   - SPJ-R walks nodes in topological order; a node enters State R
//     only if every referencing node delivered State R, otherwise
//     State I — the conservative join of the paper's per-edge states;
//   - updates to a shared node affect view rows through every path, so
//     translations may have more view side effects than on trees (the
//     criteria relaxation the footnote alludes to). core.Verifier.Valid
//     judges DAG views as it judges trees, and refuses a translation
//     that splits some row's paths and so drops it; EXPERIMENTS.md
//     (E16) reports where that differs from SPJ-I and SPJ-R.

// NewJoinDAG validates and builds a join view over a rooted DAG: like
// NewJoin, but a node may be the target of several references. Cycles,
// duplicate relations across distinct nodes, and non-root nodes with no
// incoming reference remain errors.
func NewJoinDAG(name string, sch *schema.Database, root *Node) (*Join, error) {
	if root == nil {
		return nil, fmt.Errorf("view: join %s has no root", name)
	}
	j := &Join{name: name, root: root, attrNode: make(map[string]int), dag: true, inDeps: make(map[string][]int)}
	seenRel := make(map[string]bool)
	nodeIdx := make(map[*Node]int)
	inProgress := make(map[*Node]bool)

	var attrs []schema.Attribute
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if inProgress[n] {
			return fmt.Errorf("view: join %s query graph has a cycle through %s", name, n.SP.Name())
		}
		if _, done := nodeIdx[n]; done {
			return nil // shared node: visit once
		}
		if n.SP == nil {
			return fmt.Errorf("view: join %s has a node without an SP view", name)
		}
		baseName := n.SP.Base().Name()
		if seenRel[baseName] {
			return fmt.Errorf("view: join %s uses relation %s in two distinct nodes", name, baseName)
		}
		seenRel[baseName] = true
		inProgress[n] = true
		idx := len(j.nodes)
		nodeIdx[n] = idx
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
					return fmt.Errorf("view: join %s: join attribute %s not visible in node %s", name, a, n.SP.Name())
				}
				ta, _ := ref.Target.SP.Base().Attribute(tkey[i])
				if va.Domain != ta.Domain {
					return fmt.Errorf("view: join %s: domain mismatch on join attribute %s", name, a)
				}
			}
			if !j.recordRefEdge(sch, baseName, ref) {
				return fmt.Errorf("view: join %s: no inclusion dependency %s[%s] ⊆ %s[key]",
					name, baseName, strings.Join(ref.Attrs, ","), ref.Target.SP.Base().Name())
			}
			if err := walk(ref.Target); err != nil {
				return err
			}
		}
		delete(inProgress, n)
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

// MustNewJoinDAG is NewJoinDAG, panicking on error.
func MustNewJoinDAG(name string, sch *schema.Database, root *Node) *Join {
	j, err := NewJoinDAG(name, sch, root)
	if err != nil {
		panic(err)
	}
	return j
}

// IsDAG reports whether the view was built with NewJoinDAG (shared
// target nodes allowed).
func (j *Join) IsDAG() bool { return j.dag }
