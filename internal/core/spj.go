package core

import (
	"fmt"
	"strings"

	"viewupdate/internal/obs"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/view"
)

// maxJoinCandidates bounds the Cartesian-product enumeration across the
// nodes of a join view; exceeding it is reported as an error rather
// than silently truncated.
const maxJoinCandidates = 100000

// nodeStep is the contribution of one query-graph node to a join-view
// translation: a list of alternative SP-level candidates (possibly the
// single empty "no-op" candidate).
type nodeStep struct {
	label string // e.g. "emp:I-1"; empty for no-ops
	cands []Candidate
}

// noopStep returns a step contributing nothing.
func noopStep() nodeStep {
	return nodeStep{cands: []Candidate{{Translation: update.NewTranslation()}}}
}

// composeSteps builds the Cartesian product of the per-node steps,
// implementing the composition theorem of §5-3: "the set of view update
// translations is obtained from the Cartesian product of the sets of
// the view update translations for each select and project view".
func composeSteps(prefix string, steps []nodeStep) ([]Candidate, error) {
	span := obs.StartSpan("core.spj.compose")
	defer span.End()
	obs.Observe("core.spj.steps", int64(len(steps)))
	out := []Candidate{{Translation: update.NewTranslation()}}
	for _, st := range steps {
		if len(st.cands) == 0 {
			return nil, fmt.Errorf("core: node step %s has no applicable translation", st.label)
		}
		var next []Candidate
		for _, acc := range out {
			for _, c := range st.cands {
				trans := acc.Translation.Clone()
				trans.AddAll(c.Translation)
				label := acc.Class
				if c.Class != "" {
					part := c.Class
					if label == "" {
						label = part
					} else {
						label = label + ", " + part
					}
				}
				next = append(next, Candidate{
					Class:       label,
					Translation: trans,
					Choices:     mergeChoices(acc.Choices, c.Choices),
				})
				if len(next) > maxJoinCandidates {
					return nil, fmt.Errorf("core: more than %d candidate translations; refine the request or use a policy-driven translator", maxJoinCandidates)
				}
			}
		}
		out = next
	}
	for i := range out {
		if out[i].Class == "" {
			out[i].Class = prefix
		} else {
			out[i].Class = prefix + "(" + out[i].Class + ")"
		}
	}
	if obs.Enabled() {
		obs.Add("core.candidates.composite", int64(len(out)))
		obs.Add("core.candidates.class."+prefix, int64(len(out)))
	}
	return out, nil
}

// relabel prefixes the classes and choices of SP-level candidates with
// the owning node's view name.
func relabel(node string, cands []Candidate) []Candidate {
	out := make([]Candidate, len(cands))
	for i, c := range cands {
		out[i] = Candidate{
			Class:       node + ":" + c.Class,
			Translation: c.Translation,
			Choices:     cloneChoices(node+".", c.Choices),
		}
	}
	return out
}

// EnumerateJoinDelete implements ALGORITHM CLASS SPJ-D (§5-2): "delete
// the tuple from the root relation (or SP view) only, using one of the
// algorithms of classes D-1 or D-2". No other relation is touched.
func EnumerateJoinDelete(db storage.Source, j *view.Join, u tuple.T) ([]Candidate, error) {
	span := obs.StartSpan("core.spj.delete")
	defer span.End()
	if err := ValidateRequest(db, j, DeleteRequest(u)); err != nil {
		return nil, err
	}
	root := j.Root().SP
	rootRow := j.ProjectNode(0, u)
	countNodeVisit(root.Name())
	cands, err := EnumerateSPDelete(db, root, rootRow)
	if err != nil {
		return nil, fmt.Errorf("core: SPJ-D on root %s: %w", root.Name(), err)
	}
	out := make([]Candidate, len(cands))
	for i, c := range cands {
		out[i] = Candidate{
			Class:       "SPJ-D(" + root.Name() + ":" + c.Class + ")",
			Translation: c.Translation,
			Choices:     cloneChoices(root.Name()+".", c.Choices),
		}
	}
	if obs.Enabled() {
		obs.Add("core.candidates.composite", int64(len(out)))
		obs.Add("core.candidates.class.SPJ-D", int64(len(out)))
	}
	return out, nil
}

// countNodeVisit records a query-graph node visit during join
// enumeration. Guarded by Enabled so the disabled path never builds the
// dynamic metric name.
func countNodeVisit(node string) {
	if !obs.Enabled() {
		return
	}
	obs.Inc("core.spj.visit." + node)
}

// EnumerateJoinInsert implements ALGORITHM CLASS SPJ-I (§5-2): project
// the new join-view tuple onto each node's SP view and, per node,
//
//	Case 1: the projection already exists exactly — no-op. The paper
//	        rejects at the root, where the view row would already exist
//	        and the insertion would violate the view's functional
//	        dependency; ValidateRequest refuses that state, so a root in
//	        Case 1 is one whose row a parent's selection hides, and it
//	        is kept like any other node (see EXPERIMENTS.md, E16);
//	Case 2: the projection's key is absent from the SP view — perform
//	        an SP view insertion (classes I-1/I-2);
//	Case 3: a tuple with the projection's key exists with different
//	        values — replace it in the SP view (a key-preserving
//	        replacement, class R-1).
//
// The node steps compose by Cartesian product (§5-3); the storage layer
// applies the whole translation atomically, so "if any of the SP view
// operations fail, the entire view update request fails and is undone".
func EnumerateJoinInsert(db storage.Source, j *view.Join, u tuple.T) ([]Candidate, error) {
	span := obs.StartSpan("core.spj.insert")
	defer span.End()
	if err := ValidateRequest(db, j, InsertRequest(u)); err != nil {
		return nil, err
	}
	var steps []nodeStep
	for i, n := range j.Nodes() {
		p := j.ProjectNode(i, u)
		spv := n.SP
		countNodeVisit(spv.Name())
		row, hasKey := spv.Lookup(db, p)
		switch {
		case hasKey && row.Equal(p): // Case 1
			steps = append(steps, noopStep())
		case !hasKey: // Case 2
			cands, err := EnumerateSPInsert(db, spv, p)
			if err != nil {
				return nil, fmt.Errorf("core: SPJ-I inserting into node %s: %w", spv.Name(), err)
			}
			steps = append(steps, nodeStep{label: spv.Name(), cands: relabel(spv.Name(), cands)})
		default: // Case 3
			cands, err := EnumerateSPReplace(db, spv, row, p)
			if err != nil {
				return nil, fmt.Errorf("core: SPJ-I replacing in node %s: %w", spv.Name(), err)
			}
			steps = append(steps, nodeStep{label: spv.Name(), cands: relabel(spv.Name(), cands)})
		}
	}
	return composeSteps("SPJ-I", steps)
}

// spjState is the walk state of SPJ-R: replacing or inserting.
type spjState int

const (
	stateR spjState = iota
	stateI
)

// EnumerateJoinReplace implements ALGORITHM CLASS SPJ-R (§5-2): a
// preorder walk over the query-graph tree. In State R the old and new
// projections are compared: equal projections descend in State R
// (Case R-1); equal keys with different values perform a key-preserving
// SP replacement and descend in State I (Case R-2); differing keys can
// only happen at the root, perform a (key-changing) SP replacement and
// descend in State I (Case R-3); a root tuple that holds the new key
// while a parent's selection hides its row is the SP replacement's
// hidden conflict (R-3, R-5), though the root's SP view selects it. In
// State I: matching keys re-enter State R at the same node (Case I-1);
// a new key absent from the SP view is inserted (Case I-2); an
// exactly-matching projection is a no-op (Case I-3); a conflicting
// tuple with the new key is replaced (Case I-4); all descend in State
// I.
func EnumerateJoinReplace(db storage.Source, j *view.Join, old, new tuple.T) ([]Candidate, error) {
	span := obs.StartSpan("core.spj.replace")
	defer span.End()
	if err := ValidateRequest(db, j, ReplaceRequest(old, new)); err != nil {
		return nil, err
	}
	nodes := j.Nodes()
	indexOf := make(map[*view.Node]int, len(nodes))
	inDeg := make([]int, len(nodes))
	for i, n := range nodes {
		indexOf[n] = i
	}
	for _, n := range nodes {
		for _, ref := range n.Refs {
			inDeg[indexOf[ref.Target]]++
		}
	}

	// processNode runs the paper's per-node case analysis, returning
	// the node's contribution and the state it delivers to its targets.
	processNode := func(n *view.Node, idx int, state spjState) (nodeStep, spjState, error) {
		pOld := j.ProjectNode(idx, old)
		pNew := j.ProjectNode(idx, new)
		spv := n.SP
		countNodeVisit(spv.Name())

		if state == stateI && pOld.Key() == pNew.Key() {
			state = stateR // Case I-1: keys match, go to State R staying here.
		}
		switch state {
		case stateR:
			switch {
			case pOld.Equal(pNew): // Case R-1
				return noopStep(), stateR, nil
			case pOld.Key() == pNew.Key(): // Case R-2
				cands, err := EnumerateSPReplace(db, spv, pOld, pNew)
				if err != nil {
					return nodeStep{}, stateI, fmt.Errorf("core: SPJ-R replacing in node %s: %w", spv.Name(), err)
				}
				return nodeStep{label: spv.Name(), cands: relabel(spv.Name(), cands)}, stateI, nil
			default: // Case R-3 — only possible at the root.
				if idx != 0 {
					return nodeStep{}, stateI, fmt.Errorf("core: SPJ-R internal error: key change in non-root node %s", spv.Name())
				}
				cands, err := enumerateSPReplace(db, spv, pOld, pNew)
				if err != nil {
					return nodeStep{}, stateI, fmt.Errorf("core: SPJ-R replacing in root %s: %w", spv.Name(), err)
				}
				return nodeStep{label: spv.Name(), cands: relabel(spv.Name(), cands)}, stateI, nil
			}
		default: // stateI, keys differ
			row, hasKey := spv.Lookup(db, pNew)
			switch {
			case !hasKey: // Case I-2
				cands, err := EnumerateSPInsert(db, spv, pNew)
				if err != nil {
					return nodeStep{}, stateI, fmt.Errorf("core: SPJ-R inserting into node %s: %w", spv.Name(), err)
				}
				return nodeStep{label: spv.Name(), cands: relabel(spv.Name(), cands)}, stateI, nil
			case row.Equal(pNew): // Case I-3
				return noopStep(), stateI, nil
			default: // Case I-4
				cands, err := EnumerateSPReplace(db, spv, row, pNew)
				if err != nil {
					return nodeStep{}, stateI, fmt.Errorf("core: SPJ-R replacing conflict in node %s: %w", spv.Name(), err)
				}
				return nodeStep{label: spv.Name(), cands: relabel(spv.Name(), cands)}, stateI, nil
			}
		}
	}

	// Kahn's algorithm over the reference DAG: a node is processed once
	// all its referencing nodes have delivered their states; it enters
	// State R only if every delivery is R (the root starts in R). On
	// trees this reduces exactly to the paper's preorder walk; on DAG
	// views (the §5-1 footnote) it is the conservative state join.
	var steps []nodeStep
	pendingIn := append([]int{}, inDeg...)
	allR := make([]bool, len(nodes))
	for i := range allR {
		allR[i] = true
	}
	queue := []int{0}
	processed := 0
	for len(queue) > 0 {
		idx := queue[0]
		queue = queue[1:]
		processed++
		state := stateI
		if allR[idx] {
			state = stateR
		}
		n := nodes[idx]
		step, childState, err := processNode(n, idx, state)
		if err != nil {
			return nil, err
		}
		steps = append(steps, step)
		for _, ref := range n.Refs {
			ti := indexOf[ref.Target]
			if childState != stateR {
				allR[ti] = false
			}
			pendingIn[ti]--
			if pendingIn[ti] == 0 {
				queue = append(queue, ti)
			}
		}
	}
	if processed != len(nodes) {
		return nil, fmt.Errorf("core: SPJ-R internal error: query graph not rooted at node 0")
	}
	return composeSteps("SPJ-R", steps)
}

// Enumerate returns every candidate translation of the request against
// the view: the complete generator set of the paper's theorems.
func Enumerate(db storage.Source, v view.View, r Request) ([]Candidate, error) {
	switch vv := v.(type) {
	case *view.SP:
		return EnumerateSP(db, vv, r)
	case *view.Join:
		var cands []Candidate
		var err error
		switch r.Kind {
		case update.Insert:
			cands, err = EnumerateJoinInsert(db, vv, r.Tuple)
		case update.Delete:
			cands, err = EnumerateJoinDelete(db, vv, r.Tuple)
		case update.Replace:
			cands, err = EnumerateJoinReplace(db, vv, r.Old, r.New)
		default:
			return nil, fmt.Errorf("core: invalid request kind")
		}
		if err != nil || !vv.IsDAG() {
			return cands, err
		}
		return acceptedOnly(db, vv, r, cands)
	default:
		return nil, fmt.Errorf("core: unsupported view type %T", v)
	}
}

// acceptedOnly keeps the candidates that are valid and satisfy the
// five criteria, refusing a request left with none. The paper proves
// SPJ-D, SPJ-I and SPJ-R for trees; on a rooted DAG an in-place replace
// of a shared tuple can split another row's reference paths and drop
// that row from the view, and a key-moving replace may be generated
// only together with the deletion of a root tuple the request keeps.
func acceptedOnly(db storage.Source, v view.View, r Request, cands []Candidate) ([]Candidate, error) {
	valid := NewVerifier(db, v, r).Valid
	out := cands[:0]
	for _, c := range cands {
		if rejection(db, v, r, valid, c) == nil {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w for %s: every SPJ candidate has a view side effect on DAG view %s", ErrNoCandidates, r, v.Name())
	}
	return out, nil
}

// DescribeCandidates renders a candidate list, one per line.
func DescribeCandidates(cands []Candidate) string {
	parts := make([]string, len(cands))
	for i, c := range cands {
		parts[i] = fmt.Sprintf("%2d. %s", i+1, c)
	}
	return strings.Join(parts, "\n")
}
