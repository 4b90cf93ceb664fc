// Package bruteforce is the oracle for the paper's completeness
// theorems: it enumerates, by exhaustive search over a small instance's
// entire update space, every translation of a view update request that
// is valid and satisfies the five criteria — trusting nothing about the
// algorithm classes. Tests diff its output against the generators of
// package core in both directions.
package bruteforce

import (
	"fmt"
	"sort"

	"viewupdate/internal/core"
	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
)

// Config bounds the search.
type Config struct {
	// MaxOps bounds the number of operations per translation
	// (default 2 — the paper's SP translations have at most two).
	MaxOps int
	// Relations restricts the op universe to the named relations
	// (default: all relations of the schema).
	Relations []string
	// MaxUniverse aborts if the op universe exceeds this size
	// (default 2000) — a guard against accidentally huge instances.
	MaxUniverse int
	// ValidOnly skips the five-criteria filter, returning every valid
	// translation. Used by the simplification-theorem check.
	ValidOnly bool
}

func (c Config) withDefaults() Config {
	if c.MaxOps == 0 {
		c.MaxOps = 2
	}
	if c.MaxUniverse == 0 {
		c.MaxUniverse = 2000
	}
	return c
}

// AllTuples enumerates the full extension space of rel (every
// combination of domain values).
func AllTuples(rel *schema.Relation) []tuple.T {
	attrs := rel.Attributes()
	var out []tuple.T
	vals := make([]value.Value, len(attrs))
	var rec func(i int)
	rec = func(i int) {
		if i == len(attrs) {
			cp := make([]value.Value, len(vals))
			copy(cp, vals)
			out = append(out, tuple.MustNew(rel, cp...))
			return
		}
		for _, v := range attrs[i].Domain.Values() {
			vals[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// OpUniverse enumerates every single operation the search may compose:
// deletions of present tuples, insertions of absent tuples, and
// replacements of present tuples by any different tuple.
func OpUniverse(db *storage.Database, relations []string) ([]update.Op, error) {
	var out []update.Op
	for _, rn := range relations {
		rel := db.Schema().Relation(rn)
		if rel == nil {
			return nil, fmt.Errorf("bruteforce: unknown relation %s", rn)
		}
		present := db.Tuples(rn)
		space := AllTuples(rel)
		for _, t := range present {
			out = append(out, update.NewDelete(t))
		}
		for _, t := range space {
			if !db.Contains(t) {
				out = append(out, update.NewInsert(t))
			}
		}
		for _, old := range present {
			for _, new := range space {
				if !new.Equal(old) {
					out = append(out, update.NewReplace(old, new))
				}
			}
		}
	}
	return out, nil
}

// Result is the oracle's answer: the canonical set of accepted
// translations.
type Result struct {
	Translations []*update.Translation
	// Universe is the size of the op universe searched.
	Universe int
	// Examined is the number of candidate translations the search
	// covers: every set of at most MaxOps ops of the universe.
	Examined int
}

// Search exhaustively enumerates all translations of request r against
// view v over db, up to cfg.MaxOps operations, returning those that are
// valid and satisfy the five criteria. One op breaks criterion 1, or
// one pair breaks 2 or 5, whatever else a translation holds, and every
// proper superset of a valid translation breaks 3: the search skips
// such sets, and sets that cannot apply, unjudged (ValidOnly skips only
// the latter); the accepted set is the same.
func Search(db *storage.Database, v view.View, r core.Request, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	rels := cfg.Relations
	if rels == nil {
		rels = db.Schema().RelationNames()
	}
	universe, err := OpUniverse(db, rels)
	if err != nil {
		return nil, err
	}
	if len(universe) > cfg.MaxUniverse {
		return nil, fmt.Errorf("bruteforce: op universe %d exceeds limit %d", len(universe), cfg.MaxUniverse)
	}
	res := &Result{Universe: len(universe), Examined: subsetsUpTo(len(universe), cfg.MaxOps) - 1}
	valid := core.NewVerifier(db, v, r).Valid
	opts := core.CheckOptions{Valid: valid}
	ops, clash := universe, [][]bool(nil)
	if !cfg.ValidOnly {
		ops, clash = structural(v, r, universe)
	}
	var cur []int
	var rec func(start int)
	rec = func(start int) {
	next:
		for i := start; i < len(ops); i++ {
			for _, j := range cur {
				if clash != nil && clash[j][i] {
					continue next
				}
			}
			cur = append(cur, i)
			tr := update.NewTranslation()
			for _, j := range cur {
				tr.Add(ops[j])
			}
			ok := applicable(db, tr.Ops()) && valid(tr)
			if ok && (cfg.ValidOnly || len(core.CheckCriteria(db, v, r, tr, opts)) == 0) {
				res.Translations = append(res.Translations, tr)
			}
			if len(cur) < cfg.MaxOps && (cfg.ValidOnly || !ok) {
				rec(i + 1)
			}
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return res, nil
}

// subsetsUpTo counts the subsets of at most k of n elements.
func subsetsUpTo(n, k int) int {
	total, c := 0, 1
	for j := 0; j <= k && j <= n; j++ {
		total += c
		c = c * (n - j) / (j + 1)
	}
	return total
}

// structural keeps the ops of the universe that pass criterion 1 alone
// and reports which pairs of them break criterion 2 or 5, or leave two
// tuples with one key, which no state can apply.
func structural(v view.View, r core.Request, universe []update.Op) (ops []update.Op, clash [][]bool) {
	for _, o := range universe {
		if len(core.CheckStructural(v, r, update.NewTranslation(o))) == 0 {
			ops = append(ops, o)
		}
	}
	clash = make([][]bool, len(ops))
	for i, a := range ops {
		clash[i] = make([]bool, len(ops))
		for j, b := range ops[:i] {
			c := a.Kind != update.Delete && b.Kind != update.Delete && leaves(a).Key() == leaves(b).Key() ||
				len(core.CheckStructural(v, r, update.NewTranslation(a, b))) > 0
			clash[i][j], clash[j][i] = c, c
		}
	}
	return ops, clash
}

// leaves returns the tuple an insert or a replacement leaves in the
// database (a deletion's tuple, for a deletion).
func leaves(o update.Op) tuple.T {
	if o.Kind == update.Replace {
		return o.New
	}
	return o.Tuple
}

// applicable reports whether ops may apply: no tuple they insert or
// replace into has a key the database holds, unless they remove the
// holder.
func applicable(db *storage.Database, ops []update.Op) bool {
	freed := map[string]bool{}
	for _, o := range ops {
		switch o.Kind {
		case update.Delete:
			freed[o.Tuple.Key()] = true
		case update.Replace:
			freed[o.Old.Key()] = true
		}
	}
	for _, o := range ops {
		if _, held := db.LookupKey(leaves(o)); held && o.Kind != update.Delete && !freed[leaves(o).Key()] {
			return false
		}
	}
	return true
}

// SimplificationResult reports the outcome of CheckSimplification under
// the two readings of the theorem's "at least as simple" order (§3).
type SimplificationResult struct {
	// Checked is the number of valid translations examined.
	Checked int
	// StrictFailures counts valid translations with no accepted
	// translation whose added and removed sets are subsets of theirs —
	// the literal subset-order reading. This reproduction found the
	// subset reading to admit counterexamples (a delete-insert pair
	// whose accepted I-2 equivalent preserves a hidden attribute the
	// pair overwrote); see EXPERIMENTS.md.
	StrictFailures int
	// StrictExample is one such counterexample, if any.
	StrictExample *update.Translation
	// ChainFailures counts valid translations from which no accepted
	// translation is reachable under the combined order: subset
	// dominance of added/removed sets, composed with simplification
	// steps (dropping operations, converting a same-relation
	// delete-insert pair into a replacement, weakening a replacement
	// per criterion 4's simpler-replacement order).
	ChainFailures int
	// ChainExample is one such counterexample, if any.
	ChainExample *update.Translation
}

// CheckSimplification validates the paper's simplification theorem on
// one request: "for every valid translation, there is (at least one)
// translation at least as simple that satisfies the 5 criteria". It
// searches all valid translations up to cfg.MaxOps and tests dominance
// under both the strict subset order and the simplification-chain
// order.
func CheckSimplification(db *storage.Database, v view.View, r core.Request, cfg Config) (*SimplificationResult, error) {
	validCfg := cfg
	validCfg.ValidOnly = true
	valid, err := Search(db, v, r, validCfg)
	if err != nil {
		return nil, err
	}
	acceptedCfg := cfg
	acceptedCfg.ValidOnly = false
	accepted, err := Search(db, v, r, acceptedCfg)
	if err != nil {
		return nil, err
	}
	res := &SimplificationResult{Checked: len(valid.Translations)}
	dominated := func(t *update.Translation) bool {
		for _, a := range accepted.Translations {
			if a.AtLeastAsSimpleAs(t) {
				return true
			}
		}
		return false
	}
	for _, t := range valid.Translations {
		if !dominated(t) {
			res.StrictFailures++
			if res.StrictExample == nil {
				res.StrictExample = t
			}
		}
		if !chainReaches(t, dominated) {
			res.ChainFailures++
			if res.ChainExample == nil {
				res.ChainExample = t
			}
		}
	}
	return res, nil
}

// chainReaches runs a BFS over single simplification steps from t,
// reporting whether any visited translation is subset-dominated by an
// accepted translation.
func chainReaches(t *update.Translation, dominated func(*update.Translation) bool) bool {
	seen := map[string]bool{t.Encode(): true}
	queue := []*update.Translation{t}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if dominated(cur) {
			return true
		}
		for _, next := range simplificationSteps(cur) {
			enc := next.Encode()
			if !seen[enc] {
				seen[enc] = true
				queue = append(queue, next)
			}
		}
	}
	return false
}

// simplificationSteps yields every translation obtainable from tr by
// one simplification step.
func simplificationSteps(tr *update.Translation) []*update.Translation {
	ops := tr.Ops()
	var out []*update.Translation

	without := func(skip ...int) *update.Translation {
		skipSet := map[int]bool{}
		for _, i := range skip {
			skipSet[i] = true
		}
		next := update.NewTranslation()
		for i, o := range ops {
			if !skipSet[i] {
				next.Add(o)
			}
		}
		return next
	}

	// Drop one operation.
	for i := range ops {
		out = append(out, without(i))
	}
	// Equivalence moves (§3: equal added/removed sets): convert a
	// same-relation delete-insert pair into a replacement and re-pair
	// removed with added tuples across operations. These keep the
	// added/removed sets intact while restructuring the steps.
	for i, d := range ops {
		if d.Kind != update.Delete {
			continue
		}
		for j, o := range ops {
			switch {
			case o.Kind == update.Insert && o.RelationName() == d.RelationName():
				// delete(d) + insert(i)  ->  replace(d -> i)
				next := without(i, j)
				next.Add(update.NewReplace(d.Tuple, o.Tuple))
				out = append(out, next)
			case o.Kind == update.Replace && o.RelationName() == d.RelationName() && !d.Tuple.Equal(o.Old):
				// delete(d) + replace(o -> n)  ->  replace(d -> n) + delete(o)
				next := without(i, j)
				next.Add(update.NewReplace(d.Tuple, o.New))
				next.Add(update.NewDelete(o.Old))
				out = append(out, next)
			}
		}
	}
	for i, a := range ops {
		if a.Kind != update.Replace {
			continue
		}
		for j, b := range ops {
			if j <= i || b.Kind != update.Replace || b.RelationName() != a.RelationName() {
				continue
			}
			// Swap the replacement tuples of a pair of replaces.
			next := without(i, j)
			next.Add(update.NewReplace(a.Old, b.New))
			next.Add(update.NewReplace(b.Old, a.New))
			out = append(out, next)
		}
		for j, b := range ops {
			if b.Kind != update.Insert || b.RelationName() != a.RelationName() {
				continue
			}
			// insert(t) + replace(o -> n)  ->  replace(o -> t) + insert(n)
			next := without(i, j)
			next.Add(update.NewReplace(a.Old, b.Tuple))
			next.Add(update.NewInsert(a.New))
			out = append(out, next)
		}
	}
	// Weaken a replacement per criterion 4's order.
	for i, o := range ops {
		if o.Kind != update.Replace {
			continue
		}
		for _, alt := range core.SimplerReplacements(o) {
			next := without(i)
			next.Add(alt)
			out = append(out, next)
		}
	}
	return out
}

// DiffGenerators diffs the oracle against the generators on one
// request: it searches every translation with at most as many ops as
// the largest generator candidate and returns Diff's two sides. A
// request the generators refuse must have no acceptable translation of
// up to two ops.
func DiffGenerators(db *storage.Database, v view.View, r core.Request) (onlyOracle, onlyGenerated []string, err error) {
	gen, _ := core.Enumerate(db, v, r)
	maxOps := 0
	for _, c := range gen {
		maxOps = max(maxOps, c.Translation.Len())
	}
	if maxOps == 0 {
		maxOps = 2
	}
	oracle, err := Search(db, v, r, Config{MaxOps: maxOps, MaxUniverse: 5000})
	if err != nil {
		return nil, nil, err
	}
	onlyOracle, onlyGenerated = Diff(oracle, gen)
	return onlyOracle, onlyGenerated, nil
}

// Diff compares the oracle's result with a generated candidate set and
// returns the translations present in exactly one side (canonical
// encodings, sorted): onlyOracle are accepted translations no generator
// produced (incompleteness), onlyGenerated are generator outputs the
// oracle rejected (unsoundness).
func Diff(oracle *Result, generated []core.Candidate) (onlyOracle, onlyGenerated []string) {
	o := map[string]bool{}
	for _, tr := range oracle.Translations {
		o[tr.Encode()] = true
	}
	g := map[string]bool{}
	for _, c := range generated {
		g[c.Translation.Encode()] = true
	}
	for enc := range o {
		if !g[enc] {
			onlyOracle = append(onlyOracle, enc)
		}
	}
	for enc := range g {
		if !o[enc] {
			onlyGenerated = append(onlyGenerated, enc)
		}
	}
	sort.Strings(onlyOracle)
	sort.Strings(onlyGenerated)
	return onlyOracle, onlyGenerated
}
