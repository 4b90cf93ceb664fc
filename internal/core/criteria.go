package core

import (
	"fmt"

	"viewupdate/internal/obs"
	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
)

// Valid implements the paper's validity notion: on an SP view a
// translation is valid iff applying it yields exactly the requested
// view state, V(DB′) = U(V(DB)); on a join view it may also have the
// view side effect §5 admits (see Verifier.Valid). It returns false
// both when the translation cannot be applied (absent tuples, key
// conflicts, constraint violations) and when the resulting view is not
// the requested one.
//
// It is shorthand for NewVerifier(db, v, r).Valid(tr).
func Valid(db storage.Source, v view.View, r Request, tr *update.Translation) bool {
	return NewVerifier(db, v, r).Valid(tr)
}

// A Violation reports that a translation breaks one of the five
// criteria.
type Violation struct {
	Criterion int // 1..5
	Detail    string
}

// Error renders the violation.
func (v Violation) Error() string {
	return fmt.Sprintf("criterion %d violated: %s", v.Criterion, v.Detail)
}

// CheckOptions parameterizes criteria checking.
type CheckOptions struct {
	// Valid decides validity of an alternative translation; criteria 3
	// and 4 quantify over alternatives. A caller judging many
	// candidates passes its Verifier's Valid; nil builds one.
	Valid func(tr *update.Translation) bool
}

// maxAlternativeSpace bounds the alternative replacement tuples
// criterion 4 enumerates per key-changing replace op: a relation whose
// non-key space is larger is not searched for key-preserving
// alternatives.
const maxAlternativeSpace = 4096

// CheckCriteria evaluates the five criteria of §3 on a candidate
// translation for request r against view v over db. The returned slice
// is empty iff the translation satisfies all five criteria. Validity
// itself is a precondition, not one of the criteria; callers usually
// check Valid first.
func CheckCriteria(db storage.Source, v view.View, r Request, tr *update.Translation, opts CheckOptions) []Violation {
	span := obs.StartSpan("core.criteria.check")
	defer span.End()
	obs.Inc("core.criteria.checked")
	valid := opts.Valid
	if valid == nil {
		valid = NewVerifier(db, v, r).Valid
	}
	out := violations(checkCriterion1(v, r, tr), checkCriterion2(tr),
		checkCriterion3(tr, valid), checkCriterion4(tr, valid), checkCriterion5(tr))
	if len(out) == 0 {
		obs.Inc("core.criteria.pass")
	} else {
		for _, viol := range out {
			countViolation(viol.Criterion)
		}
	}
	return out
}

// CheckStructural evaluates the criteria that quantify over no other
// translation, and so need no validity: 1 (no database side effects),
// 2 (only one-step changes) and 5 (no delete-insert pairs). A
// translation breaks one of them iff one of its ops, or one pair of its
// ops, does; the oracle prunes its search by that.
func CheckStructural(v view.View, r Request, tr *update.Translation) []Violation {
	return violations(checkCriterion1(v, r, tr), checkCriterion2(tr), checkCriterion5(tr))
}

// violations lists the criteria broken, in order.
func violations(vs ...*Violation) []Violation {
	var out []Violation
	for _, viol := range vs {
		if viol != nil {
			out = append(out, *viol)
		}
	}
	return out
}

// countViolation bumps the per-criterion rejection counter. The metric
// names are constants so the disabled and enabled paths alike avoid
// building strings.
func countViolation(criterion int) {
	switch criterion {
	case 1:
		obs.Inc("core.criteria.reject.1")
	case 2:
		obs.Inc("core.criteria.reject.2")
	case 3:
		obs.Inc("core.criteria.reject.3")
	case 4:
		obs.Inc("core.criteria.reject.4")
	case 5:
		obs.Inc("core.criteria.reject.5")
	}
}

// keyMatches reports whether the view tuple u carries relation rel's
// key values equal to those of the database tuple t. The criterion
// presupposes "the key of each relation affected appears in the view";
// if u lacks a key attribute the match fails.
func keyMatches(u tuple.T, rel *schema.Relation, t tuple.T) bool {
	for _, k := range rel.Key() {
		uv, ok := u.Get(k)
		if !ok {
			return false
		}
		if uv != t.MustGet(k) {
			return false
		}
	}
	return true
}

func anyKeyMatch(us []tuple.T, t tuple.T) bool {
	rel := t.Relation()
	for _, u := range us {
		if keyMatches(u, rel, t) {
			return true
		}
	}
	return false
}

// checkCriterion1 implements "no database side effects": every affected
// database tuple's key matches the respective values in the tuples
// mentioned in the view update request — removed-side request tuples
// authorize removed-side keys, added-side request tuples authorize
// added-side keys, and a key-preserving replacement may match either
// side ("if the key of a tuple changes, the old and new keys must
// appear in the respective positions of the view update request").
func checkCriterion1(v view.View, r Request, tr *update.Translation) *Violation {
	added := r.AddedTuples()
	removed := r.RemovedTuples()
	all := r.Mentioned()
	for _, o := range tr.Ops() {
		switch o.Kind {
		case update.Insert:
			if !anyKeyMatch(added, o.Tuple) {
				return &Violation{1, fmt.Sprintf("inserted tuple %s has a key not mentioned on the request's added side", o.Tuple)}
			}
		case update.Delete:
			if !anyKeyMatch(removed, o.Tuple) {
				return &Violation{1, fmt.Sprintf("deleted tuple %s has a key not mentioned on the request's removed side", o.Tuple)}
			}
		case update.Replace:
			if o.Old.Key() == o.New.Key() {
				if !anyKeyMatch(all, o.Old) {
					return &Violation{1, fmt.Sprintf("replaced tuple %s has a key not mentioned in the request", o.Old)}
				}
			} else {
				if !anyKeyMatch(removed, o.Old) {
					return &Violation{1, fmt.Sprintf("key-changing replacement's old tuple %s not matched on the removed side", o.Old)}
				}
				if !anyKeyMatch(added, o.New) {
					return &Violation{1, fmt.Sprintf("key-changing replacement's new tuple %s not matched on the added side", o.New)}
				}
			}
		}
	}
	return nil
}

// checkCriterion2 implements "only one-step changes": "each database
// tuple is affected by at most one step of the translation". An
// insertion or deletion affects its tuple; a replacement affects both
// the replaced and the replacement tuple. Any tuple touched by two
// different steps — a replaced inserted tuple, a deleted replacement, a
// tuple replaced twice, chained replacements, and so on — violates the
// criterion.
func checkCriterion2(tr *update.Translation) *Violation {
	affected := map[string]update.Op{}
	touch := func(t tuple.T, o update.Op) *Violation {
		enc := t.Encode()
		if prev, dup := affected[enc]; dup {
			return &Violation{2, fmt.Sprintf("tuple %s is affected by two steps: %s and %s", t, prev, o)}
		}
		affected[enc] = o
		return nil
	}
	for _, o := range tr.Ops() {
		switch o.Kind {
		case update.Insert, update.Delete:
			if v := touch(o.Tuple, o); v != nil {
				return v
			}
		case update.Replace:
			if v := touch(o.Old, o); v != nil {
				return v
			}
			if !o.New.Equal(o.Old) {
				if v := touch(o.New, o); v != nil {
					return v
				}
			}
		}
	}
	return nil
}

// checkCriterion3 implements "minimal change: no unnecessary changes":
// no valid translation performs only a proper subset of the database
// requests.
func checkCriterion3(tr *update.Translation, valid func(*update.Translation) bool) *Violation {
	for _, sub := range tr.ProperSubsets() {
		if valid(sub) {
			return &Violation{3, fmt.Sprintf("proper subset %s is already a valid translation", sub)}
		}
	}
	return nil
}

// checkCriterion4 implements "minimal change: replacements cannot be
// simplified": no replacement in the translation can be swapped for a
// simpler replacement of the same tuple — one that does not change the
// key while the original does, or one that makes the same changes on a
// proper subset of the changed attributes — while keeping the
// translation valid.
func checkCriterion4(tr *update.Translation, valid func(*update.Translation) bool) *Violation {
	for _, op := range tr.Replacements() {
		for _, alt := range SimplerReplacements(op) {
			cand := update.NewTranslation()
			for _, o := range tr.Ops() {
				if o.Encode() != op.Encode() {
					cand.Add(o)
				}
			}
			cand.Add(alt)
			if valid(cand) {
				return &Violation{4, fmt.Sprintf("replacement %s can be simplified to %s", op, alt)}
			}
		}
	}
	return nil
}

// changedAttrs returns the attributes where old and new differ.
func changedAttrs(old, new tuple.T) []string {
	var out []string
	for _, a := range old.Relation().Attributes() {
		if old.MustGet(a.Name) != new.MustGet(a.Name) {
			out = append(out, a.Name)
		}
	}
	return out
}

// keyChanges reports whether a replacement changes the key.
func keyChanges(old, new tuple.T) bool { return old.Key() != new.Key() }

// SimplerReplacements enumerates replacement ops of the same tuple that
// are simpler than op per §3's criterion 4:
//
//  1. same changes on a proper non-empty subset of the changed
//     attributes;
//  2. if op changes the key: any replacement keeping the key, obtained
//     by varying non-key attributes over their domains (skipped when
//     that space exceeds maxAlternativeSpace).
//
// It is used by the criterion-4 checker and by the oracle's
// simplification-chain search.
func SimplerReplacements(op update.Op) []update.Op {
	var out []update.Op
	old := op.Old
	changed := changedAttrs(old, op.New)
	// Proper non-empty subsets of the changed attributes, same values.
	n := len(changed)
	if n > 1 && n <= 16 {
		for mask := 1; mask < (1<<n)-1; mask++ {
			t := old
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					t = t.MustWith(changed[i], op.New.MustGet(changed[i]))
				}
			}
			out = append(out, update.NewReplace(old, t))
		}
	}
	if keyChanges(old, op.New) {
		// Any key-preserving replacement is simpler. Enumerate the
		// non-key attribute space up to maxAlternativeSpace
		// alternatives.
		rel := old.Relation()
		nonKey := rel.NonKeyAttributes()
		space := 1
		for _, a := range nonKey {
			attr, _ := rel.Attribute(a)
			space *= attr.Domain.Size()
			if space > maxAlternativeSpace {
				break
			}
		}
		if space <= maxAlternativeSpace {
			alts := enumerateAssignments(rel, nonKey)
			for _, vals := range alts {
				t := old
				for i, a := range nonKey {
					t = t.MustWith(a, vals[i])
				}
				if !t.Equal(old) {
					out = append(out, update.NewReplace(old, t))
				}
			}
		}
	}
	return out
}

// enumerateAssignments yields every assignment of domain values to the
// named attributes of rel, in deterministic order.
func enumerateAssignments(rel *schema.Relation, attrs []string) [][]value.Value {
	if len(attrs) == 0 {
		return [][]value.Value{nil}
	}
	domains := make([][]value.Value, len(attrs))
	for i, a := range attrs {
		attr, ok := rel.Attribute(a)
		if !ok {
			panic(fmt.Sprintf("core: attribute %s not in %s", a, rel.Name()))
		}
		domains[i] = attr.Domain.Values()
	}
	var out [][]value.Value
	cur := make([]value.Value, len(attrs))
	var rec func(i int)
	rec = func(i int) {
		if i == len(attrs) {
			cp := make([]value.Value, len(cur))
			copy(cp, cur)
			out = append(out, cp)
			return
		}
		for _, v := range domains[i] {
			cur[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// checkCriterion5 implements "minimal change: no delete-insert pairs":
// a candidate translation may contain deletions or insertions for any
// one relation, but not both.
func checkCriterion5(tr *update.Translation) *Violation {
	hasDel := map[string]bool{}
	hasIns := map[string]bool{}
	for _, o := range tr.Ops() {
		switch o.Kind {
		case update.Delete:
			hasDel[o.RelationName()] = true
		case update.Insert:
			hasIns[o.RelationName()] = true
		}
	}
	for rel := range hasDel {
		if hasIns[rel] {
			return &Violation{5, fmt.Sprintf("relation %s has both deletions and insertions (convertible to a replacement)", rel)}
		}
	}
	return nil
}
