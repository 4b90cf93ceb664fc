package core

import (
	"fmt"
	"sort"
	"strings"

	"viewupdate/internal/obs"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
)

// countCandidates records per-class candidate production. SP class
// labels are a bounded set (I-1, I-2, D-1, D-2, R-1…R-5), so the
// counter cardinality stays small; join-view enumerators count their
// composite prefix separately.
func countCandidates(cands []Candidate) {
	if !obs.Enabled() {
		return
	}
	obs.Add("core.candidates.generated", int64(len(cands)))
	for _, c := range cands {
		obs.Inc("core.candidates.class." + c.Class)
	}
}

// A Candidate is one translation of a view update request, labelled
// with the paper's algorithm class that generated it and the arbitrary
// choices the algorithm made (which distinguish the algorithms within a
// class).
type Candidate struct {
	// Class names the generating algorithm class: "I-1", "I-2", "D-1",
	// "D-2", "R-1" … "R-5", or a composite like
	// "SPJ-I(emp:I-1, dept:R-1)".
	Class string
	// Translation is the database update set.
	Translation *update.Translation
	// Choices records the arbitrary value choices, keyed by attribute
	// name (possibly prefixed by a role such as "old." or a node name).
	Choices map[string]value.Value
}

// String renders the candidate.
func (c Candidate) String() string {
	if len(c.Choices) == 0 {
		return fmt.Sprintf("[%s] %s", c.Class, c.Translation)
	}
	keys := make([]string, 0, len(c.Choices))
	for k := range c.Choices {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + c.Choices[k].String()
	}
	return fmt.Sprintf("[%s; %s] %s", c.Class, strings.Join(parts, ","), c.Translation)
}

// cloneChoices copies a choice map, applying a key prefix.
func cloneChoices(prefix string, in map[string]value.Value) map[string]value.Value {
	if len(in) == 0 {
		return nil
	}
	out := make(map[string]value.Value, len(in))
	for k, v := range in {
		out[prefix+k] = v
	}
	return out
}

// mergeChoices merges choice maps with per-map prefixes.
func mergeChoices(ms ...map[string]value.Value) map[string]value.Value {
	var out map[string]value.Value
	for _, m := range ms {
		for k, v := range m {
			if out == nil {
				out = make(map[string]value.Value)
			}
			out[k] = v
		}
	}
	return out
}

// An extension is a base tuple produced by an extend algorithm plus the
// choices that produced it.
type extension struct {
	base    tuple.T
	choices map[string]value.Value
}

// extendInsertAll implements ALGORITHM CLASS EXTEND-INSERT (§4-3): the
// new database tuple takes the view tuple's values on visible
// attributes; each projected-out attribute takes, in turn, every value
// from its set of selecting values (its whole domain when
// non-selecting). One extension per combination.
func extendInsertAll(v *view.SP, u tuple.T) []extension {
	span := obs.StartSpan("core.extend_insert")
	defer span.End()
	base := v.Base()
	free := v.ProjectedOut()
	choicesPerAttr := make([][]value.Value, len(free))
	for i, a := range free {
		choicesPerAttr[i] = v.Selection().SelectingValues(a)
	}
	var out []extension
	vals := make([]value.Value, base.Arity())
	for i, a := range base.Attributes() {
		if uv, ok := u.Get(a.Name); ok {
			vals[i] = uv
		}
	}
	var rec func(i int, choices map[string]value.Value)
	rec = func(i int, choices map[string]value.Value) {
		if i == len(free) {
			cp := make([]value.Value, len(vals))
			copy(cp, vals)
			out = append(out, extension{base: tuple.MustNew(base, cp...), choices: cloneChoices("", choices)})
			return
		}
		idx := base.Index(free[i])
		for _, c := range choicesPerAttr[i] {
			vals[idx] = c
			choices[free[i]] = c
			rec(i+1, choices)
		}
		delete(choices, free[i])
	}
	rec(0, map[string]value.Value{})
	return out
}

// UniqueExtendInsert reports whether the extend-insert algorithm is
// unique for v: "there is a unique extend-insert algorithm iff each
// attribute projected out has a singleton set of selecting values".
func UniqueExtendInsert(v *view.SP) bool {
	for _, a := range v.ProjectedOut() {
		if len(v.Selection().SelectingValues(a)) != 1 {
			return false
		}
	}
	return true
}

// extendI2All enumerates the I-2 rewrites of an existing database tuple
// t so that it appears in the view as u (§4-3): visible attributes are
// changed to match u, and every projected-out attribute currently
// holding an excluding value is changed, in turn, to each of its
// selecting values. Other hidden attributes keep their values.
func extendI2All(v *view.SP, t tuple.T, u tuple.T) []extension {
	span := obs.StartSpan("core.extend_i2")
	defer span.End()
	sel := v.Selection()
	out := []extension{{base: t}}
	// Visible attributes match the view tuple.
	for _, a := range v.Projection().Attributes() {
		uv := u.MustGet(a)
		for i := range out {
			out[i].base = out[i].base.MustWith(a, uv)
		}
	}
	// Hidden selecting attributes with excluding values must flip to a
	// selecting value; enumerate each choice.
	for _, a := range v.ProjectedOut() {
		if !sel.IsSelecting(a) {
			continue
		}
		if sel.Selects(a, t.MustGet(a)) {
			continue
		}
		var next []extension
		for _, e := range out {
			for _, sv := range sel.SelectingValues(a) {
				choices := mergeChoices(e.choices, map[string]value.Value{a: sv})
				next = append(next, extension{base: e.base.MustWith(a, sv), choices: choices})
			}
		}
		out = next
	}
	return out
}

// extendReplace implements ALGORITHM EXTEND-REPLACE (§4-5): replace the
// database tuple, changing the attributes appearing in the view to
// match the new view tuple; hidden attributes keep their values. There
// is only one extend-replace algorithm.
func extendReplace(v *view.SP, base tuple.T, u tuple.T) tuple.T {
	span := obs.StartSpan("core.extend_replace")
	defer span.End()
	out := base
	for _, a := range v.Projection().Attributes() {
		out = out.MustWith(a, u.MustGet(a))
	}
	return out
}

// EnumerateSPInsert returns every candidate translation of the valid
// view insertion of u into v that satisfies the five criteria —
// exactly the algorithms of classes I-1 and I-2. The two classes apply
// to disjoint database states: I-1 when no database tuple carries u's
// key, I-2 when one does.
func EnumerateSPInsert(db storage.Source, v *view.SP, u tuple.T) ([]Candidate, error) {
	if err := ValidateRequest(db, v, InsertRequest(u)); err != nil {
		return nil, err
	}
	if conflicting, ok := v.BaseForKey(db, u); ok {
		// ALGORITHM CLASS I-2: rewrite the hidden conflicting tuple.
		exts := extendI2All(v, conflicting, u)
		out := make([]Candidate, len(exts))
		for i, e := range exts {
			out[i] = Candidate{
				Class:       "I-2",
				Translation: update.NewTranslation(update.NewReplace(conflicting, e.base)),
				Choices:     e.choices,
			}
		}
		countCandidates(out)
		return out, nil
	}
	// ALGORITHM CLASS I-1: insert an extend-insert extension.
	exts := extendInsertAll(v, u)
	out := make([]Candidate, len(exts))
	for i, e := range exts {
		out[i] = Candidate{
			Class:       "I-1",
			Translation: update.NewTranslation(update.NewInsert(e.base)),
			Choices:     e.choices,
		}
	}
	countCandidates(out)
	return out, nil
}

// EnumerateSPDelete returns every candidate translation of the valid
// view deletion of u from v — exactly the algorithms of classes D-1
// (delete the underlying tuple) and D-2 (replace it, flipping one
// non-key selecting attribute to an excluding value). D-2 is empty when
// the selection is "true" or selects only key attributes.
func EnumerateSPDelete(db storage.Source, v *view.SP, u tuple.T) ([]Candidate, error) {
	if err := ValidateRequest(db, v, DeleteRequest(u)); err != nil {
		return nil, err
	}
	base, ok := v.BaseForKey(db, u)
	if !ok {
		return nil, fmt.Errorf("core: no base tuple for %s", u)
	}
	out := []Candidate{{
		Class:       "D-1",
		Translation: update.NewTranslation(update.NewDelete(base)),
	}}
	out = append(out, d2Candidates(v, base)...)
	countCandidates(out)
	return out, nil
}

// d2Candidates builds the D-2 alternatives for removing base from the
// view: one per (non-key selecting attribute, excluding value) pair.
func d2Candidates(v *view.SP, base tuple.T) []Candidate {
	var out []Candidate
	sel := v.Selection()
	for _, a := range sel.SelectingAttributes() {
		if v.Base().IsKey(a) {
			continue
		}
		for _, e := range sel.ExcludingValues(a) {
			flipped := base.MustWith(a, e)
			out = append(out, Candidate{
				Class:       "D-2",
				Translation: update.NewTranslation(update.NewReplace(base, flipped)),
				Choices:     map[string]value.Value{a: e},
			})
		}
	}
	return out
}

// EnumerateSPReplace returns every candidate translation of the valid
// view replacement of old by new in v — exactly the algorithms of
// classes R-1 through R-5 (§4-5):
//
//	key unchanged:                         R-1 (extend-replace)
//	key changes, no hidden key conflict:   R-2 (extend-replace)
//	                                       R-4 (D-2 on old × I-1 on new)
//	key changes, hidden key conflict:      R-3 (I-2 on new + delete old)
//	                                       R-5 (D-2 on old × I-2 on new)
func EnumerateSPReplace(db storage.Source, v *view.SP, old, new tuple.T) ([]Candidate, error) {
	if err := ValidateRequest(db, v, ReplaceRequest(old, new)); err != nil {
		return nil, err
	}
	return enumerateSPReplace(db, v, old, new)
}

// enumerateSPReplace is EnumerateSPReplace without the request check:
// a tuple holding new's key is R-3's and R-5's conflict even if v
// selects it, as SPJ-R needs at a root whose row a parent hides.
func enumerateSPReplace(db storage.Source, v *view.SP, old, new tuple.T) ([]Candidate, error) {
	base1, ok := v.BaseForKey(db, old)
	if !ok {
		return nil, fmt.Errorf("core: no base tuple for %s", old)
	}

	if old.Key() == new.Key() {
		// ALGORITHM CLASS R-1: the only class when the key is unchanged.
		out := []Candidate{{
			Class:       "R-1",
			Translation: update.NewTranslation(update.NewReplace(base1, extendReplace(v, base1, new))),
		}}
		countCandidates(out)
		return out, nil
	}

	var out []Candidate
	d2s := d2Candidates(v, base1)

	if base2, conflict := v.BaseForKey(db, new); conflict {
		// ALGORITHM CLASS R-3: rewrite the hidden conflicting tuple to
		// become the replacement view tuple (unless a parent hides its
		// join-view row and it already is) and delete the replaced one.
		rewrite := func(trans *update.Translation, e extension) *update.Translation {
			if !e.base.Equal(base2) {
				trans.Add(update.NewReplace(base2, e.base))
			}
			return trans
		}
		for _, e := range extendI2All(v, base2, new) {
			out = append(out, Candidate{
				Class:       "R-3",
				Translation: rewrite(update.NewTranslation(update.NewDelete(base1)), e),
				Choices:     cloneChoices("new.", e.choices),
			})
		}
		// ALGORITHM CLASS R-5: D-2 the replaced tuple out of the view
		// and rewrite the hidden conflicting tuple.
		for _, d := range d2s {
			for _, e := range extendI2All(v, base2, new) {
				trans := rewrite(d.Translation.Clone(), e)
				out = append(out, Candidate{
					Class:       "R-5",
					Translation: trans,
					Choices:     mergeChoices(cloneChoices("old.", d.Choices), cloneChoices("new.", e.choices)),
				})
			}
		}
		countCandidates(out)
		return out, nil
	}

	// ALGORITHM CLASS R-2: one extend-replace changing the key.
	out = append(out, Candidate{
		Class:       "R-2",
		Translation: update.NewTranslation(update.NewReplace(base1, extendReplace(v, base1, new))),
	})
	// ALGORITHM CLASS R-4: D-2 the replaced tuple out of the view and
	// insert an extend-insert extension of the replacement tuple.
	for _, d := range d2s {
		for _, e := range extendInsertAll(v, new) {
			trans := d.Translation.Clone()
			trans.Add(update.NewInsert(e.base))
			out = append(out, Candidate{
				Class:       "R-4",
				Translation: trans,
				Choices:     mergeChoices(cloneChoices("old.", d.Choices), cloneChoices("new.", e.choices)),
			})
		}
	}
	countCandidates(out)
	return out, nil
}

// EnumerateSP dispatches on the request kind.
func EnumerateSP(db storage.Source, v *view.SP, r Request) ([]Candidate, error) {
	span := obs.StartSpan("core.sp.generate")
	defer span.End()
	var cands []Candidate
	var err error
	switch r.Kind {
	case update.Insert:
		cands, err = EnumerateSPInsert(db, v, r.Tuple)
	case update.Delete:
		cands, err = EnumerateSPDelete(db, v, r.Tuple)
	case update.Replace:
		cands, err = EnumerateSPReplace(db, v, r.Old, r.New)
	default:
		return nil, fmt.Errorf("core: invalid request kind")
	}
	if err != nil {
		obs.Inc("core.sp.generate.error")
		return nil, err
	}
	return cands, nil
}
