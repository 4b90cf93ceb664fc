package core

import (
	"fmt"
	"sort"

	"viewupdate/internal/obs"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/view"
)

// A Trace is the "explain" artifact of one view update translation: it
// records, candidate by candidate, what the pipeline considered and why
// each alternative was accepted or discarded — the inspectable form of
// the paper's derivation, where the five criteria of §3 carve the
// acceptable translations out of the naive update space.
//
// Two kinds of candidates appear. Generator candidates come from the
// complete enumerators (classes I-1/I-2, D-1/D-2, R-1…R-5 and their
// SPJ compositions); the theorems of §4–§5 guarantee they satisfy the
// criteria, and the trace re-verifies each one. Probe candidates are
// nearby naive alternatives (split replacements, unions of candidates,
// widened replacements, extra unmentioned operations) that the
// generators never emit precisely because a criterion rejects them;
// they are included so the trace shows each criterion doing its work.
type Trace struct {
	// View and Request identify the traced translation.
	View    string `json:"view"`
	Request string `json:"request"`
	// Policy names the policy that chose among the accepted candidates.
	Policy string `json:"policy"`
	// Phases times the pipeline stages (enumerate, criteria, probes,
	// policy) in nanoseconds.
	Phases []TracePhase `json:"phases,omitempty"`
	// Candidates lists every considered translation with its verdict.
	Candidates []TraceCandidate `json:"candidates"`
	// ChosenIndex is the index into Candidates of the policy's pick, or
	// -1 when translation failed.
	ChosenIndex int `json:"chosen_index"`
	// Err records an enumeration or policy failure, empty on success.
	Err string `json:"error,omitempty"`
}

// TracePhase is one timed pipeline stage.
type TracePhase struct {
	Name  string `json:"name"`
	Nanos int64  `json:"nanos"`
}

// Verdicts of a traced candidate.
const (
	VerdictAccepted = "accepted" // valid and satisfies all five criteria
	VerdictInvalid  = "invalid"  // not a valid translation of the request
	VerdictRejected = "rejected" // valid but violates a criterion
)

// A TraceCandidate is one considered translation and its fate.
type TraceCandidate struct {
	// Source is "generator" for enumerator output, "probe" for a naive
	// alternative synthesized to exhibit a criterion rejection.
	Source string `json:"source"`
	// Class is the algorithm class ("D-1", "SPJ-I(…)") or the probe's
	// derivation label ("split(D-2)", "union(D-1,D-2)").
	Class string `json:"class"`
	// Translation is the rendered database update set.
	Translation string `json:"translation"`
	// Choices renders the arbitrary value choices as sorted "attr=value"
	// strings.
	Choices []string `json:"choices,omitempty"`
	// Verdict is one of the Verdict* constants.
	Verdict string `json:"verdict"`
	// RejectedBy is the first violated criterion (1–5) when Verdict is
	// "rejected", 0 otherwise.
	RejectedBy int `json:"rejected_by,omitempty"`
	// Detail explains the verdict (the violation text, or why the
	// translation is invalid).
	Detail string `json:"detail,omitempty"`
	// Chosen marks the candidate the policy selected.
	Chosen bool `json:"chosen,omitempty"`
}

// Accepted returns the indices of accepted candidates.
func (t *Trace) Accepted() []int {
	var out []int
	for i, c := range t.Candidates {
		if c.Verdict == VerdictAccepted {
			out = append(out, i)
		}
	}
	return out
}

// Rejections counts rejected candidates per criterion (key 1..5).
func (t *Trace) Rejections() map[int]int {
	out := map[int]int{}
	for _, c := range t.Candidates {
		if c.Verdict == VerdictRejected {
			out[c.RejectedBy]++
		}
	}
	return out
}

// TraceOptions parameterizes TraceTranslate.
type TraceOptions struct {
	// Probes, when true, synthesizes naive rejected alternatives so the
	// trace exhibits the criteria at work. TranslateTraced sets it.
	Probes bool
}

// maxProbes bounds the number of probe candidates in a trace.
const maxProbes = 8

// choiceStrings renders a candidate's choices as sorted "k=v" pairs.
func choiceStrings(c Candidate) []string {
	if len(c.Choices) == 0 {
		return nil
	}
	out := make([]string, 0, len(c.Choices))
	for k, v := range c.Choices {
		out = append(out, k+"="+v.String())
	}
	sort.Strings(out)
	return out
}

// TranslateTraced translates the request like Translate and
// additionally returns the full explain trace. It is strictly more
// expensive than Translate — every candidate is re-verified against the
// five criteria and naive probe alternatives are synthesized and judged
// — so it is meant for inspection, debugging and the -explain mode of
// the CLI, not for hot paths.
func (t *Translator) TranslateTraced(db storage.Source, r Request) (Candidate, *Trace, error) {
	return TraceTranslate(db, t.View, t.Policy, r, TraceOptions{Probes: true})
}

// TraceTranslate runs the traced pipeline: enumerate, verify each
// candidate against validity and the five criteria, synthesize and
// judge probe alternatives, then let the policy choose. The database is
// read, not modified. The returned error mirrors Translate's; the trace
// is non-nil even on failure and records what happened.
func TraceTranslate(db storage.Source, v view.View, p Policy, r Request, opts TraceOptions) (Candidate, *Trace, error) {
	p = orDefault(p)
	tr := &Trace{
		View:        v.Name(),
		Request:     r.String(),
		Policy:      p.Name(),
		ChosenIndex: -1,
	}
	span := obs.StartSpan("core.trace.translate")
	defer span.End()

	phase := func(name string, f func()) {
		sp := obs.StartSpan("core.trace." + name)
		f()
		tr.Phases = append(tr.Phases, TracePhase{Name: name, Nanos: int64(sp.End())})
	}

	var cands []Candidate
	var enumErr error
	phase("enumerate", func() {
		cands, enumErr = Enumerate(db, v, r)
	})
	if enumErr != nil {
		tr.Err = enumErr.Error()
		return Candidate{}, tr, enumErr
	}

	// One verifier for the whole request: candidates are judged by row
	// delta against copy-on-write overlays.
	valid := NewVerifier(db, v, r).Valid

	judge := func(c Candidate, source string) TraceCandidate {
		tc := TraceCandidate{
			Source:      source,
			Class:       c.Class,
			Translation: c.Translation.String(),
			Choices:     choiceStrings(c),
		}
		if !valid(c.Translation) {
			tc.Verdict = VerdictInvalid
			tc.Detail = "not a valid translation of the request"
			return tc
		}
		viols := CheckCriteria(db, v, r, c.Translation, CheckOptions{Valid: valid})
		if len(viols) == 0 {
			tc.Verdict = VerdictAccepted
			return tc
		}
		tc.Verdict = VerdictRejected
		tc.RejectedBy = viols[0].Criterion
		tc.Detail = viols[0].Detail
		return tc
	}

	var accepted []Candidate
	phase("criteria", func() {
		for _, c := range cands {
			tc := judge(c, "generator")
			tr.Candidates = append(tr.Candidates, tc)
			if tc.Verdict == VerdictAccepted {
				accepted = append(accepted, c)
			}
		}
	})

	if opts.Probes {
		phase("probes", func() {
			for _, c := range buildProbes(db, v, r, cands, maxProbes) {
				tr.Candidates = append(tr.Candidates, judge(c, "probe"))
			}
		})
	}

	var chosen Candidate
	var chooseErr error
	phase("policy", func() {
		chosen, chooseErr = p.Choose(r, accepted)
	})
	if chooseErr != nil {
		tr.Err = chooseErr.Error()
		return Candidate{}, tr, chooseErr
	}
	for i := range tr.Candidates {
		tc := &tr.Candidates[i]
		if tc.Source == "generator" && tc.Verdict == VerdictAccepted &&
			tc.Class == chosen.Class && tc.Translation == chosen.Translation.String() {
			tc.Chosen = true
			tr.ChosenIndex = i
			break
		}
	}
	return chosen, tr, nil
}

// buildProbes synthesizes naive alternative translations in the
// neighborhood of the generator candidates — the translations a naive
// algorithm might produce and that the criteria of §3 reject:
//
//   - split(C): a replacement of C performed as delete+insert
//     (criterion 5: no delete-insert pairs per relation; for requests
//     without an added side, criterion 1 fires first);
//   - union(C1,C2): two candidates combined, touching the same base
//     tuple twice (criterion 2: only one-step changes) or inserting
//     conflicting tuples (invalid);
//   - widen(C): a replacement of C that also changes an attribute the
//     view update does not require (criterion 4: replacements must not
//     be simplifiable);
//   - extra(C): a candidate plus the deletion of an unrelated, view-
//     invisible tuple (criterion 1: no database side effects).
//
// Probes are deterministic and bounded by limit.
func buildProbes(db storage.Source, v view.View, r Request, cands []Candidate, limit int) []Candidate {
	var out []Candidate
	add := func(c Candidate) bool {
		if len(out) >= limit {
			return false
		}
		out = append(out, c)
		return true
	}

	// split: every replacement becomes a delete-insert pair.
	for _, c := range cands {
		reps := c.Translation.Replacements()
		if len(reps) == 0 {
			continue
		}
		split := update.NewTranslation()
		for _, o := range c.Translation.Ops() {
			if o.Kind == update.Replace {
				split.Add(update.NewDelete(o.Old))
				split.Add(update.NewInsert(o.New))
			} else {
				split.Add(o)
			}
		}
		if !add(Candidate{Class: "split(" + c.Class + ")", Translation: split}) {
			return out
		}
		break // one split probe suffices
	}

	// union: combine the first two distinct candidates.
	for i := 0; i < len(cands) && i < 2; i++ {
		for j := i + 1; j < len(cands); j++ {
			if cands[i].Translation.Equal(cands[j].Translation) {
				continue
			}
			u := cands[i].Translation.Clone()
			u.AddAll(cands[j].Translation)
			if !add(Candidate{
				Class:       "union(" + cands[i].Class + "," + cands[j].Class + ")",
				Translation: u,
			}) {
				return out
			}
			j = len(cands) // only the first partner per i
		}
	}

	// widen: change one extra attribute in a replacement's new tuple.
	for _, c := range cands {
		probe, ok := widenReplacement(c)
		if !ok {
			continue
		}
		if !add(probe) {
			return out
		}
		break
	}

	// extra: append the deletion of a view-invisible, unmentioned tuple.
	if vic, ok := invisibleVictim(db, v, r); ok {
		for _, c := range cands {
			extra := c.Translation.Clone()
			extra.Add(update.NewDelete(vic))
			if !add(Candidate{Class: "extra(" + c.Class + ")", Translation: extra}) {
				return out
			}
			break
		}
	}
	return out
}

// widenReplacement derives a probe from c's first replacement by also
// flipping one attribute that the replacement leaves unchanged (a
// non-key attribute, to keep the op plausible).
func widenReplacement(c Candidate) (Candidate, bool) {
	for _, op := range c.Translation.Replacements() {
		rel := op.Old.Relation()
		for _, a := range rel.NonKeyAttributes() {
			if op.Old.MustGet(a) != op.New.MustGet(a) {
				continue // already changed
			}
			attr, _ := rel.Attribute(a)
			for _, val := range attr.Domain.Values() {
				if val == op.New.MustGet(a) {
					continue
				}
				widened := update.NewTranslation()
				for _, o := range c.Translation.Ops() {
					if o.Encode() == op.Encode() {
						widened.Add(update.NewReplace(op.Old, op.New.MustWith(a, val)))
					} else {
						widened.Add(o)
					}
				}
				return Candidate{Class: "widen(" + c.Class + ")", Translation: widened}, true
			}
		}
	}
	return Candidate{}, false
}

// invisibleVictim finds a deterministic database tuple that is neither
// visible in the view nor mentioned (by key) in the request — deleting
// it is the classic criterion-1 violation (a database side effect the
// view user never asked for).
func invisibleVictim(db storage.Source, v view.View, r Request) (tuple.T, bool) {
	mentioned := r.Mentioned()
	nodes := relationsOf(v)
	for _, sp := range nodes {
	next:
		for _, t := range db.Tuples(sp.Base().Name()) {
			if anyKeyMatch(mentioned, t) {
				continue
			}
			for _, n := range nodes { // visible through some node
				if n.Base() == t.Relation() && n.Selection().Matches(t) {
					continue next
				}
			}
			return t, true
		}
	}
	return tuple.T{}, false
}

// relationsOf lists the SP nodes of a view (the view itself when it
// is SP); each reads one base relation.
func relationsOf(v view.View) []*view.SP {
	switch vv := v.(type) {
	case *view.SP:
		return []*view.SP{vv}
	case *view.Join:
		out := make([]*view.SP, len(vv.Nodes()))
		for i, n := range vv.Nodes() {
			out[i] = n.SP
		}
		return out
	}
	return nil
}

// String renders a one-line summary of the trace.
func (t *Trace) String() string {
	acc := len(t.Accepted())
	return fmt.Sprintf("trace(%s on %s: %d candidates, %d accepted, chosen %d)",
		t.Request, t.View, len(t.Candidates), acc, t.ChosenIndex)
}
