// Package dialog implements the paper's proposal that "the database
// administrator provide additional semantics during view definition
// time" (§1, §4-1; elaborated in the companion paper "Choosing a View
// Update Translator by Dialog at View Definition Time" the paper cites
// as [Keller 85a]).
//
// Given a view, QuestionsFor derives the choice points its translator
// has — how deletions leave the view, which hidden values insertions
// take, whether hidden conflicting tuples may be rewritten, how
// key-changing replacements split — and BuildPolicy turns a set of
// answers into a core.Policy. Run drives the dialog interactively over
// an io.Reader/Writer pair.
package dialog

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"viewupdate/internal/core"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
)

// A Question is one translator choice point.
type Question struct {
	// ID identifies the question; answers reference it.
	ID string
	// Prompt is the human-readable question.
	Prompt string
	// Options are the allowed answers (at least one).
	Options []Option
}

// An Option is one allowed answer.
type Option struct {
	// Key is the machine-readable answer.
	Key string
	// Label explains the consequence.
	Label string
}

// An Answer picks an option for a question.
type Answer struct {
	QuestionID string
	OptionKey  string
}

// Question IDs are built from these kinds (join views prefix the node
// view's name, e.g. "emp/delete").
const (
	qDelete         = "delete"
	qReplaceSplit   = "replace-split"
	qInsertConflict = "insert-conflict"
	qDefaultPrefix  = "default/" // + attribute name
)

// QuestionsFor derives the choice points of a view's translator. SP
// views yield up to one question per choice point; join views compose
// their nodes' questions with node-name prefixes.
func QuestionsFor(v view.View) []Question {
	switch vv := v.(type) {
	case *view.SP:
		return spQuestions("", vv)
	case *view.Join:
		var out []Question
		for _, n := range vv.Nodes() {
			out = append(out, spQuestions(n.SP.Name()+"/", n.SP)...)
		}
		return out
	default:
		return nil
	}
}

func spQuestions(prefix string, v *view.SP) []Question {
	var out []Question

	// Deletion: D-1 always exists; one D-2 option per non-key selecting
	// attribute.
	var flips []Option
	for _, a := range v.Selection().SelectingAttributes() {
		if v.Base().IsKey(a) {
			continue
		}
		flips = append(flips, Option{
			Key:   "flip:" + a,
			Label: fmt.Sprintf("keep the tuple, change %s to an excluding value (class D-2)", a),
		})
	}
	if len(flips) > 0 {
		opts := append([]Option{{
			Key:   "destroy",
			Label: "delete the underlying tuple (class D-1)",
		}}, flips...)
		out = append(out, Question{
			ID:      prefix + qDelete,
			Prompt:  fmt.Sprintf("When a tuple is deleted from %s, what happens to the stored tuple?", v.Name()),
			Options: opts,
		})
		// Key-changing replacements inherit the same dichotomy through
		// R-2/R-3 (one step) vs R-4/R-5 (D-2 + insert/rewrite).
		out = append(out, Question{
			ID:     prefix + qReplaceSplit,
			Prompt: fmt.Sprintf("When a replacement in %s changes the key, how is it translated?", v.Name()),
			Options: []Option{
				{Key: "onestep", Label: "move the stored tuple in one step (classes R-2/R-3)"},
				{Key: "twostep", Label: "flip the old tuple out of the view and realize the new one separately (classes R-4/R-5)"},
			},
		})
	}

	// Insertion over a hidden conflicting tuple (I-2): accept or reject.
	out = append(out, Question{
		ID: prefix + qInsertConflict,
		Prompt: fmt.Sprintf("When an insertion into %s matches the key of a tuple outside the view, may that tuple be rewritten (class I-2)?",
			v.Name()),
		Options: []Option{
			{Key: "accept", Label: "yes — the user is referring to an existing object"},
			{Key: "reject", Label: "no — reject the insertion"},
		},
	})

	// Defaults for hidden attributes with more than one selecting value.
	for _, a := range v.ProjectedOut() {
		vals := v.Selection().SelectingValues(a)
		if len(vals) < 2 {
			continue
		}
		opts := make([]Option, len(vals))
		for i, val := range vals {
			opts[i] = Option{Key: val.Encode(), Label: val.String()}
		}
		out = append(out, Question{
			ID:      prefix + qDefaultPrefix + a,
			Prompt:  fmt.Sprintf("Insertions into %s must choose a hidden value for %s; which?", v.Name(), a),
			Options: opts,
		})
	}
	return out
}

// Policy is the translator configuration a completed dialog produces.
// It implements core.Policy.
type Policy struct {
	viewName string
	// rejects holds class tokens that must not be chosen; if only
	// rejected candidates exist the request fails.
	rejects map[string]bool
	// order ranks class tokens (smaller index preferred).
	order map[string]int
	// flipAttr restricts D-2 candidates to flipping this attribute
	// (per prefix; "" key = SP view).
	flipAttr map[string]string
	// defaults maps (possibly node-prefixed) attribute names to the
	// chosen hidden value.
	defaults map[string]value.Value
}

// Name implements core.Policy.
func (p *Policy) Name() string { return "dialog(" + p.viewName + ")" }

// BuildPolicy validates the answers against the view's questions and
// builds the policy. Unanswered questions take their first option.
func BuildPolicy(v view.View, answers []Answer) (*Policy, error) {
	qs := QuestionsFor(v)
	byID := make(map[string]Question, len(qs))
	for _, q := range qs {
		byID[q.ID] = q
	}
	chosen := make(map[string]string, len(qs))
	for _, a := range answers {
		q, ok := byID[a.QuestionID]
		if !ok {
			return nil, fmt.Errorf("dialog: unknown question %q", a.QuestionID)
		}
		valid := false
		for _, o := range q.Options {
			if o.Key == a.OptionKey {
				valid = true
				break
			}
		}
		if !valid {
			return nil, fmt.Errorf("dialog: question %q has no option %q", a.QuestionID, a.OptionKey)
		}
		chosen[a.QuestionID] = a.OptionKey
	}
	for _, q := range qs {
		if _, ok := chosen[q.ID]; !ok {
			chosen[q.ID] = q.Options[0].Key
		}
	}

	p := &Policy{
		viewName: v.Name(),
		rejects:  map[string]bool{},
		order:    map[string]int{},
		flipAttr: map[string]string{},
		defaults: map[string]value.Value{},
	}
	for id, key := range chosen {
		prefix, kind := splitQuestionID(id)
		switch {
		case kind == qDelete:
			if key == "destroy" {
				p.order["D-1"] = 0
				p.order["D-2"] = 1
			} else {
				p.order["D-2"] = 0
				p.order["D-1"] = 1
				p.flipAttr[prefix] = strings.TrimPrefix(key, "flip:")
			}
		case kind == qReplaceSplit:
			if key == "onestep" {
				p.order["R-2"], p.order["R-3"] = 0, 0
				p.order["R-4"], p.order["R-5"] = 1, 1
			} else {
				p.order["R-4"], p.order["R-5"] = 0, 0
				p.order["R-2"], p.order["R-3"] = 1, 1
			}
		case kind == qInsertConflict:
			if key == "reject" {
				p.rejects["I-2"] = true
			}
		case strings.HasPrefix(kind, qDefaultPrefix):
			attr := strings.TrimPrefix(kind, qDefaultPrefix)
			val, err := value.Decode(key)
			if err != nil {
				return nil, fmt.Errorf("dialog: bad default for %s: %v", attr, err)
			}
			p.defaults[prefix+attr] = val
		}
	}
	return p, nil
}

// splitQuestionID separates an optional "node/" prefix from the
// question kind. The prefix keeps the node's trailing slash removed but
// remembered with a dot for choice-key matching ("emp/delete" ->
// prefix "emp.", kind "delete").
func splitQuestionID(id string) (prefix, kind string) {
	if i := strings.IndexByte(id, '/'); i >= 0 && !strings.HasPrefix(id[i:], "/"+qDefaultPrefix[:len(qDefaultPrefix)-1]) {
		// A default question for an SP view has no node prefix but
		// contains '/'; detect node prefixes by checking the remainder
		// for a known kind.
		rest := id[i+1:]
		if rest == qDelete || rest == qReplaceSplit || rest == qInsertConflict || strings.HasPrefix(rest, qDefaultPrefix) {
			return id[:i] + ".", rest
		}
	}
	return "", id
}

// Choose implements core.Policy.
func (p *Policy) Choose(r core.Request, cands []core.Candidate) (core.Candidate, error) {
	type scored struct {
		c     core.Candidate
		rank  int
		defs  int
		flips int
	}
	var pool []scored
	for _, c := range cands {
		rank, rejected := 0, false
		for _, tok := range core.ClassTokens(c.Class) {
			rejected = rejected || p.rejects[tok]
			if o, ok := p.order[tok]; ok && o > rank {
				rank = o
			}
		}
		if rejected {
			continue
		}
		defs, flips := 0, 0
		for k, v := range c.Choices {
			// Choice keys are attribute names, possibly node-prefixed;
			// a D-2 candidate's key is the attribute it flips.
			prefix, attr := "", k
			if i := strings.LastIndexByte(k, '.'); i >= 0 {
				prefix, attr = k[:i+1], k[i+1:]
			}
			if dv, ok := p.defaults[k]; ok && dv == v {
				defs++
			}
			if dv, ok := p.defaults[attr]; ok && prefix != "" && dv == v {
				defs++
			}
			if want, ok := p.flipAttr[prefix]; ok && attr == want {
				flips++
			}
		}
		pool = append(pool, scored{c: c, rank: rank, defs: defs, flips: flips})
	}
	if len(pool) == 0 {
		return core.Candidate{}, fmt.Errorf("dialog: every candidate translation for %s is rejected by the view's dialog policy", r)
	}
	// Rank, then the flip restriction, then the defaults; Simplest
	// breaks what is still tied.
	better := func(a, b scored) bool {
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		if a.flips != b.flips {
			return a.flips > b.flips
		}
		return a.defs > b.defs
	}
	best := pool[0]
	for _, s := range pool[1:] {
		if better(s, best) {
			best = s
		}
	}
	var tied []core.Candidate
	for _, s := range pool {
		if !better(best, s) {
			tied = append(tied, s.c)
		}
	}
	return core.Simplest{}.Choose(r, tied)
}

// Run conducts the dialog interactively: it prints each question with
// numbered options to w, reads answer numbers from r (empty input takes
// the first option), and returns the built policy.
//
// When the caller already owns a bufio.Scanner over the input (e.g. a
// REPL), use RunScanner instead so buffered lines are not lost.
func Run(r io.Reader, w io.Writer, v view.View) (*Policy, error) {
	return RunScanner(bufio.NewScanner(r), w, v)
}

// RunScanner is Run over a caller-owned scanner.
func RunScanner(scanner *bufio.Scanner, w io.Writer, v view.View) (*Policy, error) {
	qs := QuestionsFor(v)
	var answers []Answer
	for _, q := range qs {
		fmt.Fprintf(w, "%s\n", q.Prompt)
		for i, o := range q.Options {
			fmt.Fprintf(w, "  %d. %s\n", i+1, o.Label)
		}
		fmt.Fprintf(w, "choice [1]: ")
		choice := 1
		if scanner.Scan() {
			text := strings.TrimSpace(scanner.Text())
			if text != "" {
				n, err := strconv.Atoi(text)
				if err != nil || n < 1 || n > len(q.Options) {
					return nil, fmt.Errorf("dialog: answer %q out of range 1..%d", text, len(q.Options))
				}
				choice = n
			}
		}
		answers = append(answers, Answer{QuestionID: q.ID, OptionKey: q.Options[choice-1].Key})
	}
	return BuildPolicy(v, answers)
}
