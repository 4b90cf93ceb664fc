package core

import (
	"fmt"
	"strings"

	"viewupdate/internal/tuple"
	"viewupdate/internal/value"
)

// A Policy selects one translation among the complete candidate set.
// The paper leaves this choice to "additional semantics" supplied by
// the database administrator at view definition time; policies are the
// executable form of those semantics.
type Policy interface {
	// Name identifies the policy.
	Name() string
	// Choose picks a candidate or fails (e.g. on ambiguity).
	Choose(r Request, cands []Candidate) (Candidate, error)
}

// Simplest is the default policy: the paper's simplicity order. One
// translation is at least as simple as another when its added and
// removed sets are subsets of the other's; Simplest keeps the
// candidates no other candidate is strictly simpler than, and among
// those the smallest canonical encoding wins. Every other policy in
// this package breaks its ties through it. Under it a key-moving
// replace takes R-2 (replace in place), not R-4 (insert the new row,
// flip the old one out of the view), which would leave the flipped row
// in the base.
type Simplest struct{}

// Name implements Policy.
func (Simplest) Name() string { return "simplest" }

// Choose implements Policy.
func (Simplest) Choose(r Request, cands []Candidate) (Candidate, error) {
	switch len(cands) {
	case 0:
		return Candidate{}, fmt.Errorf("%w for %s", ErrNoCandidates, r)
	case 1:
		return cands[0], nil
	}
	type shape struct {
		added, removed *tuple.Set
		enc            string
	}
	shapes := make([]shape, len(cands))
	for i, c := range cands {
		shapes[i] = shape{c.Translation.Added(), c.Translation.Removed(), c.Translation.Encode()}
	}
	// a is strictly simpler than b: both of a's sets are subsets of
	// b's, and one is smaller (equal sizes would make them equal).
	strictlySimpler := func(a, b shape) bool {
		return a.added.SubsetOf(b.added) && a.removed.SubsetOf(b.removed) &&
			(a.added.Len() < b.added.Len() || a.removed.Len() < b.removed.Len())
	}
	best := -1
outer:
	for i, s := range shapes {
		if best >= 0 && s.enc >= shapes[best].enc {
			continue
		}
		for _, o := range shapes {
			if strictlySimpler(o, s) {
				continue outer
			}
		}
		best = i
	}
	return cands[best], nil
}

// RejectAmbiguous accepts only a unique candidate.
type RejectAmbiguous struct{}

// Name implements Policy.
func (RejectAmbiguous) Name() string { return "reject-ambiguous" }

// Choose implements Policy.
func (RejectAmbiguous) Choose(r Request, cands []Candidate) (Candidate, error) {
	switch len(cands) {
	case 0:
		return Candidate{}, fmt.Errorf("%w for %s", ErrNoCandidates, r)
	case 1:
		return cands[0], nil
	default:
		return Candidate{}, fmt.Errorf("%w: %d candidate translations for %s; additional semantics required",
			ErrAmbiguous, len(cands), r)
	}
}

// ClassTokens extracts the leaf algorithm-class tokens of a candidate's
// class label: "SPJ-I(emp:I-1, dept:R-1)" yields {"I-1","R-1"};
// "D-2" yields {"D-2"}.
func ClassTokens(class string) []string {
	cut := class
	if i := strings.IndexByte(cut, '('); i >= 0 && strings.HasSuffix(cut, ")") {
		cut = cut[i+1 : len(cut)-1]
	}
	parts := strings.Split(cut, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if i := strings.IndexByte(p, ':'); i >= 0 {
			p = p[i+1:]
		}
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// PreferClasses ranks candidates by the earliest position of their
// algorithm class in Order; Simplest chooses among the best-ranked.
// A candidate whose class does not appear in Order loses to any that
// does. E.g. Order = ["D-1"] encodes "deletion means destroying the
// object" (the paper's Susan), while Order = ["D-2"] encodes "deletion
// means flipping the object out of the view" (the paper's Frank).
type PreferClasses struct {
	// Label names the policy for display.
	Label string
	// Order lists class names from most to least preferred.
	Order []string
}

// Name implements Policy.
func (p PreferClasses) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return "prefer[" + strings.Join(p.Order, ">") + "]"
}

// rank returns the order index of the candidate's best token.
func (p PreferClasses) rank(c Candidate) int {
	best := len(p.Order)
	for _, tok := range ClassTokens(c.Class) {
		for i, want := range p.Order {
			if tok == want && i < best {
				best = i
			}
		}
	}
	return best
}

// Choose implements Policy.
func (p PreferClasses) Choose(r Request, cands []Candidate) (Candidate, error) {
	best := len(p.Order) + 1
	var top []Candidate
	for _, c := range cands {
		switch rank := p.rank(c); {
		case rank < best:
			best, top = rank, []Candidate{c}
		case rank == best:
			top = append(top, c)
		}
	}
	return Simplest{}.Choose(r, top)
}

// WithDefaults refines another policy by value preferences for the
// arbitrary choices (extend-insert values, D-2 flip values, I-2
// selecting values): candidates whose choices agree with more defaults
// win. Keys match the Candidate.Choices keys (attribute names, possibly
// role- or node-prefixed; an unprefixed default matches any prefixed
// occurrence of the attribute).
type WithDefaults struct {
	Base     Policy
	Defaults map[string]value.Value
}

// Name implements Policy.
func (p WithDefaults) Name() string { return p.Base.Name() + "+defaults" }

// score counts satisfied defaults.
func (p WithDefaults) score(c Candidate) int {
	n := 0
	for k, v := range c.Choices {
		if dv, ok := p.Defaults[k]; ok && dv == v {
			n++
			continue
		}
		// Unprefixed default for a prefixed choice key.
		if i := strings.LastIndexByte(k, '.'); i >= 0 {
			if dv, ok := p.Defaults[k[i+1:]]; ok && dv == v {
				n++
			}
		}
	}
	return n
}

// Choose implements Policy: the base policy decides the algorithm
// class; the defaults then break ties among the candidates of that
// class (the arbitrary value choices within one class are exactly what
// distinguish its algorithms).
func (p WithDefaults) Choose(r Request, cands []Candidate) (Candidate, error) {
	if len(cands) == 0 {
		return Candidate{}, fmt.Errorf("%w for %s", ErrNoCandidates, r)
	}
	picked, err := p.Base.Choose(r, cands)
	if err != nil {
		return Candidate{}, err
	}
	best := -1
	var top []Candidate
	for _, c := range cands {
		if c.Class != picked.Class {
			continue
		}
		switch score := p.score(c); {
		case score > best:
			best, top = score, []Candidate{c}
		case score == best:
			top = append(top, c)
		}
	}
	return p.Base.Choose(r, top)
}
