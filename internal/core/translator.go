package core

import (
	"fmt"
	"log/slog"

	"viewupdate/internal/obs"
	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
)

// A Translator binds a view to a policy and translates view update
// requests into database updates — the paper's "view update
// translator", a mapping from view update requests to translations.
type Translator struct {
	View   view.View
	Policy Policy
}

// NewTranslator builds a translator; a nil policy is Simplest.
func NewTranslator(v view.View, p Policy) *Translator {
	return &Translator{View: v, Policy: orDefault(p)}
}

// orDefault is the one place a nil policy becomes the default.
func orDefault(p Policy) Policy {
	if p == nil {
		return Simplest{}
	}
	return p
}

// Translate enumerates the complete candidate set for the request and
// lets the policy choose. The database state is read, not modified.
func (t *Translator) Translate(db storage.Source, r Request) (Candidate, error) {
	span := obs.StartSpan("core.translate")
	defer span.End()
	cands, err := Enumerate(db, t.View, r)
	if err != nil {
		obs.Inc("core.translate.enumerate_error")
		return Candidate{}, err
	}
	psp := obs.StartSpan("core.policy.choose")
	c, err := t.Policy.Choose(r, cands)
	psp.End()
	if err != nil {
		obs.Inc("core.translate.policy_error")
		return Candidate{}, err
	}
	if obs.Enabled() {
		obs.Observe("core.translate.candidates", int64(len(cands)))
		obs.Log(slog.LevelDebug, "translated",
			"view", t.View.Name(), "request", r.Kind.String(),
			"candidates", len(cands), "policy", t.Policy.Name(), "class", c.Class)
	}
	return c, nil
}

// Apply translates the request and applies the chosen translation to
// the database atomically, returning the applied candidate. Errors are
// contextualized by stage: translation failures are wrapped with the
// request, application failures with the chosen translation, so callers
// can tell enumeration/policy errors from storage errors.
//
// Apply makes one attempt. A failed apply leaves the database as it
// was, so a caller may retry a transient failure (vuerr.IsTransient);
// workload.RunChurn re-applies the translation it chose.
func (t *Translator) Apply(db *storage.Database, r Request) (Candidate, error) {
	c, err := t.Translate(db, r)
	if err != nil {
		return Candidate{}, fmt.Errorf("core: translating %s on %s: %w", r, t.View.Name(), err)
	}
	if err := db.Apply(c.Translation); err != nil {
		return Candidate{}, fmt.Errorf("core: applying %s: %w", c.Translation, err)
	}
	return c, nil
}

// Row builds a tuple of the translator's view schema from raw Go
// values in schema order; int, int64, string and bool are accepted.
func (t *Translator) Row(raw ...interface{}) (tuple.T, error) {
	return MakeRow(t.View.Schema(), raw...)
}

// MakeRow builds a tuple of rel from raw Go values in schema order.
func MakeRow(rel *schema.Relation, raw ...interface{}) (tuple.T, error) {
	if len(raw) != rel.Arity() {
		return tuple.T{}, fmt.Errorf("core: %s expects %d values, got %d", rel.Name(), rel.Arity(), len(raw))
	}
	vals := make([]value.Value, len(raw))
	for i, r := range raw {
		switch x := r.(type) {
		case int:
			vals[i] = value.NewInt(int64(x))
		case int64:
			vals[i] = value.NewInt(x)
		case string:
			vals[i] = value.NewString(x)
		case bool:
			vals[i] = value.NewBool(x)
		case value.Value:
			vals[i] = x
		default:
			return tuple.T{}, fmt.Errorf("core: unsupported raw value %v (%T)", r, r)
		}
	}
	return tuple.New(rel, vals...)
}

// MustRow is MakeRow, panicking on error; for tests and examples.
func MustRow(rel *schema.Relation, raw ...interface{}) tuple.T {
	t, err := MakeRow(rel, raw...)
	if err != nil {
		panic(err)
	}
	return t
}

// CheckCandidates verifies that every candidate is valid and satisfies
// the five criteria, returning a descriptive error for the first
// failure; the paper's theorems say it never fails for generator
// output. The last parameter is unused (there is one validity notion)
// until a benchmark PR drops it from the call in bench/trace.go.
func CheckCandidates(db storage.Source, v view.View, r Request, cands []Candidate, _ bool) error {
	valid := NewVerifier(db, v, r).Valid
	for _, c := range cands {
		if err := rejection(db, v, r, valid, c); err != nil {
			return err
		}
	}
	return nil
}

// rejection returns why c is not an acceptable translation of r — it is
// not valid, or it violates a criterion — or nil when it is. valid is
// NewVerifier(db, v, r).Valid, built once per request.
func rejection(db storage.Source, v view.View, r Request, valid func(*update.Translation) bool, c Candidate) error {
	if !valid(c.Translation) {
		return fmt.Errorf("core: candidate %s is not a valid translation of %s", c, r)
	}
	if viols := CheckCriteria(db, v, r, c.Translation, CheckOptions{Valid: valid}); len(viols) > 0 {
		return fmt.Errorf("core: candidate %s: %v", c, viols[0])
	}
	return nil
}
