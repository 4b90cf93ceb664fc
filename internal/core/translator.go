package core

import (
	"fmt"
	"log/slog"
	"math"
	"time"

	"viewupdate/internal/obs"
	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
	"viewupdate/internal/vuerr"
)

// A Translator binds a view to a policy and translates view update
// requests into database updates — the paper's "view update
// translator", a mapping from view update requests to translations.
type Translator struct {
	View   view.View
	Policy Policy
	// Retry bounds the automatic retries of transient apply failures;
	// the zero value retries nothing.
	Retry RetryPolicy
}

// A RetryPolicy bounds the retries Translator.Apply performs when the
// database apply fails transiently (vuerr.IsTransient). Translation is
// never re-run — the candidate was chosen against a state the failed
// apply did not change.
type RetryPolicy struct {
	// MaxAttempts is the total number of apply attempts; values below 1
	// mean a single attempt (no retry).
	MaxAttempts int
	// Backoff is the sleep before the first retry, doubling on each
	// further retry. Zero sleeps not at all.
	Backoff time.Duration
	// Sleep replaces time.Sleep, for tests.
	Sleep func(time.Duration)
}

// attempts normalizes MaxAttempts.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// maxBackoffShift caps the exponential doubling: past 2^16 times the
// base backoff the sleep stops growing, so a large MaxAttempts cannot
// overflow the duration arithmetic into negative or absurd sleeps.
const maxBackoffShift = 16

// wait sleeps before retry attempt n (n >= 1), with exponential
// backoff: Backoff doubled min(n-1, maxBackoffShift) times, never
// allowed to overflow.
func (p RetryPolicy) wait(n int) {
	if p.Backoff <= 0 {
		return
	}
	d := p.Backoff
	for i := 1; i < n && i <= maxBackoffShift; i++ {
		if d > math.MaxInt64/2 {
			break
		}
		d *= 2
	}
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
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
// Transient apply failures (vuerr.IsTransient, e.g. injected I/O
// faults) are retried up to Retry.MaxAttempts with exponential
// backoff; a failed apply rolls the database back, so re-applying the
// same translation is sound. Non-transient failures — constraint
// violations, corruption — return immediately.
func (t *Translator) Apply(db *storage.Database, r Request) (Candidate, error) {
	c, err := t.Translate(db, r)
	if err != nil {
		return Candidate{}, fmt.Errorf("core: translating %s on %s: %w", r, t.View.Name(), err)
	}
	var applyErr error
	for attempt := 0; attempt < t.Retry.attempts(); attempt++ {
		if attempt > 0 {
			obs.Inc("core.apply.retry")
			t.Retry.wait(attempt)
		}
		applyErr = db.Apply(c.Translation)
		if applyErr == nil {
			return c, nil
		}
		if !vuerr.IsTransient(applyErr) {
			break
		}
	}
	return Candidate{}, fmt.Errorf("core: applying %s: %w", c.Translation, applyErr)
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
// the five criteria under the given validity semantics, returning a
// descriptive error for the first failure. Used by the paranoid mode of
// the CLI and by tests; the paper's theorems say this never fails for
// generator output on SP views.
func CheckCandidates(db storage.Source, v view.View, r Request, cands []Candidate, exact bool) error {
	vf := NewVerifier(db, v, r)
	validFn := vf.Valid
	if !exact {
		validFn = vf.ValidRequested
	}
	// Candidates are independent; check them on the worker pool and
	// report the first failure in input order, as a sequential run would.
	errs := make([]error, len(cands))
	runParallel(len(cands), func(i int) {
		c := cands[i]
		if !validFn(c.Translation) {
			errs[i] = fmt.Errorf("core: candidate %s is not a valid translation of %s", c, r)
			return
		}
		if viols := CheckCriteria(db, v, r, c.Translation, CheckOptions{Valid: validFn}); len(viols) > 0 {
			errs[i] = fmt.Errorf("core: candidate %s: %v", c, viols[0])
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
