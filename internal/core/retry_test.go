package core_test

import (
	"errors"
	"testing"
	"time"

	"viewupdate/internal/core"
	"viewupdate/internal/faultinject"
	"viewupdate/internal/fixtures"
	"viewupdate/internal/vuerr"
)

// TestPolicyErrorChains pins the sentinel contracts of the policies:
// empty candidate sets are ErrNoCandidates, refusal to guess is
// ErrAmbiguous, and both keep their historical message text.
func TestPolicyErrorChains(t *testing.T) {
	var r core.Request
	for _, p := range []core.Policy{
		core.Simplest{},
		core.RejectAmbiguous{},
		core.PreferClasses{Order: []string{"D-1"}},
		core.WithDefaults{Base: core.Simplest{}},
	} {
		_, err := p.Choose(r, nil)
		if !errors.Is(err, core.ErrNoCandidates) {
			t.Fatalf("%s on empty set: %v, want ErrNoCandidates", p.Name(), err)
		}
	}

	f := fixtures.NewEmp(20)
	db := f.PaperInstance()
	amb := core.NewTranslator(f.ViewB, core.RejectAmbiguous{})
	// Deleting Susan from the baseball view is the paper's ambiguous
	// case: destroy her or flip the flag.
	_, err := amb.Apply(db, core.DeleteRequest(f.ViewTuple(f.ViewB, 17, "Susan", "New York", true)))
	if !errors.Is(err, core.ErrAmbiguous) {
		t.Fatalf("ambiguous delete: %v, want ErrAmbiguous chain", err)
	}
	// The transient/corrupt classifiers stay orthogonal.
	if vuerr.IsTransient(err) || vuerr.IsCorrupt(err) {
		t.Fatal("policy errors must not classify as transient or corrupt")
	}
}

// TestApplyRetriesTransientFaults injects one transient storage fault:
// the first apply attempt fails, the bounded retry succeeds, and the
// backoff schedule is exponential.
func TestApplyRetriesTransientFaults(t *testing.T) {
	f := fixtures.NewEmp(20)
	db := f.PaperInstance()
	var slept []time.Duration
	tr := core.NewTranslator(f.ViewP, core.Simplest{})
	tr.Retry = core.RetryPolicy{
		MaxAttempts: 3,
		Backoff:     time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	}
	faultinject.Enable(faultinject.NewPlan(1).
		FailNth(faultinject.SiteApply, 1, vuerr.ErrTransient))
	defer faultinject.Disable()

	if _, err := tr.Apply(db, core.InsertRequest(f.ViewTuple(f.ViewP, 19, "Judy", "New York", false))); err != nil {
		t.Fatalf("apply with retry: %v", err)
	}
	if db.Len("EMP") != 6 {
		t.Fatal("retried apply did not land")
	}
	if len(slept) != 1 || slept[0] != time.Millisecond {
		t.Fatalf("slept %v, want one 1ms backoff", slept)
	}
}

// TestApplyRetryExhaustion keeps the fault firing: after MaxAttempts
// the transient error surfaces, classifiable through the wrap.
func TestApplyRetryExhaustion(t *testing.T) {
	f := fixtures.NewEmp(20)
	db := f.PaperInstance()
	var slept []time.Duration
	tr := core.NewTranslator(f.ViewP, core.Simplest{})
	tr.Retry = core.RetryPolicy{
		MaxAttempts: 3,
		Backoff:     time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	}
	plan := faultinject.NewPlan(1).
		FailEveryNth(faultinject.SiteApply, 1, 100, vuerr.ErrTransient)
	faultinject.Enable(plan)
	defer faultinject.Disable()

	_, err := tr.Apply(db, core.InsertRequest(f.ViewTuple(f.ViewP, 19, "Judy", "New York", false)))
	if !vuerr.IsTransient(err) {
		t.Fatalf("exhausted retry error = %v, want transient chain", err)
	}
	if got := plan.Hits(faultinject.SiteApply); got != 3 {
		t.Fatalf("apply attempted %d times, want 3", got)
	}
	if len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Fatalf("slept %v, want exponential 1ms, 2ms", slept)
	}
	if db.Len("EMP") != 5 {
		t.Fatal("failed apply must not change the database")
	}
}

// TestApplyBackoffNeverOverflows: with a large MaxAttempts the
// exponential backoff must cap instead of shifting the duration into
// negative or absurd sleeps.
func TestApplyBackoffNeverOverflows(t *testing.T) {
	f := fixtures.NewEmp(20)
	db := f.PaperInstance()
	var slept []time.Duration
	tr := core.NewTranslator(f.ViewP, core.Simplest{})
	tr.Retry = core.RetryPolicy{
		MaxAttempts: 70, // unclamped, 1ms << 69 wraps negative
		Backoff:     time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	}
	faultinject.Enable(faultinject.NewPlan(1).
		FailEveryNth(faultinject.SiteApply, 1, 1000, vuerr.ErrTransient))
	defer faultinject.Disable()

	_, err := tr.Apply(db, core.InsertRequest(f.ViewTuple(f.ViewP, 19, "Judy", "New York", false)))
	if !vuerr.IsTransient(err) {
		t.Fatalf("exhausted retry error = %v, want transient chain", err)
	}
	if len(slept) != 69 {
		t.Fatalf("slept %d times, want 69", len(slept))
	}
	cap := time.Millisecond << 16
	for i, d := range slept {
		if d <= 0 || d > cap {
			t.Fatalf("sleep %d = %v, want within (0, %v]", i, d, cap)
		}
		if i > 0 && d < slept[i-1] {
			t.Fatalf("backoff shrank: sleep %d = %v after %v", i, d, slept[i-1])
		}
	}
	if last := slept[len(slept)-1]; last != cap {
		t.Fatalf("final backoff = %v, want capped at %v", last, cap)
	}
}

// TestApplyDoesNotRetryPermanentErrors: constraint violations return
// immediately with a single attempt.
func TestApplyDoesNotRetryPermanentErrors(t *testing.T) {
	f := fixtures.NewEmp(20)
	db := f.PaperInstance()
	tr := core.NewTranslator(f.ViewP, core.Simplest{})
	tr.Retry = core.RetryPolicy{MaxAttempts: 5, Sleep: func(time.Duration) {
		t.Fatal("permanent errors must not back off")
	}}
	plan := faultinject.NewPlan(1) // counting only, no faults
	faultinject.Enable(plan)
	defer faultinject.Disable()

	// Ghost delete: fails during translation, before any apply.
	_, err := tr.Apply(db, core.DeleteRequest(f.ViewTuple(f.ViewP, 19, "Judy", "New York", false)))
	if err == nil {
		t.Fatal("invalid request should fail")
	}
	if got := plan.Hits(faultinject.SiteApply); got != 0 {
		t.Fatalf("translation failure reached apply %d times", got)
	}
}
