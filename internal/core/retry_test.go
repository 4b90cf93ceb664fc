package core_test

import (
	"errors"
	"strings"
	"testing"

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

// TestApplyTransientFaultSurfaces injects one transient storage fault:
// Apply makes a single attempt, returns the transient error wrapped with
// the chosen translation, and leaves the database as it was, so the
// caller may retry it.
func TestApplyTransientFaultSurfaces(t *testing.T) {
	f := fixtures.NewEmp(20)
	db := f.PaperInstance()
	before := db.Clone()
	tr := core.NewTranslator(f.ViewP, core.Simplest{})
	r := core.InsertRequest(f.ViewTuple(f.ViewP, 19, "Judy", "New York", false))
	want, err := tr.Translate(db, r)
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.NewPlan(1).
		FailNth(faultinject.SiteApply, 1, vuerr.ErrTransient)
	faultinject.Enable(plan)
	defer faultinject.Disable()

	_, err = tr.Apply(db, r)
	if !vuerr.IsTransient(err) {
		t.Fatalf("apply error = %v, want transient chain", err)
	}
	if prefix := "core: applying " + want.Translation.String() + ": "; !strings.HasPrefix(err.Error(), prefix) {
		t.Fatalf("apply error = %q, want it wrapped as %q...", err, prefix)
	}
	if got := plan.Hits(faultinject.SiteApply); got != 1 {
		t.Fatalf("apply attempted %d times, want 1", got)
	}
	if !db.Equal(before) {
		t.Fatal("failed apply changed the database")
	}
}

// TestApplyDoesNotRetryPermanentErrors: constraint violations return
// immediately with a single attempt.
func TestApplyDoesNotRetryPermanentErrors(t *testing.T) {
	f := fixtures.NewEmp(20)
	db := f.PaperInstance()
	tr := core.NewTranslator(f.ViewP, core.Simplest{})
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
