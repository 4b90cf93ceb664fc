package workload

import (
	"testing"

	"viewupdate/internal/persist"
)

func churnConfig(seed int64) ChurnConfig {
	return ChurnConfig{
		SP:            SPConfig{Keys: 100, Attrs: 3, DomainSize: 4, SelectingAttrs: 1, HiddenAttrs: 1, Tuples: 40, Seed: seed},
		Steps:         60,
		FaultEveryNth: 4,
		RetryAttempts: 3,
	}
}

// TestChurnDeterministic locks in the scenario's contract: the same
// configuration — same seed, same fault schedule — always produces the
// same report, fault count and final state.
func TestChurnDeterministic(t *testing.T) {
	a, err := RunChurn(churnConfig(21), "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChurn(churnConfig(21), "")
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("same config diverged:\n  a: %s\n  b: %s", a, b)
	}
	if a.Faults == 0 || a.Retries == 0 {
		t.Fatalf("churn injected no faults or never retried: %s", a)
	}
	if a.Applied == 0 {
		t.Fatalf("churn applied nothing: %s", a)
	}
	c, err := RunChurn(churnConfig(22), "")
	if err != nil {
		t.Fatal(err)
	}
	if a.State == c.State {
		t.Fatal("different seeds should produce different final states")
	}
}

// TestChurnRetriesAbsorbTransients compares a retrying run with a
// non-retrying one: with retries every transient fault is absorbed,
// without them each fault fails its request.
func TestChurnRetriesAbsorbTransients(t *testing.T) {
	withRetry, err := RunChurn(churnConfig(5), "")
	if err != nil {
		t.Fatal(err)
	}
	if withRetry.Failed != 0 {
		t.Fatalf("retrying run should absorb all transients: %s", withRetry)
	}

	cfg := churnConfig(5)
	cfg.RetryAttempts = 1
	without, err := RunChurn(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if without.Failed == 0 || without.Failed != without.Faults {
		t.Fatalf("non-retrying run should fail once per fault: %s", without)
	}
}

// TestChurnDurableRecovery runs the churn through a durable store and
// checks that recovery reproduces exactly the final in-memory state —
// faults, retries and all.
func TestChurnDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	rep, err := RunChurn(churnConfig(13), dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := RenderState(st.DB()); got != rep.State {
		t.Fatalf("recovered state differs from the live final state:\nrecovered:\n%s\nlive:\n%s", got, rep.State)
	}
	if err := st.DB().CheckAllInclusions(); err != nil {
		t.Fatal(err)
	}
	if st.Report().Replayed != rep.Applied {
		t.Fatalf("recovery replayed %d translations, run applied %d", st.Report().Replayed, rep.Applied)
	}
	// The store applies in memory before it journals, so an apply that
	// fails — every injected fault here — writes nothing: no record for
	// recovery to discard, no sequence number burned.
	if rep.Faults == 0 || st.Report().Discarded != 0 || st.Report().MaxSeq != uint64(rep.Applied) {
		t.Fatalf("failed applies left residue on the log (or no fault fired): %s vs %s", rep, st.Report())
	}
}

func TestChurnConfigErrors(t *testing.T) {
	if _, err := RunChurn(ChurnConfig{}, ""); err == nil {
		t.Fatal("zero config should fail")
	}
	cfg := churnConfig(1)
	cfg.SP.DomainSize = 1
	if _, err := RunChurn(cfg, ""); err == nil {
		t.Fatal("bad SP config should fail")
	}
}
