package experiments

import (
	"strings"
	"testing"
)

// TestAllExperimentsPass runs every experiment end-to-end and asserts
// its pass condition — the executable form of EXPERIMENTS.md.
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments skipped in -short mode")
	}
	es := All()
	if len(es) != 16 {
		t.Fatalf("want 16 experiments, got %d", len(es))
	}
	seen := map[string]bool{}
	for _, e := range es {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if seen[e.ID] {
				t.Fatalf("duplicate experiment id %s", e.ID)
			}
			seen[e.ID] = true
			if e.Title == "" || e.Exhibit == "" {
				t.Fatal("experiment missing metadata")
			}
			tb, ok, err := e.Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !ok {
				t.Fatalf("pass condition failed:\n%s", tb)
			}
			if tb == nil || len(tb.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
		})
	}
}

// TestExperimentOrdering checks All() is sorted by id.
func TestExperimentOrdering(t *testing.T) {
	es := All()
	for i := 1; i < len(es); i++ {
		if idNum(es[i-1].ID) >= idNum(es[i].ID) {
			t.Fatalf("experiments out of order: %s before %s", es[i-1].ID, es[i].ID)
		}
	}
	if idNum("bogus") != 0 {
		t.Fatal("idNum should be 0 for malformed ids")
	}
}

// TestE3TableShape pins the chart's three conditions.
func TestE3TableShape(t *testing.T) {
	tb, ok, err := E3ReplacementChart().Run()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("E3 failed:\n%s", tb)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("E3 should have 3 condition rows, got %d", len(tb.Rows))
	}
	out := tb.String()
	for _, want := range []string{"{R-1}", "{R-2,R-4}", "{R-3,R-5}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E3 missing %s:\n%s", want, out)
		}
	}
}

// TestE8WitnessSet pins that all five criteria have witnesses.
func TestE8WitnessSet(t *testing.T) {
	ws := independenceWitnesses()
	if len(ws) != 5 {
		t.Fatalf("want 5 witnesses, got %d", len(ws))
	}
	got := map[int]bool{}
	for _, w := range ws {
		got[w.criterion] = true
	}
	for i := 1; i <= 5; i++ {
		if !got[i] {
			t.Fatalf("criterion %d has no witness", i)
		}
	}
}
