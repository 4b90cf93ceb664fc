package report

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"viewupdate/internal/core"
	"viewupdate/internal/fixtures"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRenderTraceGolden locks in the explain-trace text for the paper's
// worked R-case: moving employee #17 to a fresh employee number in
// Susan's New York view. Phase timings are stripped before rendering so
// the output is deterministic.
func TestRenderTraceGolden(t *testing.T) {
	f := fixtures.NewEmp(20)
	db := f.PaperInstance()
	old := f.ViewTuple(f.ViewP, 17, "Susan", "New York", true)
	new_ := f.ViewTuple(f.ViewP, 19, "Susan", "New York", true)
	r := core.ReplaceRequest(old, new_)

	_, tr, err := core.TraceTranslate(db, f.ViewP, core.Simplest{}, r, core.TraceOptions{Probes: true})
	if err != nil {
		t.Fatal(err)
	}
	tr.Phases = nil // timings are non-deterministic

	got := RenderTrace(tr)
	golden := filepath.Join("testdata", "trace_replace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("explain trace drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRenderTraceShowsRejections checks that the rendered trace names a
// rejecting criterion for at least one discarded probe — the acceptance
// criterion of the explain feature.
func TestRenderTraceShowsRejections(t *testing.T) {
	f := fixtures.NewEmp(20)
	db := f.PaperInstance()
	r := core.DeleteRequest(f.ViewTuple(f.ViewP, 17, "Susan", "New York", true))
	_, tr, err := core.TraceTranslate(db, f.ViewP, core.Simplest{}, r, core.TraceOptions{Probes: true})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTrace(tr)
	if !strings.Contains(out, "REJECTED by criterion") {
		t.Errorf("trace shows no criterion rejection:\n%s", out)
	}
	if !strings.Contains(out, "<= chosen") {
		t.Errorf("trace marks no chosen candidate:\n%s", out)
	}
}

func TestTraceJSON(t *testing.T) {
	f := fixtures.NewEmp(20)
	db := f.PaperInstance()
	r := core.DeleteRequest(f.ViewTuple(f.ViewP, 17, "Susan", "New York", true))
	_, tr, err := core.TraceTranslate(db, f.ViewP, core.Simplest{}, r, core.TraceOptions{Probes: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := TraceJSON(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back core.Trace
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("trace JSON does not round-trip: %v", err)
	}
	if back.View != tr.View || len(back.Candidates) != len(tr.Candidates) {
		t.Errorf("round-tripped trace differs: %+v", back)
	}
}
