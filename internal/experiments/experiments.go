// Package experiments implements the reproduction's per-exhibit
// experiment harness: one experiment per table, figure and theorem of
// the paper (see DESIGN.md §3). Each experiment builds its workload,
// runs the system, and reports a table; cmd/experiments prints them
// all, and the package's tests assert the per-experiment pass
// conditions.
package experiments

import (
	"fmt"
	"sort"

	"viewupdate/internal/report"
)

// An Experiment is one reproducible exhibit.
type Experiment struct {
	// ID is the experiment identifier from DESIGN.md (E1..E16).
	ID string
	// Title describes the exhibit.
	Title string
	// Exhibit names the paper element being reproduced.
	Exhibit string
	// Run executes the experiment and returns its table. The boolean
	// reports whether the paper's claim held.
	Run func() (*report.Table, bool, error)
}

// All returns every experiment in ID order.
func All() []Experiment {
	es := []Experiment{
		E1Commutativity(),
		E2Personnel(),
		E3ReplacementChart(),
		E4ReferenceConnection(),
		E5InsertCompleteness(),
		E6DeleteCompleteness(),
		E7ReplaceCompleteness(),
		E8CriteriaIndependence(),
		E9SPJUniqueness(),
		E10SPJNF(),
		E11Composition(),
		E12Scaling(),
		E13EnumVsBrute(),
		E14Simplification(),
		E15DAGExtension(),
		E16SPJTheoremOracle(),
	}
	sort.Slice(es, func(i, j int) bool { return idNum(es[i].ID) < idNum(es[j].ID) })
	return es
}

func idNum(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "E%d", &n); err != nil {
		return 0
	}
	return n
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
