// Quickstart: define a relation, a select-project view, and translate
// view updates into database updates.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log/slog"
	"os"

	"viewupdate"
	"viewupdate/internal/obs"
)

func main() {
	slog.SetDefault(obs.NewLogger(os.Stderr, slog.LevelInfo))
	// A finite-domain relation EMP(EmpNo*, Name, Location), as in the
	// paper's model: every attribute draws from a finite domain and the
	// only constraint is the key dependency EmpNo -> everything.
	empNo, err := viewupdate.IntRangeDomain("EmpNoDom", 1, 100)
	if err != nil {
		fatal(err)
	}
	names, err := viewupdate.StringDomain("NameDom", "Ada", "Ben", "Cy", "Dee")
	if err != nil {
		fatal(err)
	}
	locs, err := viewupdate.StringDomain("LocDom", "New York", "San Francisco")
	if err != nil {
		fatal(err)
	}
	emp, err := viewupdate.NewRelation("EMP", []viewupdate.Attribute{
		{Name: "EmpNo", Domain: empNo},
		{Name: "Name", Domain: names},
		{Name: "Location", Domain: locs},
	}, []string{"EmpNo"})
	if err != nil {
		fatal(err)
	}
	sch := viewupdate.NewSchema()
	if err := sch.AddRelation(emp); err != nil {
		fatal(err)
	}

	// The view: SELECT * FROM EMP WHERE Location = 'New York'.
	sel := viewupdate.NewSelection(emp)
	if err := sel.AddTerm("Location", viewupdate.Str("New York")); err != nil {
		fatal(err)
	}
	ny, err := viewupdate.NewSPView("NewYorkers", sel, []string{"EmpNo", "Name", "Location"})
	if err != nil {
		fatal(err)
	}

	// A database instance.
	db := viewupdate.Open(sch)
	mustLoad := func(no int64, name, loc string) {
		t, err := viewupdate.MakeRow(emp, no, name, loc)
		if err != nil {
			fatal(err)
		}
		if err := db.Load("EMP", t); err != nil {
			fatal(err)
		}
	}
	mustLoad(1, "Ada", "New York")
	mustLoad(2, "Ben", "San Francisco")
	mustLoad(3, "Cy", "New York")

	fmt.Println("view before:")
	for _, row := range ny.Materialize(db).Slice() {
		fmt.Println("  ", row)
	}

	// Insert through the view. The translator enumerates the complete
	// candidate set (here a single I-1 insertion) and applies the
	// policy's choice atomically.
	tr := viewupdate.NewTranslator(ny, viewupdate.Simplest{})
	newRow, err := viewupdate.MakeRow(ny.Schema(), 4, "Dee", "New York")
	if err != nil {
		fatal(err)
	}
	cand, err := tr.Apply(db, viewupdate.InsertRequest(newRow))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\ninsert translated by class %s: %s\n", cand.Class, cand.Translation)

	// Delete through the view: two legal translations exist — delete
	// the employee (D-1) or move them out of New York (D-2). We list
	// them, then let a policy that prefers real deletion decide.
	victim, err := viewupdate.MakeRow(ny.Schema(), 1, "Ada", "New York")
	if err != nil {
		fatal(err)
	}
	cands, err := viewupdate.Enumerate(db, ny, viewupdate.DeleteRequest(victim))
	if err != nil {
		fatal(err)
	}
	fmt.Println("\ncandidate translations for deleting Ada:")
	for i, c := range cands {
		fmt.Printf("  %d. [%s] %s\n", i+1, c.Class, c.Translation)
	}
	del := viewupdate.NewTranslator(ny, viewupdate.PreferClasses{Order: []string{"D-1"}})
	cand, err = del.Apply(db, viewupdate.DeleteRequest(victim))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("chosen: [%s] %s\n", cand.Class, cand.Translation)

	fmt.Println("\nview after:")
	for _, row := range ny.Materialize(db).Slice() {
		fmt.Println("  ", row)
	}
	fmt.Println("\ndatabase after:")
	for _, t := range db.Tuples("EMP") {
		fmt.Println("  ", t)
	}
}

// fatal reports the failure through the structured logger and exits.
func fatal(v interface{}) {
	slog.Error(fmt.Sprint(v))
	os.Exit(1)
}
