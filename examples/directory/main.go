// Directory demonstrates projections and the paper's insertion
// semantics on a staff directory. The public view hides the Status
// attribute and shows only active employees:
//
//	DIRECTORY = π[Id, Name, Dept] σ[Status ∈ {active, oncall}] STAFF
//
// Two effects are on display:
//
//   - extend-insert (I-1) must pick a hidden Status for a brand-new
//     entry; the candidate set has one translation per selecting value,
//     and a WithDefaults policy encodes the DBA's preference;
//   - inserting an entry whose key belongs to an archived (hidden)
//     record triggers I-2: "an object the user wants inserted may refer
//     to an existing object the user has just become aware of" — the
//     archived record is revived, keeping hidden data it carried.
//
// Run with: go run ./examples/directory
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
	ids, err := viewupdate.IntRangeDomain("IdDom", 1, 50)
	if err != nil {
		fatal(err)
	}
	names, err := viewupdate.StringDomain("NameDom", "Ada", "Ben", "Cy", "Dee", "Eli")
	if err != nil {
		fatal(err)
	}
	depts, err := viewupdate.StringDomain("DeptDom", "eng", "ops", "sales")
	if err != nil {
		fatal(err)
	}
	status, err := viewupdate.StringDomain("StatusDom", "active", "oncall", "archived")
	if err != nil {
		fatal(err)
	}
	staff, err := viewupdate.NewRelation("STAFF", []viewupdate.Attribute{
		{Name: "Id", Domain: ids},
		{Name: "Name", Domain: names},
		{Name: "Dept", Domain: depts},
		{Name: "Status", Domain: status},
	}, []string{"Id"})
	if err != nil {
		fatal(err)
	}
	sch := viewupdate.NewSchema()
	if err := sch.AddRelation(staff); err != nil {
		fatal(err)
	}

	sel := viewupdate.NewSelection(staff)
	if err := sel.AddTerm("Status", viewupdate.Str("active"), viewupdate.Str("oncall")); err != nil {
		fatal(err)
	}
	directory, err := viewupdate.NewSPView("DIRECTORY", sel, []string{"Id", "Name", "Dept"})
	if err != nil {
		fatal(err)
	}

	db := viewupdate.Open(sch)
	load := func(id int64, name, dept, st string) {
		t, err := viewupdate.MakeRow(staff, id, name, dept, st)
		if err != nil {
			fatal(err)
		}
		if err := db.Load("STAFF", t); err != nil {
			fatal(err)
		}
	}
	load(1, "Ada", "eng", "active")
	load(2, "Ben", "ops", "archived") // hidden from the directory

	fmt.Println("directory view (Status hidden, archived staff invisible):")
	for _, row := range directory.Materialize(db).Slice() {
		fmt.Println("  ", row)
	}

	// --- I-1 with a hidden choice. ---
	newEntry, err := viewupdate.MakeRow(directory.Schema(), 3, "Cy", "eng")
	if err != nil {
		fatal(err)
	}
	cands, err := viewupdate.Enumerate(db, directory, viewupdate.InsertRequest(newEntry))
	if err != nil {
		fatal(err)
	}
	fmt.Println("\ninserting (3, Cy, eng): extend-insert must choose the hidden Status —")
	for i, c := range cands {
		fmt.Printf("  %d. [%s] %s\n", i+1, c.Class, c.Translation)
	}
	policy := viewupdate.WithDefaults{
		Base:     viewupdate.Simplest{},
		Defaults: map[string]viewupdate.Value{"Status": viewupdate.Str("active")},
	}
	tr := viewupdate.NewTranslator(directory, policy)
	chosen, err := tr.Apply(db, viewupdate.InsertRequest(newEntry))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("DBA default Status=active picked: %s\n", chosen.Translation)

	// --- I-2: the new entry's id belongs to an archived record. ---
	revived, err := viewupdate.MakeRow(directory.Schema(), 2, "Ben", "sales")
	if err != nil {
		fatal(err)
	}
	cands, err = viewupdate.Enumerate(db, directory, viewupdate.InsertRequest(revived))
	if err != nil {
		fatal(err)
	}
	fmt.Println("\ninserting (2, Ben, sales): id 2 is Ben's archived record — I-2 revives it:")
	for i, c := range cands {
		fmt.Printf("  %d. [%s] %s\n", i+1, c.Class, c.Translation)
	}
	chosen, err = tr.Apply(db, viewupdate.InsertRequest(revived))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("applied: [%s] %s\n", chosen.Class, chosen.Translation)

	fmt.Println("\nfinal STAFF relation:")
	for _, t := range db.Tuples("STAFF") {
		fmt.Println("  ", t)
	}
	fmt.Println("\nfinal directory view:")
	for _, row := range directory.Materialize(db).Slice() {
		fmt.Println("  ", row)
	}
}

// fatal reports the failure through the structured logger and exits.
func fatal(v interface{}) {
	slog.Error(fmt.Sprint(v))
	os.Exit(1)
}
