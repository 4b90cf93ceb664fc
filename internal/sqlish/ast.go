package sqlish

import (
	"viewupdate/internal/value"
	"viewupdate/internal/view"
)

// A Stmt is one parsed statement.
type Stmt interface{ stmt() }

// CreateDomain declares a finite domain.
//
//	CREATE DOMAIN LocDom AS STRING ('New York', 'San Francisco');
//	CREATE DOMAIN NoDom AS INT RANGE 1 TO 100;
//	CREATE DOMAIN SmallDom AS INT (1, 2, 3);
//	CREATE DOMAIN TeamDom AS BOOL;
type CreateDomain struct {
	Name    string
	Kind    string // "string", "int", "bool"
	Values  []value.Value
	IsRange bool
	Lo, Hi  int64
}

func (CreateDomain) stmt() {}

// ColDef is one column of a CREATE TABLE.
type ColDef struct {
	Name   string
	Domain string
}

// FKDef is a FOREIGN KEY clause: attrs reference the parent's key.
type FKDef struct {
	Attrs  []string
	Parent string
}

// CreateTable declares a base relation.
//
//	CREATE TABLE EMP (EmpNo NoDom, Name NameDom, PRIMARY KEY (EmpNo));
//	CREATE TABLE CXD (C CDom, X ADom, D DDom,
//	                  PRIMARY KEY (C), FOREIGN KEY (X) REFERENCES AB);
type CreateTable struct {
	Name        string
	Cols        []ColDef
	Key         []string
	ForeignKeys []FKDef
}

func (CreateTable) stmt() {}

// WhereTerm is one conjunct "attr IN (v, ...)" (or "attr = v").
type WhereTerm struct {
	Attr   string
	Values []value.Value
}

// CreateView declares a select-project view.
//
//	CREATE VIEW V AS SELECT EmpNo, Name FROM EMP
//	    WHERE Location IN ('New York') AND Baseball = true;
type CreateView struct {
	Name  string
	Cols  []string // nil means *
	Table string
	Where []WhereTerm
}

func (CreateView) stmt() {}

// JoinEdgeDef is one reference connection of a join view.
type JoinEdgeDef struct {
	View   string   // owning SP view
	Attrs  []string // its referencing attributes
	Target string   // referenced SP view
}

// CreateJoinView declares a join view over previously created SP views.
//
//	CREATE JOIN VIEW J ROOT CXDV WITH CXDV (X) REFERENCES ABV;
type CreateJoinView struct {
	Name  string
	Root  string
	Edges []JoinEdgeDef
}

func (CreateJoinView) stmt() {}

// EqTerm is "attr = value", in the form view.Select and
// core.BuildRequest take a WHERE or SET list.
type EqTerm = view.Eq

// CreateIndex is CREATE INDEX ON table (attr): builds a secondary
// index used by selection scans.
type CreateIndex struct {
	Table string
	Attr  string
}

func (CreateIndex) stmt() {}

// Insert is INSERT INTO target VALUES (v, ...).
type Insert struct {
	Target string
	Values []value.Value
}

func (Insert) stmt() {}

// Delete is DELETE FROM target WHERE a = v AND ... — the conjunction
// must identify exactly one current row.
type Delete struct {
	Target string
	Where  []EqTerm
}

func (Delete) stmt() {}

// Update is UPDATE target SET a = v, ... WHERE a = v AND ... — a
// single-row replacement.
type Update struct {
	Target string
	Sets   []EqTerm
	Where  []EqTerm
}

func (Update) stmt() {}

// Select is SELECT *|cols FROM target [WHERE a = v AND ...], for
// inspection.
type Select struct {
	Target string
	Cols   []string // nil means *
	Where  []EqTerm
}

func (Select) stmt() {}

// Show is SHOW TABLES | SHOW VIEWS | SHOW POLICIES.
type Show struct {
	What string
}

func (Show) stmt() {}

// ShowCandidates is SHOW CANDIDATES FOR <insert|delete|update>: it
// enumerates the complete translation set without applying anything.
type ShowCandidates struct {
	Inner Stmt
}

func (ShowCandidates) stmt() {}

// ShowEffects is SHOW EFFECTS FOR <insert|delete|update>: it shows the
// policy-chosen translation and its view side effects without applying
// anything.
type ShowEffects struct {
	Inner Stmt
}

func (ShowEffects) stmt() {}

// SetPolicy is SET POLICY target PREFER 'D-1', 'D-2': installs a
// PreferClasses policy on the target view's translator.
type SetPolicy struct {
	Target string
	Prefer []string
}

func (SetPolicy) stmt() {}

// SetDefault is SET DEFAULT target.attr = v: installs a default value
// for the view's hidden-attribute choices.
type SetDefault struct {
	Target string
	Attr   string
	Val    value.Value
}

func (SetDefault) stmt() {}

// Begin is BEGIN: it opens a multi-statement transaction. Data
// statements until COMMIT run against an overlay staged over the
// database; COMMIT applies the accumulated difference atomically (and
// durably, when a store is attached); ROLLBACK discards it.
type Begin struct{}

func (Begin) stmt() {}

// Commit is COMMIT: it atomically applies the open transaction.
type Commit struct{}

func (Commit) stmt() {}

// Rollback is ROLLBACK: it discards the open transaction.
type Rollback struct{}

func (Rollback) stmt() {}

// Save is SAVE TO 'file': writes the session's statement journal (all
// successfully executed schema- or state-changing statements) as a
// replayable script.
type Save struct {
	Path string
}

func (Save) stmt() {}

// Load is LOAD FROM 'file': executes the script in the file against
// the current session.
type Load struct {
	Path string
}

func (Load) stmt() {}
