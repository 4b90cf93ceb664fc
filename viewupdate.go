// Package viewupdate is a reproduction of Arthur M. Keller's PODS 1985
// paper "Algorithms for Translating View Updates to Database Updates
// for Views Involving Selections, Projections, and Joins".
//
// It implements the paper's complete machinery — a relational storage
// engine with key and inclusion dependencies, select-project (SP) and
// select-project-join (SPJ) views in SPJNF over reference-connection
// trees, the five criteria for acceptable view-update translations, the
// complete translation enumerators (algorithm classes I-1/I-2, D-1/D-2,
// R-1…R-5, SPJ-D/I/R), and policies encoding the DBA's "additional
// semantics" that choose one translation among the candidates (by
// default Simplest, the paper's simplicity order, which also breaks
// every other policy's ties).
//
// This package is the public façade: it re-exports the library's main
// types so applications can work with a single import. The
// implementation lives under internal/ (see DESIGN.md for the map).
//
// A minimal session:
//
//	dom, _ := viewupdate.StringDomain("LocDom", "NY", "SF")
//	... build a schema.Relation, a Selection, an SP view ...
//	db := viewupdate.Open(sch)
//	tr := viewupdate.NewTranslator(v, viewupdate.PreferClasses{Order: []string{"D-1"}})
//	cand, err := tr.Apply(db, viewupdate.DeleteRequest(row))
//
// See examples/ for complete programs.
package viewupdate

import (
	"viewupdate/internal/algebra"
	"viewupdate/internal/core"
	"viewupdate/internal/persist"
	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
)

// Value and domain construction.
type (
	// Value is a typed scalar stored in relations.
	Value = value.Value
	// Domain is a finite set of values an attribute draws from.
	Domain = schema.Domain
	// Attribute is a named column over a domain.
	Attribute = schema.Attribute
	// Relation is a relation schema with a single key dependency.
	Relation = schema.Relation
	// Schema is a database schema: relations plus inclusion
	// dependencies.
	Schema = schema.Database
	// InclusionDependency states child[attrs] ⊆ parent[key].
	InclusionDependency = schema.InclusionDependency
	// Tuple is an immutable tuple over a relation schema.
	Tuple = tuple.T
	// Database is a storage instance holding relation extensions.
	Database = storage.Database
	// Selection is a conjunction of "attribute ∈ set" terms.
	Selection = algebra.Selection
	// SPView is a select-project view over one relation.
	SPView = view.SP
	// JoinView is a select-project-join view over a reference tree.
	JoinView = view.Join
	// JoinNode is a node of a join view's query graph.
	JoinNode = view.Node
	// JoinRef is a reference connection from a node to a target node.
	JoinRef = view.Ref
	// View is any materializable view (SPView or JoinView).
	View = view.View
	// Translation is a set of database update operations.
	Translation = update.Translation
	// Op is one database update operation.
	Op = update.Op
	// Request is a single-tuple view update request.
	Request = core.Request
	// Candidate is one translation labelled with its algorithm class.
	Candidate = core.Candidate
	// Translator binds a view to a policy.
	Translator = core.Translator
	// Policy selects among candidate translations (the paper's
	// "additional semantics"); a nil Policy is Simplest.
	Policy = core.Policy
	// PreferClasses ranks candidates by algorithm class.
	PreferClasses = core.PreferClasses
	// Simplest, the default, picks by the paper's simplicity order.
	Simplest = core.Simplest
	// RejectAmbiguous requires a unique candidate.
	RejectAmbiguous = core.RejectAmbiguous
	// WithDefaults refines a policy with default attribute values.
	WithDefaults = core.WithDefaults
	// Violation reports a broken criterion.
	Violation = core.Violation
	// CheckOptions parameterizes criteria checking.
	CheckOptions = core.CheckOptions
	// Effects reports a translation's view side effects.
	Effects = core.Effects
	// BatchItem is one view update inside a multi-view batch.
	BatchItem = core.BatchItem
)

// Value constructors.
var (
	// Int builds an integer value.
	Int = value.NewInt
	// Str builds a string value.
	Str = value.NewString
	// Bool builds a boolean value.
	Bool = value.NewBool
)

// Domain constructors.
var (
	// NewDomain builds a finite domain from explicit values.
	NewDomain = schema.NewDomain
	// IntRangeDomain builds the domain of the integers [lo, hi].
	IntRangeDomain = schema.IntRangeDomain
	// StringDomain builds a domain of strings.
	StringDomain = schema.StringDomain
	// BoolDomain builds the two-valued boolean domain.
	BoolDomain = schema.BoolDomain
)

// Schema constructors.
var (
	// NewRelation builds a relation schema with a key.
	NewRelation = schema.NewRelation
	// NewSchema returns an empty database schema.
	NewSchema = schema.NewDatabase
	// Open returns an empty database instance for a schema.
	Open = storage.Open
	// NewTuple builds a validated tuple.
	NewTuple = tuple.New
	// NewSelection returns the selection "true" over a relation.
	NewSelection = algebra.NewSelection
)

// View constructors.
var (
	// NewSPView builds a select-project view.
	NewSPView = view.NewSP
	// IdentityView builds the identity view of a relation.
	IdentityView = view.Identity
	// NewJoinView builds and validates a join view over a reference
	// tree.
	NewJoinView = view.NewJoin
	// NewJoinViewDAG builds a join view over a rooted DAG (the §5-1
	// footnote extension): target nodes may be shared between
	// references; rows exist only where the reference paths converge.
	NewJoinViewDAG = view.NewJoinDAG
)

// Update construction.
var (
	// NewTranslation builds a translation from operations.
	NewTranslation = update.NewTranslation
	// NewInsertOp builds a database insertion operation.
	NewInsertOp = update.NewInsert
	// NewDeleteOp builds a database deletion operation.
	NewDeleteOp = update.NewDelete
	// NewReplaceOp builds a database replacement operation.
	NewReplaceOp = update.NewReplace
)

// Request constructors.
var (
	// InsertRequest asks that a tuple appear in the view.
	InsertRequest = core.InsertRequest
	// DeleteRequest asks that a tuple disappear from the view.
	DeleteRequest = core.DeleteRequest
	// ReplaceRequest asks that one view tuple replace another.
	ReplaceRequest = core.ReplaceRequest
)

// Translation machinery.
var (
	// NewTranslator binds a view to a policy.
	NewTranslator = core.NewTranslator
	// Enumerate returns every candidate translation of a request.
	Enumerate = core.Enumerate
	// ValidateRequest checks a request's applicability conditions.
	ValidateRequest = core.ValidateRequest
	// Valid reports validity: V(DB') = U(V(DB)), save the view side effect §5 admits on join views.
	Valid = core.Valid
	// CheckCriteria evaluates the paper's five criteria.
	CheckCriteria = core.CheckCriteria
	// SideEffects reports a translation's view changes beyond the
	// request (join views may have them; SP views never do).
	SideEffects = core.SideEffects
	// TranslateBatch translates updates on disjoint-relation views into
	// one union translation (the §5-3 composition lemma).
	TranslateBatch = core.TranslateBatch
	// ApplyBatch translates and applies a batch atomically.
	ApplyBatch = core.ApplyBatch
	// MakeRow builds a tuple of a relation from raw Go values.
	MakeRow = core.MakeRow
)

// Persistence: deterministic JSON snapshots of schema and contents.
var (
	// SaveSnapshot writes a database snapshot to a file.
	SaveSnapshot = persist.SaveFile
	// LoadSnapshot restores a database from a snapshot file.
	LoadSnapshot = persist.LoadFile
)
