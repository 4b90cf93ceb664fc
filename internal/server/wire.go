package server

import (
	"fmt"
	"strconv"

	"viewupdate/internal/core"
	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
)

// updateBody is the JSON body of insert/delete/replace requests, both
// single-shot and inside a transaction. Values travel as plain strings
// and are parsed against the view schema's domains.
type updateBody struct {
	// Values are the positional row values of an insert.
	Values []string `json:"values,omitempty"`
	// Where selects the single target row of a delete or replace by
	// attribute equality.
	Where map[string]string `json:"where,omitempty"`
	// Set holds the attribute assignments of a replace.
	Set map[string]string `json:"set,omitempty"`
	// Prefer overrides the view's policy with a class preference order
	// for this request (wire-level translator selection).
	Prefer []string `json:"prefer,omitempty"`
}

// updateReply is the JSON response of a landed view update.
type updateReply struct {
	OK          bool     `json:"ok"`
	Class       string   `json:"class,omitempty"`
	Ops         []string `json:"ops,omitempty"`
	SideEffects string   `json:"side_effects,omitempty"`
	Version     uint64   `json:"version"`
	Staged      bool     `json:"staged,omitempty"` // true inside a transaction
	// Duplicate marks an idempotent replay: this request's key matched
	// an already-landed commit, nothing was applied again, and the
	// reply carries the original outcome. Replayed further marks keys
	// recovered from the WAL after a crash, whose reply detail (class,
	// exact version) did not survive the dead process.
	Duplicate bool `json:"duplicate,omitempty"`
	Replayed  bool `json:"replayed,omitempty"`
}

// errorReply is the JSON error envelope.
type errorReply struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// rowsReply is the JSON response of a view read.
type rowsReply struct {
	View    string     `json:"view"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Count   int        `json:"count"`
	Version uint64     `json:"version"`
}

// txReply carries transaction lifecycle results.
type txReply struct {
	Token     string `json:"token,omitempty"`
	Committed int    `json:"committed,omitempty"`
	Version   uint64 `json:"version,omitempty"`
	OK        bool   `json:"ok"`
}

// execBody and execReply are the admin script endpoint's wire forms.
type execBody struct {
	Script string `json:"script"`
}

type execReply struct {
	Output string `json:"output"`
	OK     bool   `json:"ok"`
}

// parseValue interprets a wire string as a value of the attribute's
// domain: integers and booleans by their literal form, everything else
// as a string. The parsed value must belong to the domain.
func parseValue(attr schema.Attribute, s string) (value.Value, error) {
	var v value.Value
	switch attr.Domain.Kind() {
	case value.Int:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("server: %s wants an integer, got %q", attr.Name, s)
		}
		v = value.NewInt(i)
	case value.Bool:
		switch s {
		case "true":
			v = value.NewBool(true)
		case "false":
			v = value.NewBool(false)
		default:
			return value.Value{}, fmt.Errorf("server: %s wants true|false, got %q", attr.Name, s)
		}
	default:
		v = value.NewString(s)
	}
	if !attr.Domain.Contains(v) {
		return value.Value{}, fmt.Errorf("server: %s outside domain %s of %s", s, attr.Domain.Name(), attr.Name)
	}
	return v, nil
}

// parseRow builds a view tuple from positional wire strings.
func parseRow(rel *schema.Relation, vals []string) (tuple.T, error) {
	if len(vals) != rel.Arity() {
		return tuple.T{}, fmt.Errorf("server: %s takes %d values, got %d", rel.Name(), rel.Arity(), len(vals))
	}
	parsed := make([]value.Value, len(vals))
	for i, a := range rel.Attributes() {
		v, err := parseValue(a, vals[i])
		if err != nil {
			return tuple.T{}, err
		}
		parsed[i] = v
	}
	return tuple.New(rel, parsed...)
}

// parseEq parses a wire equality map against the view schema.
func parseEq(rel *schema.Relation, m map[string]string) (map[string]value.Value, error) {
	out := make(map[string]value.Value, len(m))
	for name, s := range m {
		a, ok := rel.Attribute(name)
		if !ok {
			return nil, fmt.Errorf("server: %s has no attribute %s", rel.Name(), name)
		}
		v, err := parseValue(a, s)
		if err != nil {
			return nil, err
		}
		out[name] = v
	}
	return out, nil
}

// matchEq reports whether the row satisfies every equality.
func matchEq(row tuple.T, eq map[string]value.Value) bool {
	for name, want := range eq {
		got, ok := row.Get(name)
		if !ok || got != want {
			return false
		}
	}
	return true
}

// uniqueRow finds the single view row of rows matching the equalities,
// mirroring the sqlish session's single-tuple request discipline.
func uniqueRow(v view.View, rows *tuple.Set, eq map[string]value.Value) (tuple.T, error) {
	if len(eq) == 0 {
		return tuple.T{}, fmt.Errorf("server: where clause required")
	}
	var match tuple.T
	n := 0
	for _, row := range rows.Slice() {
		if matchEq(row, eq) {
			match = row
			n++
		}
	}
	switch n {
	case 0:
		return tuple.T{}, fmt.Errorf("server: no row of %s matches", v.Name())
	case 1:
		return match, nil
	default:
		return tuple.T{}, fmt.Errorf("server: %d rows of %s match; requests are single-tuple — refine the where clause", n, v.Name())
	}
}

// rowsOn returns v's rows over the state a read or a request builder
// was handed: a published snapshot answers from its own memo, a
// transaction's staged overlay has none and is materialized.
func rowsOn(v view.View, src storage.Source) *tuple.Set {
	if s, ok := src.(*snapshot); ok {
		return s.rows(v)
	}
	return v.Materialize(src)
}

// buildRequest converts a wire update body of the given kind into a
// core.Request builder, evaluated against whichever state (published
// snapshot or staged transaction overlay) the caller supplies; a delete
// or replace resolves its where row over that same state (rowsOn).
func (e *Engine) buildRequest(kind update.Kind, body updateBody) func(view.View, storage.Source) (core.Request, error) {
	return func(v view.View, src storage.Source) (core.Request, error) {
		switch kind {
		case update.Insert:
			t, err := parseRow(v.Schema(), body.Values)
			if err != nil {
				return core.Request{}, err
			}
			return core.InsertRequest(t), nil
		case update.Delete:
			eq, err := parseEq(v.Schema(), body.Where)
			if err != nil {
				return core.Request{}, err
			}
			row, err := uniqueRow(v, rowsOn(v, src), eq)
			if err != nil {
				return core.Request{}, err
			}
			return core.DeleteRequest(row), nil
		case update.Replace:
			if len(body.Set) == 0 {
				return core.Request{}, fmt.Errorf("server: replace needs a set clause")
			}
			eq, err := parseEq(v.Schema(), body.Where)
			if err != nil {
				return core.Request{}, err
			}
			row, err := uniqueRow(v, rowsOn(v, src), eq)
			if err != nil {
				return core.Request{}, err
			}
			sets, err := parseEq(v.Schema(), body.Set)
			if err != nil {
				return core.Request{}, err
			}
			newRow := row
			for name, val := range sets {
				newRow, err = newRow.With(name, val)
				if err != nil {
					return core.Request{}, err
				}
			}
			return core.ReplaceRequest(row, newRow), nil
		default:
			return core.Request{}, fmt.Errorf("server: unsupported update kind %v", kind)
		}
	}
}

// renderOps renders a translation's operations for the wire.
func renderOps(tr *update.Translation) []string {
	ops := tr.Ops()
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = op.String()
	}
	return out
}

// renderRows renders a materialized view row set (optionally filtered
// by equalities) into the wire row format.
func renderRows(v view.View, set *tuple.Set, eq map[string]value.Value) ([][]string, []string) {
	cols := v.Schema().AttributeNames()
	var rows [][]string
	for _, row := range set.Slice() {
		if len(eq) > 0 && !matchEq(row, eq) {
			continue
		}
		cells := make([]string, len(cols))
		for i, c := range cols {
			val, _ := row.Get(c)
			cells[i] = wireString(val)
		}
		rows = append(rows, cells)
	}
	return rows, cols
}

// wireString renders a value for the wire in the same plain form
// parseValue accepts (no quotes around strings).
func wireString(v value.Value) string {
	switch v.Kind() {
	case value.Int:
		return strconv.FormatInt(v.Int(), 10)
	case value.Bool:
		return strconv.FormatBool(v.Bool())
	case value.String:
		return v.Str()
	default:
		return v.String()
	}
}
