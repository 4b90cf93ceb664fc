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
// domain kind: integers and booleans by their literal form, everything
// else as a string. Domain membership is checked where the value is
// used (tuple.New, tuple.With, view.Select).
func parseValue(attr schema.Attribute, s string) (value.Value, error) {
	switch attr.Domain.Kind() {
	case value.Int:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("server: %s wants an integer, got %q", attr.Name, s)
		}
		return value.NewInt(i), nil
	case value.Bool:
		if s != "true" && s != "false" {
			return value.Value{}, fmt.Errorf("server: %s wants true|false, got %q", attr.Name, s)
		}
		return value.NewBool(s == "true"), nil
	default:
		return value.NewString(s), nil
	}
}

// parseRow parses an insert's positional wire strings.
func parseRow(rel *schema.Relation, vals []string) ([]value.Value, error) {
	if len(vals) != rel.Arity() {
		return nil, fmt.Errorf("server: %s takes %d values, got %d", rel.Name(), rel.Arity(), len(vals))
	}
	parsed := make([]value.Value, len(vals))
	for i, a := range rel.Attributes() {
		v, err := parseValue(a, vals[i])
		if err != nil {
			return nil, err
		}
		parsed[i] = v
	}
	return parsed, nil
}

// parseEq parses a wire equality map against the view schema.
func parseEq(rel *schema.Relation, m map[string]string) ([]view.Eq, error) {
	out := make([]view.Eq, 0, len(m))
	for name, s := range m {
		a, ok := rel.Attribute(name)
		if !ok {
			return nil, fmt.Errorf("server: %s has no attribute %s", rel.Name(), name)
		}
		v, err := parseValue(a, s)
		if err != nil {
			return nil, err
		}
		out = append(out, view.Eq{Attr: name, Val: v})
	}
	return out, nil
}

// buildRequest converts a wire update body of the given kind into a
// core.Request builder, evaluated against whichever state (published
// snapshot or staged transaction overlay) the caller supplies: the
// strings are parsed here, everything a statement means is
// core.BuildRequest's.
func (e *Engine) buildRequest(kind update.Kind, body updateBody) func(view.View, storage.Source) (core.Request, error) {
	return func(v view.View, src storage.Source) (core.Request, error) {
		rel := v.Schema()
		if kind == update.Insert {
			values, err := parseRow(rel, body.Values)
			if err != nil {
				return core.Request{}, err
			}
			return core.BuildRequest(v, src, kind, values, nil, nil)
		}
		where, err := parseEq(rel, body.Where)
		if err != nil {
			return core.Request{}, err
		}
		set, err := parseEq(rel, body.Set)
		if err != nil {
			return core.Request{}, err
		}
		return core.BuildRequest(v, src, kind, nil, where, set)
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

// renderRows renders view rows into the wire row format.
func renderRows(v view.View, rows []tuple.T) ([][]string, []string) {
	cols := v.Schema().AttributeNames()
	var out [][]string
	for _, row := range rows {
		cells := make([]string, len(cols))
		for i := range cols {
			cells[i] = wireString(row.At(i))
		}
		out = append(out, cells)
	}
	return out, cols
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
