package sqlish

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	"viewupdate/internal/algebra"
	"viewupdate/internal/core"
	"viewupdate/internal/report"
	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/view"
)

// A Session holds a schema under construction, its database instance,
// the defined views and their translator configuration. It executes
// parsed statements and renders textual results.
type Session struct {
	sch       *schema.Database
	db        *storage.Database
	domains   map[string]*schema.Domain
	spViews   map[string]*view.SP
	joinViews map[string]*view.Join
	prefer    map[string][]string               // view -> preferred classes
	defaults  map[string]map[string]value.Value // view -> attr -> default
	custom    map[string]core.Policy            // view -> externally built policy
	journal   []string                          // replayable statement texts
	explain   bool                              // render explain traces for view updates
	tx        *txState                          // open transaction, when any
	noFiles   bool                              // refuse SAVE and LOAD, keep no journal

	// Durability hooks (see hooks.go). applier replaces the
	// non-transactional apply path; schemaChanged fires after DDL grows
	// the schema. Both are nil in plain in-memory sessions; AttachStore
	// points them at a persist.Store, the serving engine at its own.
	applier       func(*update.Translation) error
	schemaChanged func() error
}

// ErrExists reports that a CREATE names a domain, table or view that is
// already defined. Match with errors.Is; ExecScriptSkipExisting skips
// statements failing with it.
var ErrExists = errors.New("already exists")

// errNoFiles refuses SAVE and LOAD in a session that RefuseFiles
// readied for a network front door.
var errNoFiles = errors.New("sqlish: SAVE and LOAD are refused here: they would write and read files on the server")

// NewSession returns an empty session.
func NewSession() *Session {
	sch := schema.NewDatabase()
	return &Session{
		sch:       sch,
		db:        storage.Open(sch),
		domains:   map[string]*schema.Domain{},
		spViews:   map[string]*view.SP{},
		joinViews: map[string]*view.Join{},
		prefer:    map[string][]string{},
		defaults:  map[string]map[string]value.Value{},
	}
}

// DB exposes the session's database instance (read-mostly; used by
// tests and tooling).
func (s *Session) DB() *storage.Database { return s.db }

// View returns the named view, or nil (for tooling such as the
// translator-configuration dialog).
func (s *Session) View(name string) view.View { return s.lookupView(name) }

// ViewNames returns the names of all defined views (SP and join),
// sorted.
func (s *Session) ViewNames() []string {
	names := make([]string, 0, len(s.spViews)+len(s.joinViews))
	for n := range s.spViews {
		names = append(names, n)
	}
	for n := range s.joinViews {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Policy returns the configured policy chain for the named view (the
// default chain when the view has no configuration). Used by the
// network serving layer, which translates outside the session.
func (s *Session) Policy(name string) core.Policy { return s.policyFor(name) }

// RefuseFiles readies the session for a network front door: SAVE and
// LOAD are refused, because they would write and read files on the
// serving host, and no journal is kept, SAVE being its only reader.
func (s *Session) RefuseFiles() { s.noFiles = true }

// SetExplain toggles explain mode: every view update is translated via
// the traced pipeline and the rendered explain trace precedes the usual
// result text.
func (s *Session) SetExplain(on bool) { s.explain = on }

// SetCustomPolicy installs an externally built policy (e.g. from the
// dialog package) on the named view, overriding SET POLICY / SET
// DEFAULT configuration.
func (s *Session) SetCustomPolicy(name string, p core.Policy) error {
	if s.lookupView(name) == nil {
		return fmt.Errorf("sqlish: unknown view %s", name)
	}
	if s.custom == nil {
		s.custom = map[string]core.Policy{}
	}
	s.custom[name] = p
	return nil
}

// ExecLine parses and executes one statement, returning its rendered
// result.
func (s *Session) ExecLine(input string) (string, error) {
	stmt, err := Parse(input)
	if err != nil {
		return "", err
	}
	out, err := s.Exec(stmt)
	if err == nil {
		s.journalStmt(stmt, strings.TrimSuffix(strings.TrimSpace(input), ";"))
	}
	return out, err
}

// ExecScript parses and executes a multi-statement script, returning
// the concatenated results.
func (s *Session) ExecScript(input string) (string, error) {
	out, _, err := s.execScript(input, false)
	return out, err
}

// ExecScriptSkipExisting executes a script like ExecScript but skips
// statements that fail with ErrExists instead of aborting, returning
// how many were skipped. This makes a DDL script idempotent — the boot
// path for a server that re-runs its -init script over a recovered
// store, where the snapshot already holds the domains and tables.
func (s *Session) ExecScriptSkipExisting(input string) (string, int, error) {
	return s.execScript(input, true)
}

func (s *Session) execScript(input string, skipExisting bool) (string, int, error) {
	parts, err := parseScriptParts(input)
	if err != nil {
		return "", 0, err
	}
	var b strings.Builder
	skipped := 0
	for _, part := range parts {
		out, err := s.Exec(part.Stmt)
		if err != nil {
			if skipExisting && errors.Is(err, ErrExists) {
				skipped++
				continue
			}
			return b.String(), skipped, err
		}
		s.journalStmt(part.Stmt, part.Text)
		if out != "" {
			b.WriteString(out)
			if !strings.HasSuffix(out, "\n") {
				b.WriteByte('\n')
			}
		}
	}
	return b.String(), skipped, nil
}

// journalStmt records the source text of statements that change the
// session (schema, data, views, policies); reads, SAVE/LOAD and the
// transaction control statements themselves are not journaled. Inside
// a transaction the texts are buffered and reach the journal only when
// the transaction commits, so a saved script replays exactly the
// changes that took effect.
func (s *Session) journalStmt(stmt Stmt, text string) {
	switch stmt.(type) {
	case Select, Show, ShowCandidates, ShowEffects, Save, Load, Begin, Commit, Rollback:
		return
	}
	if text == "" || s.noFiles {
		return
	}
	if s.tx != nil {
		s.tx.stmts = append(s.tx.stmts, text)
		return
	}
	s.journal = append(s.journal, text)
}

// Journal returns the replayable statement texts recorded so far.
func (s *Session) Journal() []string {
	out := make([]string, len(s.journal))
	copy(out, s.journal)
	return out
}

// Exec executes one parsed statement.
func (s *Session) Exec(stmt Stmt) (string, error) {
	if s.tx != nil && !txAllowed(stmt) {
		return "", fmt.Errorf("sqlish: %T is not allowed inside a transaction; COMMIT or ROLLBACK first", stmt)
	}
	switch st := stmt.(type) {
	case Begin:
		return s.execBegin()
	case Commit:
		return s.execCommit()
	case Rollback:
		return s.execRollback()
	case CreateDomain:
		return s.execCreateDomain(st)
	case CreateTable:
		return s.execCreateTable(st)
	case CreateView:
		return s.execCreateView(st)
	case CreateJoinView:
		return s.execCreateJoinView(st)
	case CreateIndex:
		if err := s.db.CreateIndex(st.Table, st.Attr); err != nil {
			return "", err
		}
		return fmt.Sprintf("index on %s(%s) created", st.Table, st.Attr), nil
	case Insert:
		return s.execInsert(st)
	case Delete:
		return s.execDelete(st)
	case Update:
		return s.execUpdate(st)
	case Select:
		return s.execSelect(st)
	case Show:
		return s.execShow(st)
	case ShowCandidates:
		return s.execShowCandidates(st)
	case ShowEffects:
		return s.execShowEffects(st)
	case SetPolicy:
		return s.execSetPolicy(st)
	case SetDefault:
		return s.execSetDefault(st)
	case Save:
		return s.execSave(st)
	case Load:
		return s.execLoad(st)
	default:
		return "", fmt.Errorf("sqlish: unsupported statement %T", stmt)
	}
}

// Defines reports whether stmt defines something — a domain, a table,
// a view, an index, a policy, a default — or may (LOAD runs a file),
// rather than reading rows or writing them.
func Defines(stmt Stmt) bool {
	switch stmt.(type) {
	case CreateDomain, CreateTable, CreateView, CreateJoinView, CreateIndex, SetPolicy, SetDefault, Load:
		return true
	}
	return false
}

// execSave writes the journal as a replayable script.
func (s *Session) execSave(st Save) (string, error) {
	if s.noFiles {
		return "", errNoFiles
	}
	var b strings.Builder
	b.WriteString("-- vupdate session journal; replay with LOAD FROM or vupdate -f\n")
	for _, line := range s.journal {
		b.WriteString(line)
		b.WriteString(";\n")
	}
	if err := os.WriteFile(st.Path, []byte(b.String()), 0o644); err != nil {
		return "", fmt.Errorf("sqlish: %w", err)
	}
	return fmt.Sprintf("saved %d statements to %s", len(s.journal), st.Path), nil
}

// execLoad executes the statements in the file against this session.
func (s *Session) execLoad(st Load) (string, error) {
	if s.noFiles {
		return "", errNoFiles
	}
	data, err := os.ReadFile(st.Path)
	if err != nil {
		return "", fmt.Errorf("sqlish: %w", err)
	}
	out, err := s.ExecScript(string(data))
	if err != nil {
		return out, err
	}
	return out + fmt.Sprintf("loaded %s", st.Path), nil
}

func (s *Session) execCreateDomain(st CreateDomain) (string, error) {
	if _, dup := s.domains[st.Name]; dup {
		return "", fmt.Errorf("sqlish: domain %s %w", st.Name, ErrExists)
	}
	var d *schema.Domain
	var err error
	switch st.Kind {
	case "bool":
		d = schema.BoolDomain(st.Name)
	case "int":
		if st.IsRange {
			d, err = schema.IntRangeDomain(st.Name, st.Lo, st.Hi)
		} else {
			d, err = schema.NewDomain(st.Name, st.Values...)
		}
	case "string":
		d, err = schema.NewDomain(st.Name, st.Values...)
	default:
		return "", fmt.Errorf("sqlish: unknown domain kind %q", st.Kind)
	}
	if err != nil {
		return "", err
	}
	s.domains[st.Name] = d
	return fmt.Sprintf("domain %s created (%d values)", st.Name, d.Size()), nil
}

func (s *Session) execCreateTable(st CreateTable) (string, error) {
	if s.sch.Relation(st.Name) != nil {
		return "", fmt.Errorf("sqlish: table %s %w", st.Name, ErrExists)
	}
	attrs := make([]schema.Attribute, len(st.Cols))
	for i, col := range st.Cols {
		d := s.domains[col.Domain]
		if d == nil {
			return "", fmt.Errorf("sqlish: unknown domain %s for column %s", col.Domain, col.Name)
		}
		attrs[i] = schema.Attribute{Name: col.Name, Domain: d}
	}
	rel, err := schema.NewRelation(st.Name, attrs, st.Key)
	if err != nil {
		return "", err
	}
	if err := s.sch.AddRelation(rel); err != nil {
		return "", err
	}
	for _, fk := range st.ForeignKeys {
		if err := s.sch.AddInclusion(schema.InclusionDependency{
			Child: st.Name, ChildAttrs: fk.Attrs, Parent: fk.Parent,
		}); err != nil {
			return "", err
		}
	}
	if err := s.db.SyncSchema(); err != nil {
		return "", err
	}
	// Schema changes are persisted via the snapshot, not the WAL: a
	// durable session folds the log into a fresh snapshot that includes
	// the new table.
	if s.schemaChanged != nil {
		if err := s.schemaChanged(); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("table %s created", rel), nil
}

func (s *Session) execCreateView(st CreateView) (string, error) {
	if s.viewExists(st.Name) {
		return "", fmt.Errorf("sqlish: view %s %w", st.Name, ErrExists)
	}
	rel := s.sch.Relation(st.Table)
	if rel == nil {
		return "", fmt.Errorf("sqlish: unknown table %s", st.Table)
	}
	sel := algebra.NewSelection(rel)
	for _, w := range st.Where {
		if err := sel.AddTerm(w.Attr, w.Values...); err != nil {
			return "", err
		}
	}
	cols := st.Cols
	if cols == nil {
		cols = rel.AttributeNames()
	}
	v, err := view.NewSP(st.Name, sel, cols)
	if err != nil {
		return "", err
	}
	s.spViews[st.Name] = v
	return fmt.Sprintf("view %s created over %s where %s", st.Name, st.Table, sel), nil
}

func (s *Session) execCreateJoinView(st CreateJoinView) (string, error) {
	if s.viewExists(st.Name) {
		return "", fmt.Errorf("sqlish: view %s %w", st.Name, ErrExists)
	}
	// Build one node per referenced SP view, wiring edges owner->target.
	nodes := map[string]*view.Node{}
	getNode := func(name string) (*view.Node, error) {
		if n, ok := nodes[name]; ok {
			return n, nil
		}
		sp := s.spViews[name]
		if sp == nil {
			return nil, fmt.Errorf("sqlish: unknown SP view %s in join view %s", name, st.Name)
		}
		n := &view.Node{SP: sp}
		nodes[name] = n
		return n, nil
	}
	if _, err := getNode(st.Root); err != nil {
		return "", err
	}
	for _, e := range st.Edges {
		owner, err := getNode(e.View)
		if err != nil {
			return "", err
		}
		target, err := getNode(e.Target)
		if err != nil {
			return "", err
		}
		owner.Refs = append(owner.Refs, view.Ref{Attrs: e.Attrs, Target: target})
	}
	jv, err := view.NewJoin(st.Name, s.sch, nodes[st.Root])
	if err != nil {
		return "", err
	}
	if len(jv.Nodes()) != len(nodes) {
		return "", fmt.Errorf("sqlish: join view %s has %d edges but %d nodes reachable from root %s",
			st.Name, len(st.Edges), len(jv.Nodes()), st.Root)
	}
	s.joinViews[st.Name] = jv
	return fmt.Sprintf("join view %s created (%d nodes, key %s)",
		st.Name, len(jv.Nodes()), strings.Join(jv.Schema().Key(), ",")), nil
}

func (s *Session) viewExists(name string) bool {
	_, sp := s.spViews[name]
	_, jv := s.joinViews[name]
	return sp || jv
}

// lookupView returns the named view, or nil.
func (s *Session) lookupView(name string) view.View {
	if v, ok := s.spViews[name]; ok {
		return v
	}
	if v, ok := s.joinViews[name]; ok {
		return v
	}
	return nil
}

// policyFor builds the configured policy chain for a view.
func (s *Session) policyFor(name string) core.Policy {
	if p, ok := s.custom[name]; ok {
		return p
	}
	var p core.Policy = core.Simplest{}
	if order, ok := s.prefer[name]; ok {
		p = core.PreferClasses{Order: order}
	}
	if defs, ok := s.defaults[name]; ok && len(defs) > 0 {
		p = core.WithDefaults{Base: p, Defaults: defs}
	}
	return p
}

// buildRequest converts an Insert/Delete/Update statement on a view
// into a core.Request over the session's current state.
func (s *Session) buildRequest(stmt Stmt) (view.View, core.Request, error) {
	var target string
	var kind update.Kind
	var values []value.Value
	var where, set []EqTerm
	switch st := stmt.(type) {
	case Insert:
		target, kind, values = st.Target, update.Insert, st.Values
	case Delete:
		target, kind, where = st.Target, update.Delete, st.Where
	case Update:
		target, kind, where, set = st.Target, update.Replace, st.Where, st.Sets
	default:
		return nil, core.Request{}, fmt.Errorf("sqlish: not an update statement: %T", stmt)
	}
	v := s.lookupView(target)
	if v == nil {
		return nil, core.Request{}, fmt.Errorf("sqlish: unknown view %s", target)
	}
	req, err := core.BuildRequest(v, s.cur(), kind, values, where, set)
	return v, req, err
}

// execInsert handles both base tables and views.
func (s *Session) execInsert(st Insert) (string, error) {
	if rel := s.sch.Relation(st.Target); rel != nil && !s.viewExists(st.Target) {
		t, err := tuple.New(rel, st.Values...)
		if err != nil {
			return "", err
		}
		if err := s.applyTr(update.NewTranslation(update.NewInsert(t))); err != nil {
			return "", err
		}
		return fmt.Sprintf("inserted %s", t), nil
	}
	return s.applyViewRequest(st)
}

func (s *Session) execDelete(st Delete) (string, error) {
	if rel := s.sch.Relation(st.Target); rel != nil && !s.viewExists(st.Target) {
		t, err := s.uniqueBaseRow(rel, st.Where)
		if err != nil {
			return "", err
		}
		if err := s.applyTr(update.NewTranslation(update.NewDelete(t))); err != nil {
			return "", err
		}
		return fmt.Sprintf("deleted %s", t), nil
	}
	return s.applyViewRequest(st)
}

func (s *Session) execUpdate(st Update) (string, error) {
	if rel := s.sch.Relation(st.Target); rel != nil && !s.viewExists(st.Target) {
		if err := view.CheckEq(rel, st.Sets); err != nil {
			return "", err
		}
		old, err := s.uniqueBaseRow(rel, st.Where)
		if err != nil {
			return "", err
		}
		newT := old
		for _, set := range st.Sets {
			newT, err = newT.With(set.Attr, set.Val)
			if err != nil {
				return "", err
			}
		}
		if err := s.applyTr(update.NewTranslation(update.NewReplace(old, newT))); err != nil {
			return "", err
		}
		return fmt.Sprintf("replaced %s -> %s", old, newT), nil
	}
	return s.applyViewRequest(st)
}

// uniqueBaseRow finds the single base tuple matching the conjunction.
func (s *Session) uniqueBaseRow(rel *schema.Relation, where []EqTerm) (tuple.T, error) {
	if len(where) == 0 {
		return tuple.T{}, fmt.Errorf("sqlish: WHERE clause required")
	}
	matches, err := view.SelectBase(rel, s.cur(), where)
	if err != nil {
		return tuple.T{}, err
	}
	switch len(matches) {
	case 0:
		return tuple.T{}, fmt.Errorf("sqlish: no tuple of %s matches", rel.Name())
	case 1:
		return matches[0], nil
	default:
		return tuple.T{}, fmt.Errorf("sqlish: %d tuples of %s match; refine the WHERE clause", len(matches), rel.Name())
	}
}

// applyViewRequest translates and applies an Insert/Delete/Update on a
// view, reporting any view side effects (join views may change rows
// beyond the request).
func (s *Session) applyViewRequest(stmt Stmt) (string, error) {
	v, req, err := s.buildRequest(stmt)
	if err != nil {
		return "", err
	}
	tr := core.NewTranslator(v, s.policyFor(v.Name()))
	var cand core.Candidate
	var explainText string
	if s.explain {
		var trace *core.Trace
		cand, trace, err = tr.TranslateTraced(s.cur(), req)
		if trace != nil {
			explainText = report.RenderTrace(trace)
		}
	} else {
		cand, err = tr.Translate(s.cur(), req)
	}
	if err != nil {
		if explainText != "" {
			return explainText, err
		}
		return "", err
	}
	eff, err := core.SideEffects(s.cur(), v, req, cand.Translation)
	if err != nil {
		return "", err
	}
	if err := s.applyTr(cand.Translation); err != nil {
		return "", fmt.Errorf("sqlish: applying %s: %w", cand.Translation, err)
	}
	out := fmt.Sprintf("translated by %s\n%s", cand.Class, renderOps(cand.Translation))
	if explainText != "" {
		out = explainText + "\n" + out
	}
	if !eff.None() {
		out += fmt.Sprintf("\nwarning: %s", eff)
	}
	return out, nil
}

func renderOps(tr *update.Translation) string {
	var b strings.Builder
	for _, op := range tr.Ops() {
		fmt.Fprintf(&b, "  %s\n", op)
	}
	return strings.TrimRight(b.String(), "\n")
}

func (s *Session) execSelect(st Select) (string, error) {
	var rows []tuple.T
	var header []string
	var err error
	if v := s.lookupView(st.Target); v != nil {
		header = v.Schema().AttributeNames()
		rows, err = view.Select(v, s.cur(), st.Where)
	} else if rel := s.sch.Relation(st.Target); rel != nil {
		header = rel.AttributeNames()
		rows, err = view.SelectBase(rel, s.cur(), st.Where)
	} else {
		return "", fmt.Errorf("sqlish: unknown table or view %s", st.Target)
	}
	if err != nil {
		return "", err
	}
	cols := st.Cols
	if cols == nil {
		cols = header
	} else {
		have := map[string]bool{}
		for _, h := range header {
			have[h] = true
		}
		for _, c := range cols {
			if !have[c] {
				return "", fmt.Errorf("sqlish: %s has no column %s", st.Target, c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", strings.Join(cols, " | "))
	for _, row := range rows {
		cells := make([]string, len(cols))
		for i, c := range cols {
			cells[i] = row.MustGet(c).String()
		}
		fmt.Fprintf(&b, "%s\n", strings.Join(cells, " | "))
	}
	fmt.Fprintf(&b, "(%d rows)", len(rows))
	return b.String(), nil
}

func (s *Session) execShow(st Show) (string, error) {
	var b strings.Builder
	switch st.What {
	case "tables":
		for _, name := range s.sch.RelationNames() {
			fmt.Fprintf(&b, "%s  (%d tuples)\n", s.sch.Relation(name), s.cur().Len(name))
		}
		for _, d := range s.sch.Inclusions() {
			fmt.Fprintf(&b, "%s\n", d)
		}
	case "views":
		var names []string
		for n := range s.spViews {
			names = append(names, n)
		}
		for n := range s.joinViews {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if sp, ok := s.spViews[n]; ok {
				fmt.Fprintf(&b, "%s: SELECT %s FROM %s WHERE %s\n",
					n, strings.Join(sp.Projection().Attributes(), ", "), sp.Base().Name(), sp.Selection())
			} else {
				jv := s.joinViews[n]
				var parts []string
				for _, node := range jv.Nodes() {
					parts = append(parts, node.SP.Name())
				}
				fmt.Fprintf(&b, "%s: JOIN of %s (root %s)\n", n, strings.Join(parts, " ⋈ "), jv.Nodes()[0].SP.Name())
			}
		}
	case "policies":
		var names []string
		for n := range s.prefer {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "%s prefers %s\n", n, strings.Join(s.prefer[n], " > "))
		}
		names = names[:0]
		for n := range s.defaults {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			var attrs []string
			for a := range s.defaults[n] {
				attrs = append(attrs, a)
			}
			sort.Strings(attrs)
			for _, a := range attrs {
				fmt.Fprintf(&b, "%s.%s defaults to %s\n", n, a, s.defaults[n][a])
			}
		}
	default:
		return "", fmt.Errorf("sqlish: unknown SHOW target %q", st.What)
	}
	out := strings.TrimRight(b.String(), "\n")
	if out == "" {
		out = "(none)"
	}
	return out, nil
}

func (s *Session) execShowCandidates(st ShowCandidates) (string, error) {
	v, req, err := s.buildRequest(st.Inner)
	if err != nil {
		return "", err
	}
	cands, err := core.Enumerate(s.cur(), v, req)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d candidate translation(s) for %s:\n", len(cands), req)
	for i, c := range cands {
		fmt.Fprintf(&b, "%3d. %s\n", i+1, c)
	}
	return strings.TrimRight(b.String(), "\n"), nil
}

// execShowEffects translates under the view's policy and reports the
// chosen translation plus its view side effects, without applying.
func (s *Session) execShowEffects(st ShowEffects) (string, error) {
	v, req, err := s.buildRequest(st.Inner)
	if err != nil {
		return "", err
	}
	tr := core.NewTranslator(v, s.policyFor(v.Name()))
	cand, err := tr.Translate(s.cur(), req)
	if err != nil {
		return "", err
	}
	eff, err := core.SideEffects(s.cur(), v, req, cand.Translation)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "would translate by %s\n%s\n%s", cand.Class, renderOps(cand.Translation), eff)
	if !eff.None() {
		for _, row := range eff.ExtraRemoved.Slice() {
			fmt.Fprintf(&b, "\n  - %s", row)
		}
		for _, row := range eff.ExtraAdded.Slice() {
			fmt.Fprintf(&b, "\n  + %s", row)
		}
	}
	return b.String(), nil
}

func (s *Session) execSetPolicy(st SetPolicy) (string, error) {
	if s.lookupView(st.Target) == nil {
		return "", fmt.Errorf("sqlish: unknown view %s", st.Target)
	}
	s.prefer[st.Target] = st.Prefer
	return fmt.Sprintf("policy on %s: prefer %s", st.Target, strings.Join(st.Prefer, " > ")), nil
}

func (s *Session) execSetDefault(st SetDefault) (string, error) {
	if s.lookupView(st.Target) == nil {
		return "", fmt.Errorf("sqlish: unknown view %s", st.Target)
	}
	if s.defaults[st.Target] == nil {
		s.defaults[st.Target] = map[string]value.Value{}
	}
	s.defaults[st.Target][st.Attr] = st.Val
	return fmt.Sprintf("default %s.%s = %s", st.Target, st.Attr, st.Val), nil
}
