package sqlish

import (
	"fmt"
	"strconv"
	"strings"

	"viewupdate/internal/value"
)

// Parse parses one statement (an optional trailing semicolon is
// consumed). Multi-statement scripts go through ParseScript.
func Parse(input string) (Stmt, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	c := &cursor{toks: toks}
	s, err := parseStmt(c)
	if err != nil {
		return nil, err
	}
	c.acceptPunct(";")
	if c.peek().kind != tokEOF {
		return nil, fmt.Errorf("sqlish: trailing input at %s", c.peek())
	}
	return s, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(input string) ([]Stmt, error) {
	parts, err := parseScriptParts(input)
	if err != nil {
		return nil, err
	}
	out := make([]Stmt, len(parts))
	for i, p := range parts {
		out[i] = p.Stmt
	}
	return out, nil
}

// scriptPart pairs a parsed statement with its source text (used by the
// session journal).
type scriptPart struct {
	Stmt Stmt
	Text string
}

func parseScriptParts(input string) ([]scriptPart, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	c := &cursor{toks: toks}
	var out []scriptPart
	for c.peek().kind != tokEOF {
		start := c.peek().pos
		s, err := parseStmt(c)
		if err != nil {
			return nil, err
		}
		end := c.peek().pos
		out = append(out, scriptPart{Stmt: s, Text: strings.TrimSpace(input[start:end])})
		if !c.acceptPunct(";") && c.peek().kind != tokEOF {
			return nil, fmt.Errorf("sqlish: expected ';' between statements, got %s", c.peek())
		}
	}
	return out, nil
}

func parseStmt(c *cursor) (Stmt, error) {
	switch {
	case c.isKeyword("create"):
		return parseCreate(c)
	case c.isKeyword("insert"):
		return parseInsert(c)
	case c.isKeyword("delete"):
		return parseDelete(c)
	case c.isKeyword("update"):
		return parseUpdate(c)
	case c.isKeyword("select"):
		return parseSelect(c)
	case c.isKeyword("show"):
		return parseShow(c)
	case c.isKeyword("set"):
		return parseSet(c)
	case c.isKeyword("begin"):
		c.next()
		c.acceptKeyword("transaction")
		return Begin{}, nil
	case c.isKeyword("commit"):
		c.next()
		return Commit{}, nil
	case c.isKeyword("rollback"):
		c.next()
		return Rollback{}, nil
	case c.isKeyword("save"):
		c.next()
		if err := c.expectKeyword("to"); err != nil {
			return nil, err
		}
		path, err := parseStringLit(c)
		if err != nil {
			return nil, err
		}
		return Save{Path: path}, nil
	case c.isKeyword("load"):
		c.next()
		if err := c.expectKeyword("from"); err != nil {
			return nil, err
		}
		path, err := parseStringLit(c)
		if err != nil {
			return nil, err
		}
		return Load{Path: path}, nil
	default:
		return nil, fmt.Errorf("sqlish: unknown statement start %s", c.peek())
	}
}

// parseStringLit consumes a string literal.
func parseStringLit(c *cursor) (string, error) {
	t := c.peek()
	if t.kind != tokString {
		return "", fmt.Errorf("sqlish: expected a quoted path, got %s", t)
	}
	c.next()
	return t.text, nil
}

func parseCreate(c *cursor) (Stmt, error) {
	c.next() // CREATE
	switch {
	case c.acceptKeyword("domain"):
		return parseCreateDomain(c)
	case c.acceptKeyword("table"):
		return parseCreateTable(c)
	case c.acceptKeyword("join"):
		if err := c.expectKeyword("view"); err != nil {
			return nil, err
		}
		return parseCreateJoinView(c)
	case c.acceptKeyword("view"):
		return parseCreateView(c)
	case c.acceptKeyword("index"):
		if err := c.expectKeyword("on"); err != nil {
			return nil, err
		}
		table, err := c.expectIdent("table name")
		if err != nil {
			return nil, err
		}
		attrs, err := parseIdentList(c)
		if err != nil {
			return nil, err
		}
		if len(attrs) != 1 {
			return nil, fmt.Errorf("sqlish: CREATE INDEX takes exactly one attribute")
		}
		return CreateIndex{Table: table, Attr: attrs[0]}, nil
	default:
		return nil, fmt.Errorf("sqlish: CREATE must be followed by DOMAIN, TABLE, VIEW, JOIN VIEW or INDEX, got %s", c.peek())
	}
}

func parseCreateDomain(c *cursor) (Stmt, error) {
	name, err := c.expectIdent("domain name")
	if err != nil {
		return nil, err
	}
	if err := c.expectKeyword("as"); err != nil {
		return nil, err
	}
	out := CreateDomain{Name: name}
	switch {
	case c.acceptKeyword("string"):
		out.Kind = "string"
		vals, err := parseValueList(c)
		if err != nil {
			return nil, err
		}
		out.Values = vals
	case c.acceptKeyword("int"):
		out.Kind = "int"
		if c.acceptKeyword("range") {
			out.IsRange = true
			lo, err := parseIntLit(c)
			if err != nil {
				return nil, err
			}
			if err := c.expectKeyword("to"); err != nil {
				return nil, err
			}
			hi, err := parseIntLit(c)
			if err != nil {
				return nil, err
			}
			out.Lo, out.Hi = lo, hi
		} else {
			vals, err := parseValueList(c)
			if err != nil {
				return nil, err
			}
			out.Values = vals
		}
	case c.acceptKeyword("bool"):
		out.Kind = "bool"
	default:
		return nil, fmt.Errorf("sqlish: domain kind must be STRING, INT or BOOL, got %s", c.peek())
	}
	return out, nil
}

func parseIntLit(c *cursor) (int64, error) {
	t := c.peek()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("sqlish: expected integer, got %s", t)
	}
	c.next()
	return strconv.ParseInt(t.text, 10, 64)
}

// parseValueList parses "( literal [, literal]* )".
func parseValueList(c *cursor) ([]value.Value, error) {
	if err := c.expectPunct("("); err != nil {
		return nil, err
	}
	var out []value.Value
	for {
		v, err := parseLiteral(c)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		if c.acceptPunct(",") {
			continue
		}
		if err := c.expectPunct(")"); err != nil {
			return nil, err
		}
		return out, nil
	}
}

// parseLiteral parses a number, string or TRUE/FALSE.
func parseLiteral(c *cursor) (value.Value, error) {
	t := c.peek()
	switch {
	case t.kind == tokNumber:
		c.next()
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return value.Value{}, fmt.Errorf("sqlish: bad number %q", t.text)
		}
		return value.NewInt(i), nil
	case t.kind == tokString:
		c.next()
		return value.NewString(t.text), nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "true"):
		c.next()
		return value.NewBool(true), nil
	case t.kind == tokIdent && strings.EqualFold(t.text, "false"):
		c.next()
		return value.NewBool(false), nil
	default:
		return value.Value{}, fmt.Errorf("sqlish: expected a literal, got %s", t)
	}
}

func parseCreateTable(c *cursor) (Stmt, error) {
	name, err := c.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := c.expectPunct("("); err != nil {
		return nil, err
	}
	out := CreateTable{Name: name}
	for {
		switch {
		case c.acceptKeyword("primary"):
			if err := c.expectKeyword("key"); err != nil {
				return nil, err
			}
			attrs, err := parseIdentList(c)
			if err != nil {
				return nil, err
			}
			if out.Key != nil {
				return nil, fmt.Errorf("sqlish: duplicate PRIMARY KEY in %s", name)
			}
			out.Key = attrs
		case c.acceptKeyword("foreign"):
			if err := c.expectKeyword("key"); err != nil {
				return nil, err
			}
			attrs, err := parseIdentList(c)
			if err != nil {
				return nil, err
			}
			if err := c.expectKeyword("references"); err != nil {
				return nil, err
			}
			parent, err := c.expectIdent("referenced table")
			if err != nil {
				return nil, err
			}
			out.ForeignKeys = append(out.ForeignKeys, FKDef{Attrs: attrs, Parent: parent})
		default:
			col, err := c.expectIdent("column name")
			if err != nil {
				return nil, err
			}
			dom, err := c.expectIdent("domain name")
			if err != nil {
				return nil, err
			}
			out.Cols = append(out.Cols, ColDef{Name: col, Domain: dom})
		}
		if c.acceptPunct(",") {
			continue
		}
		if err := c.expectPunct(")"); err != nil {
			return nil, err
		}
		break
	}
	if out.Key == nil {
		return nil, fmt.Errorf("sqlish: table %s needs a PRIMARY KEY", name)
	}
	return out, nil
}

// parseIdentList parses "( ident [, ident]* )".
func parseIdentList(c *cursor) ([]string, error) {
	if err := c.expectPunct("("); err != nil {
		return nil, err
	}
	var out []string
	for {
		id, err := c.expectIdent("identifier")
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if c.acceptPunct(",") {
			continue
		}
		if err := c.expectPunct(")"); err != nil {
			return nil, err
		}
		return out, nil
	}
}

func parseCreateView(c *cursor) (Stmt, error) {
	name, err := c.expectIdent("view name")
	if err != nil {
		return nil, err
	}
	if err := c.expectKeyword("as"); err != nil {
		return nil, err
	}
	if err := c.expectKeyword("select"); err != nil {
		return nil, err
	}
	out := CreateView{Name: name}
	if !c.acceptPunct("*") {
		for {
			col, err := c.expectIdent("column name")
			if err != nil {
				return nil, err
			}
			out.Cols = append(out.Cols, col)
			if !c.acceptPunct(",") {
				break
			}
		}
	}
	if err := c.expectKeyword("from"); err != nil {
		return nil, err
	}
	table, err := c.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	out.Table = table
	if c.acceptKeyword("where") {
		terms, err := parseWhereTerms(c)
		if err != nil {
			return nil, err
		}
		out.Where = terms
	}
	return out, nil
}

// parseWhereTerms parses "attr IN (v, ...)" or "attr = v", conjoined
// with AND.
func parseWhereTerms(c *cursor) ([]WhereTerm, error) {
	var out []WhereTerm
	for {
		attr, err := c.expectIdent("attribute")
		if err != nil {
			return nil, err
		}
		var vals []value.Value
		switch {
		case c.acceptKeyword("in"):
			vals, err = parseValueList(c)
			if err != nil {
				return nil, err
			}
		case c.acceptPunct("="):
			v, err := parseLiteral(c)
			if err != nil {
				return nil, err
			}
			vals = []value.Value{v}
		default:
			return nil, fmt.Errorf("sqlish: expected IN or = after %s, got %s", attr, c.peek())
		}
		out = append(out, WhereTerm{Attr: attr, Values: vals})
		if !c.acceptKeyword("and") {
			return out, nil
		}
	}
}

func parseCreateJoinView(c *cursor) (Stmt, error) {
	name, err := c.expectIdent("join view name")
	if err != nil {
		return nil, err
	}
	if err := c.expectKeyword("root"); err != nil {
		return nil, err
	}
	root, err := c.expectIdent("root view name")
	if err != nil {
		return nil, err
	}
	out := CreateJoinView{Name: name, Root: root}
	if c.acceptKeyword("with") {
		for {
			owner, err := c.expectIdent("view name")
			if err != nil {
				return nil, err
			}
			attrs, err := parseIdentList(c)
			if err != nil {
				return nil, err
			}
			if err := c.expectKeyword("references"); err != nil {
				return nil, err
			}
			target, err := c.expectIdent("referenced view")
			if err != nil {
				return nil, err
			}
			out.Edges = append(out.Edges, JoinEdgeDef{View: owner, Attrs: attrs, Target: target})
			if !c.acceptPunct(",") {
				break
			}
		}
	}
	return out, nil
}

func parseInsert(c *cursor) (Stmt, error) {
	c.next() // INSERT
	if err := c.expectKeyword("into"); err != nil {
		return nil, err
	}
	target, err := c.expectIdent("target name")
	if err != nil {
		return nil, err
	}
	if err := c.expectKeyword("values"); err != nil {
		return nil, err
	}
	vals, err := parseValueList(c)
	if err != nil {
		return nil, err
	}
	return Insert{Target: target, Values: vals}, nil
}

// parseEqTerms parses "attr = literal [AND ...]".
func parseEqTerms(c *cursor) ([]EqTerm, error) {
	var out []EqTerm
	for {
		attr, err := c.expectIdent("attribute")
		if err != nil {
			return nil, err
		}
		if err := c.expectPunct("="); err != nil {
			return nil, err
		}
		v, err := parseLiteral(c)
		if err != nil {
			return nil, err
		}
		out = append(out, EqTerm{Attr: attr, Val: v})
		if !c.acceptKeyword("and") {
			return out, nil
		}
	}
}

func parseDelete(c *cursor) (Stmt, error) {
	c.next() // DELETE
	if err := c.expectKeyword("from"); err != nil {
		return nil, err
	}
	target, err := c.expectIdent("target name")
	if err != nil {
		return nil, err
	}
	if err := c.expectKeyword("where"); err != nil {
		return nil, err
	}
	where, err := parseEqTerms(c)
	if err != nil {
		return nil, err
	}
	return Delete{Target: target, Where: where}, nil
}

func parseUpdate(c *cursor) (Stmt, error) {
	c.next() // UPDATE
	target, err := c.expectIdent("target name")
	if err != nil {
		return nil, err
	}
	if err := c.expectKeyword("set"); err != nil {
		return nil, err
	}
	var sets []EqTerm
	for {
		attr, err := c.expectIdent("attribute")
		if err != nil {
			return nil, err
		}
		if err := c.expectPunct("="); err != nil {
			return nil, err
		}
		v, err := parseLiteral(c)
		if err != nil {
			return nil, err
		}
		sets = append(sets, EqTerm{Attr: attr, Val: v})
		if !c.acceptPunct(",") {
			break
		}
	}
	if err := c.expectKeyword("where"); err != nil {
		return nil, err
	}
	where, err := parseEqTerms(c)
	if err != nil {
		return nil, err
	}
	return Update{Target: target, Sets: sets, Where: where}, nil
}

func parseSelect(c *cursor) (Stmt, error) {
	c.next() // SELECT
	var cols []string
	if !c.acceptPunct("*") {
		for {
			col, err := c.expectIdent("column name")
			if err != nil {
				return nil, err
			}
			cols = append(cols, col)
			if !c.acceptPunct(",") {
				break
			}
		}
	}
	if err := c.expectKeyword("from"); err != nil {
		return nil, err
	}
	target, err := c.expectIdent("target name")
	if err != nil {
		return nil, err
	}
	out := Select{Target: target, Cols: cols}
	if c.acceptKeyword("where") {
		where, err := parseEqTerms(c)
		if err != nil {
			return nil, err
		}
		out.Where = where
	}
	return out, nil
}

func parseShow(c *cursor) (Stmt, error) {
	c.next() // SHOW
	switch {
	case c.acceptKeyword("tables"):
		return Show{What: "tables"}, nil
	case c.acceptKeyword("views"):
		return Show{What: "views"}, nil
	case c.acceptKeyword("policies"):
		return Show{What: "policies"}, nil
	case c.isKeyword("candidates"), c.isKeyword("effects"):
		effects := c.isKeyword("effects")
		c.next()
		if err := c.expectKeyword("for"); err != nil {
			return nil, err
		}
		// Checked before descending, so hostile input cannot nest SHOWs.
		if !c.isKeyword("insert") && !c.isKeyword("delete") && !c.isKeyword("update") {
			return nil, fmt.Errorf("sqlish: SHOW CANDIDATES|EFFECTS FOR takes INSERT, DELETE or UPDATE, got %s", c.peek())
		}
		inner, err := parseStmt(c)
		if err != nil {
			return nil, err
		}
		if effects {
			return ShowEffects{Inner: inner}, nil
		}
		return ShowCandidates{Inner: inner}, nil
	default:
		return nil, fmt.Errorf("sqlish: SHOW must be followed by TABLES, VIEWS, POLICIES, CANDIDATES or EFFECTS, got %s", c.peek())
	}
}

func parseSet(c *cursor) (Stmt, error) {
	c.next() // SET
	switch {
	case c.acceptKeyword("policy"):
		target, err := c.expectIdent("view name")
		if err != nil {
			return nil, err
		}
		if err := c.expectKeyword("prefer"); err != nil {
			return nil, err
		}
		var prefer []string
		for {
			t := c.peek()
			if t.kind != tokString {
				return nil, fmt.Errorf("sqlish: class names are string literals like 'D-1', got %s", t)
			}
			c.next()
			prefer = append(prefer, t.text)
			if !c.acceptPunct(",") {
				break
			}
		}
		return SetPolicy{Target: target, Prefer: prefer}, nil
	case c.acceptKeyword("default"):
		target, err := c.expectIdent("view name")
		if err != nil {
			return nil, err
		}
		if err := c.expectPunct("."); err != nil {
			return nil, err
		}
		attr, err := c.expectIdent("attribute")
		if err != nil {
			return nil, err
		}
		if err := c.expectPunct("="); err != nil {
			return nil, err
		}
		v, err := parseLiteral(c)
		if err != nil {
			return nil, err
		}
		return SetDefault{Target: target, Attr: attr, Val: v}, nil
	default:
		return nil, fmt.Errorf("sqlish: SET must be followed by POLICY or DEFAULT, got %s", c.peek())
	}
}
