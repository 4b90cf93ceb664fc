package sqlish

import (
	"errors"
	"strings"
	"testing"

	"viewupdate/internal/value"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("CREATE TABLE T (A B, -- comment\n 'str''ing' 42 -7 );")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.kind)
		texts = append(texts, tok.text)
	}
	want := []string{"CREATE", "TABLE", "T", "(", "A", "B", ",", "str'ing", "42", "-7", ")", ";", ""}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[7] != tokString || kinds[8] != tokNumber {
		t.Fatalf("kinds wrong: %v", kinds)
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{"'unterminated", "@", "- x"} {
		if _, err := lex(bad); err == nil {
			t.Errorf("lex(%q) should fail", bad)
		}
	}
}

func TestParseCreateDomain(t *testing.T) {
	s, err := Parse("CREATE DOMAIN D AS STRING ('a', 'b');")
	if err != nil {
		t.Fatal(err)
	}
	d := s.(CreateDomain)
	if d.Name != "D" || d.Kind != "string" || len(d.Values) != 2 {
		t.Fatalf("parsed %+v", d)
	}
	s, err = Parse("create domain N as int range 1 to 10")
	if err != nil {
		t.Fatal(err)
	}
	n := s.(CreateDomain)
	if !n.IsRange || n.Lo != 1 || n.Hi != 10 {
		t.Fatalf("parsed %+v", n)
	}
	s, err = Parse("CREATE DOMAIN B AS BOOL")
	if err != nil {
		t.Fatal(err)
	}
	if s.(CreateDomain).Kind != "bool" {
		t.Fatal("bool kind")
	}
	s, err = Parse("CREATE DOMAIN M AS INT (1, 2, 3)")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.(CreateDomain); got.IsRange || len(got.Values) != 3 {
		t.Fatalf("parsed %+v", got)
	}
}

func TestParseCreateTable(t *testing.T) {
	s, err := Parse(`CREATE TABLE CXD (C CDom, X ADom, D DDom,
		PRIMARY KEY (C), FOREIGN KEY (X) REFERENCES AB)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := s.(CreateTable)
	if ct.Name != "CXD" || len(ct.Cols) != 3 || len(ct.Key) != 1 || len(ct.ForeignKeys) != 1 {
		t.Fatalf("parsed %+v", ct)
	}
	if ct.ForeignKeys[0].Parent != "AB" || ct.ForeignKeys[0].Attrs[0] != "X" {
		t.Fatalf("fk wrong: %+v", ct.ForeignKeys)
	}
	if _, err := Parse("CREATE TABLE T (A D)"); err == nil {
		t.Fatal("missing primary key should fail")
	}
}

func TestParseCreateView(t *testing.T) {
	s, err := Parse(`CREATE VIEW V AS SELECT EmpNo, Name FROM EMP
		WHERE Location IN ('NY', 'SF') AND Baseball = true`)
	if err != nil {
		t.Fatal(err)
	}
	cv := s.(CreateView)
	if cv.Name != "V" || cv.Table != "EMP" || len(cv.Cols) != 2 || len(cv.Where) != 2 {
		t.Fatalf("parsed %+v", cv)
	}
	if len(cv.Where[0].Values) != 2 || cv.Where[1].Values[0] != value.NewBool(true) {
		t.Fatalf("where wrong: %+v", cv.Where)
	}
	s, err = Parse("CREATE VIEW W AS SELECT * FROM EMP")
	if err != nil {
		t.Fatal(err)
	}
	if s.(CreateView).Cols != nil {
		t.Fatal("* should give nil cols")
	}
}

func TestParseCreateJoinView(t *testing.T) {
	s, err := Parse("CREATE JOIN VIEW J ROOT CXDV WITH CXDV (X) REFERENCES ABV")
	if err != nil {
		t.Fatal(err)
	}
	jv := s.(CreateJoinView)
	if jv.Name != "J" || jv.Root != "CXDV" || len(jv.Edges) != 1 {
		t.Fatalf("parsed %+v", jv)
	}
}

func TestParseDML(t *testing.T) {
	s, err := Parse("INSERT INTO V VALUES (1, 'Ada', true)")
	if err != nil {
		t.Fatal(err)
	}
	ins := s.(Insert)
	if ins.Target != "V" || len(ins.Values) != 3 {
		t.Fatalf("parsed %+v", ins)
	}
	s, err = Parse("DELETE FROM V WHERE EmpNo = 1 AND Name = 'Ada'")
	if err != nil {
		t.Fatal(err)
	}
	del := s.(Delete)
	if del.Target != "V" || len(del.Where) != 2 {
		t.Fatalf("parsed %+v", del)
	}
	s, err = Parse("UPDATE V SET Name = 'Ben', Loc = 'NY' WHERE EmpNo = 1")
	if err != nil {
		t.Fatal(err)
	}
	up := s.(Update)
	if up.Target != "V" || len(up.Sets) != 2 || len(up.Where) != 1 {
		t.Fatalf("parsed %+v", up)
	}
	s, err = Parse("SELECT * FROM V WHERE A = 1")
	if err != nil {
		t.Fatal(err)
	}
	sel := s.(Select)
	if sel.Target != "V" || len(sel.Where) != 1 {
		t.Fatalf("parsed %+v", sel)
	}
}

func TestParseAdmin(t *testing.T) {
	s, err := Parse("SHOW CANDIDATES FOR DELETE FROM V WHERE K = 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(ShowCandidates).Inner.(Delete); !ok {
		t.Fatalf("parsed %+v", s)
	}
	if _, err := Parse("SHOW CANDIDATES FOR SELECT * FROM V"); err == nil {
		t.Fatal("candidates for select should fail")
	}
	s, err = Parse("SET POLICY V PREFER 'D-1', 'D-2'")
	if err != nil {
		t.Fatal(err)
	}
	sp := s.(SetPolicy)
	if sp.Target != "V" || len(sp.Prefer) != 2 || sp.Prefer[0] != "D-1" {
		t.Fatalf("parsed %+v", sp)
	}
	s, err = Parse("SET DEFAULT V.Status = 'active'")
	if err != nil {
		t.Fatal(err)
	}
	sd := s.(SetDefault)
	if sd.Target != "V" || sd.Attr != "Status" || sd.Val != value.NewString("active") {
		t.Fatalf("parsed %+v", sd)
	}
	for _, what := range []string{"TABLES", "VIEWS", "POLICIES"} {
		if _, err := Parse("SHOW " + what); err != nil {
			t.Fatalf("SHOW %s: %v", what, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FOO BAR",
		"CREATE NONSENSE X",
		"INSERT INTO V (1)",
		"DELETE FROM V",
		"UPDATE V SET WHERE A = 1",
		"SELECT FROM V",
		"SET POLICY V PREFER D-1", // class must be quoted
		"INSERT INTO V VALUES (1) extra",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE DOMAIN D AS BOOL;
		-- a comment
		SHOW TABLES;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("want 2 statements, got %d", len(stmts))
	}
	if _, err := ParseScript("SHOW TABLES SHOW VIEWS"); err == nil {
		t.Fatal("missing semicolon should fail")
	}
}

// empScript builds the paper's EMP scenario through the SQL surface.
const empScript = `
CREATE DOMAIN EmpNoDom AS INT RANGE 1 TO 20;
CREATE DOMAIN NameDom AS STRING ('Susan', 'Frank', 'Alice', 'Bob', 'Carol');
CREATE DOMAIN LocDom AS STRING ('New York', 'San Francisco');
CREATE DOMAIN TeamDom AS BOOL;
CREATE TABLE EMP (EmpNo EmpNoDom, Name NameDom, Location LocDom, Baseball TeamDom,
                  PRIMARY KEY (EmpNo));
INSERT INTO EMP VALUES (17, 'Susan', 'New York', true);
INSERT INTO EMP VALUES (14, 'Frank', 'San Francisco', true);
INSERT INTO EMP VALUES (3, 'Alice', 'New York', false);
CREATE VIEW ViewP AS SELECT * FROM EMP WHERE Location = 'New York';
CREATE VIEW ViewB AS SELECT * FROM EMP WHERE Baseball = true;
SET POLICY ViewP PREFER 'D-1';
SET POLICY ViewB PREFER 'D-2';
`

func TestSessionEmpScenario(t *testing.T) {
	s := NewSession()
	if _, err := s.ExecScript(empScript); err != nil {
		t.Fatal(err)
	}

	out, err := s.ExecLine("SELECT * FROM ViewP")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(2 rows)") {
		t.Fatalf("ViewP should have 2 rows:\n%s", out)
	}

	// Candidates before deciding.
	out, err = s.ExecLine("SHOW CANDIDATES FOR DELETE FROM ViewP WHERE EmpNo = 17")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "D-1") || !strings.Contains(out, "D-2") {
		t.Fatalf("candidates missing classes:\n%s", out)
	}

	// Susan's deletion really deletes.
	out, err = s.ExecLine("DELETE FROM ViewP WHERE EmpNo = 17")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "D-1") || !strings.Contains(out, "DELETE") {
		t.Fatalf("Susan's delete wrong:\n%s", out)
	}
	out, err = s.ExecLine("SELECT * FROM EMP WHERE EmpNo = 17")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(0 rows)") {
		t.Fatalf("employee 17 should be gone:\n%s", out)
	}

	// Frank's deletion flips the attribute.
	out, err = s.ExecLine("DELETE FROM ViewB WHERE EmpNo = 14")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "D-2") || !strings.Contains(out, "REPLACE") {
		t.Fatalf("Frank's delete wrong:\n%s", out)
	}
	out, err = s.ExecLine("SELECT * FROM EMP WHERE EmpNo = 14")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "false") || !strings.Contains(out, "(1 rows)") {
		t.Fatalf("employee 14 should remain off the team:\n%s", out)
	}

	// View update through UPDATE.
	out, err = s.ExecLine("UPDATE ViewP SET Name = 'Carol' WHERE EmpNo = 3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "R-1") {
		t.Fatalf("same-key update should be R-1:\n%s", out)
	}
}

func TestSessionJoinView(t *testing.T) {
	s := NewSession()
	script := `
CREATE DOMAIN ADom AS STRING ('a', 'a1', 'a2');
CREATE DOMAIN BDom AS INT RANGE 1 TO 9;
CREATE DOMAIN CDom AS STRING ('c1', 'c2', 'c3');
CREATE DOMAIN DDom AS INT RANGE 1 TO 9;
CREATE TABLE AB (A ADom, B BDom, PRIMARY KEY (A));
CREATE TABLE CXD (C CDom, X ADom, D DDom, PRIMARY KEY (C),
                  FOREIGN KEY (X) REFERENCES AB);
INSERT INTO AB VALUES ('a', 1);
INSERT INTO CXD VALUES ('c1', 'a', 3);
CREATE VIEW ABV AS SELECT * FROM AB;
CREATE VIEW CXDV AS SELECT * FROM CXD;
CREATE JOIN VIEW J ROOT CXDV WITH CXDV (X) REFERENCES ABV;
`
	if _, err := s.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	out, err := s.ExecLine("SELECT * FROM J")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(1 rows)") {
		t.Fatalf("join view should have 1 row:\n%s", out)
	}
	// Insert a join row referencing a new parent: SPJ-I inserts both.
	out, err = s.ExecLine("INSERT INTO J VALUES ('c2', 'a1', 4, 'a1', 2)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SPJ-I") {
		t.Fatalf("join insert should use SPJ-I:\n%s", out)
	}
	out, err = s.ExecLine("SELECT * FROM AB")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(2 rows)") {
		t.Fatalf("parent should have been inserted:\n%s", out)
	}
	// Dangling base insert still refused by the storage layer.
	if _, err := s.ExecLine("INSERT INTO CXD VALUES ('c3', 'a2', 5)"); err == nil {
		t.Fatal("dangling foreign key should fail")
	}
	// Join-view delete touches only the root.
	out, err = s.ExecLine("DELETE FROM J WHERE C = 'c2'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SPJ-D") {
		t.Fatalf("join delete should use SPJ-D:\n%s", out)
	}
	out, err = s.ExecLine("SELECT * FROM AB")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(2 rows)") {
		t.Fatalf("SPJ-D must not touch parents:\n%s", out)
	}
}

func TestSessionDefaultsAndShow(t *testing.T) {
	s := NewSession()
	script := `
CREATE DOMAIN IdDom AS INT RANGE 1 TO 9;
CREATE DOMAIN StDom AS STRING ('active', 'archived');
CREATE TABLE STAFF (Id IdDom, Status StDom, PRIMARY KEY (Id));
CREATE VIEW Pub AS SELECT Id FROM STAFF WHERE Status IN ('active', 'archived');
SET DEFAULT Pub.Status = 'archived';
`
	if _, err := s.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	out, err := s.ExecLine("INSERT INTO Pub VALUES (1)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "'archived'") {
		t.Fatalf("default should pick archived:\n%s", out)
	}
	out, err = s.ExecLine("SHOW POLICIES")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Pub.Status") {
		t.Fatalf("SHOW POLICIES wrong:\n%s", out)
	}
	out, err = s.ExecLine("SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "STAFF") {
		t.Fatalf("SHOW TABLES wrong:\n%s", out)
	}
	out, err = s.ExecLine("SHOW VIEWS")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Pub") {
		t.Fatalf("SHOW VIEWS wrong:\n%s", out)
	}
}

func TestSessionErrors(t *testing.T) {
	s := NewSession()
	if _, err := s.ExecScript(empScript); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"CREATE DOMAIN LocDom AS BOOL",                       // duplicate domain
		"CREATE TABLE T (A NoSuchDom, PRIMARY KEY (A))",      // unknown domain
		"CREATE VIEW ViewP AS SELECT * FROM EMP",             // duplicate view
		"CREATE VIEW W AS SELECT * FROM NOPE",                // unknown table
		"INSERT INTO NOPE VALUES (1)",                        // unknown target
		"INSERT INTO ViewP VALUES (1)",                       // arity
		"DELETE FROM ViewP WHERE EmpNo = 99",                 // no match
		"DELETE FROM ViewP WHERE Location = 'New York'",      // ambiguous (2 rows)
		"UPDATE ViewP SET Location = 'Mars' WHERE EmpNo = 3", // bad value
		"SET POLICY NOPE PREFER 'D-1'",
		"SET DEFAULT NOPE.A = 1",
	} {
		if _, err := s.ExecLine(bad); err == nil {
			t.Errorf("ExecLine(%q) should fail", bad)
		}
	}
}

// TestExecScriptSkipExisting: re-running a DDL script over a session
// that already defines its objects skips the duplicates instead of
// aborting — the idempotent boot path for a server restart.
func TestExecScriptSkipExisting(t *testing.T) {
	s := NewSession()
	if _, err := s.ExecScript(empScript); err != nil {
		t.Fatal(err)
	}
	ddl := `
CREATE DOMAIN LocDom AS STRING ('New York', 'San Francisco');
CREATE TABLE EXTRA (EmpNo EmpNoDom, PRIMARY KEY (EmpNo));
CREATE VIEW ViewP AS SELECT * FROM EMP WHERE Location = 'New York';
`
	_, skipped, err := s.ExecScriptSkipExisting(ddl)
	if err != nil {
		t.Fatalf("ExecScriptSkipExisting: %v", err)
	}
	if skipped != 2 { // LocDom and ViewP exist; EXTRA is new
		t.Fatalf("skipped = %d, want 2", skipped)
	}
	if s.sch.Relation("EXTRA") == nil {
		t.Fatal("new table EXTRA should have been created")
	}
	// Re-running the whole thing skips everything.
	if _, skipped, err = s.ExecScriptSkipExisting(ddl); err != nil || skipped != 3 {
		t.Fatalf("second run: skipped = %d, err = %v; want 3, nil", skipped, err)
	}
	// Plain ExecScript still hard-fails, with a matchable sentinel.
	_, err = s.ExecScript("CREATE TABLE EXTRA (EmpNo EmpNoDom, PRIMARY KEY (EmpNo));")
	if !errors.Is(err, ErrExists) {
		t.Fatalf("ExecScript duplicate table: err = %v, want ErrExists", err)
	}
	// Other failures are not skipped.
	if _, _, err = s.ExecScriptSkipExisting("CREATE TABLE T (A NoSuchDom, PRIMARY KEY (A));"); err == nil {
		t.Fatal("unknown domain must still fail")
	}
}

// TestSessionSideEffectWarning: join-view updates that change sibling
// rows surface a side-effect warning.
func TestSessionSideEffectWarning(t *testing.T) {
	s := NewSession()
	script := `
CREATE DOMAIN ADom AS STRING ('a', 'a1');
CREATE DOMAIN BDom AS INT RANGE 1 TO 9;
CREATE DOMAIN CDom AS STRING ('c1', 'c2');
CREATE DOMAIN DDom AS INT RANGE 1 TO 9;
CREATE TABLE AB (A ADom, B BDom, PRIMARY KEY (A));
CREATE TABLE CXD (C CDom, X ADom, D DDom, PRIMARY KEY (C),
                  FOREIGN KEY (X) REFERENCES AB);
INSERT INTO AB VALUES ('a', 1);
INSERT INTO CXD VALUES ('c1', 'a', 3);
CREATE VIEW ABV AS SELECT * FROM AB;
CREATE VIEW CXDV AS SELECT * FROM CXD;
CREATE JOIN VIEW J ROOT CXDV WITH CXDV (X) REFERENCES ABV;
`
	if _, err := s.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	// c2 claims (a, 9) while AB holds (a, 1): rewriting the shared
	// parent changes c1's row too.
	out, err := s.ExecLine("INSERT INTO J VALUES ('c2', 'a', 4, 'a', 9)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "warning") || !strings.Contains(out, "side effects") {
		t.Fatalf("missing side-effect warning:\n%s", out)
	}
	// A root-only update carries no warning.
	out, err = s.ExecLine("DELETE FROM J WHERE C = 'c2'")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "warning") {
		t.Fatalf("unexpected warning:\n%s", out)
	}
}

// TestSaveLoadJournal: SAVE TO writes a replayable script; LOAD FROM
// rebuilds the session state.
func TestSaveLoadJournal(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/session.sql"

	s := NewSession()
	if _, err := s.ExecScript(empScript); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecLine("DELETE FROM ViewP WHERE EmpNo = 17"); err != nil {
		t.Fatal(err)
	}
	// Reads are not journaled.
	if _, err := s.ExecLine("SELECT * FROM EMP"); err != nil {
		t.Fatal(err)
	}
	nStmts := len(s.Journal())
	out, err := s.ExecLine("SAVE TO '" + path + "'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "saved") {
		t.Fatalf("save output: %s", out)
	}
	if len(s.Journal()) != nStmts {
		t.Fatal("SAVE must not journal itself")
	}

	// Replay into a fresh session.
	s2 := NewSession()
	if _, err := s2.ExecLine("LOAD FROM '" + path + "'"); err != nil {
		t.Fatal(err)
	}
	a, err := s.ExecLine("SELECT * FROM EMP")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s2.ExecLine("SELECT * FROM EMP")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("replayed state differs:\n%s\nvs\n%s", a, b)
	}
	// Policies replayed too: Frank's delete still flips.
	out, err = s2.ExecLine("DELETE FROM ViewB WHERE EmpNo = 14")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "D-2") {
		t.Fatalf("policy lost on replay:\n%s", out)
	}
	// Errors.
	if _, err := s2.ExecLine("LOAD FROM '" + dir + "/missing.sql'"); err == nil {
		t.Fatal("missing file should fail")
	}
}

// TestShowEffects previews a translation and its side effects without
// applying anything.
func TestShowEffects(t *testing.T) {
	s := NewSession()
	script := `
CREATE DOMAIN ADom AS STRING ('a', 'a1');
CREATE DOMAIN BDom AS INT RANGE 1 TO 9;
CREATE DOMAIN CDom AS STRING ('c1', 'c2');
CREATE DOMAIN DDom AS INT RANGE 1 TO 9;
CREATE TABLE AB (A ADom, B BDom, PRIMARY KEY (A));
CREATE TABLE CXD (C CDom, X ADom, D DDom, PRIMARY KEY (C),
                  FOREIGN KEY (X) REFERENCES AB);
INSERT INTO AB VALUES ('a', 1);
INSERT INTO CXD VALUES ('c1', 'a', 3);
CREATE VIEW ABV AS SELECT * FROM AB;
CREATE VIEW CXDV AS SELECT * FROM CXD;
CREATE JOIN VIEW J ROOT CXDV WITH CXDV (X) REFERENCES ABV;
`
	if _, err := s.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	out, err := s.ExecLine("SHOW EFFECTS FOR INSERT INTO J VALUES ('c2', 'a', 4, 'a', 9)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "would translate") || !strings.Contains(out, "side effects") {
		t.Fatalf("missing preview:\n%s", out)
	}
	if !strings.Contains(out, "- J(") || !strings.Contains(out, "+ J(") {
		t.Fatalf("missing changed rows:\n%s", out)
	}
	// Nothing was applied.
	cnt, err := s.ExecLine("SELECT * FROM CXD")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cnt, "(1 rows)") {
		t.Fatalf("SHOW EFFECTS must not apply:\n%s", cnt)
	}
	// Invalid inner kind rejected at parse time.
	if _, err := Parse("SHOW EFFECTS FOR SELECT * FROM J"); err == nil {
		t.Fatal("effects for select should fail")
	}
}

func TestCreateIndexStatement(t *testing.T) {
	s := NewSession()
	if _, err := s.ExecScript(empScript); err != nil {
		t.Fatal(err)
	}
	out, err := s.ExecLine("CREATE INDEX ON EMP (Location)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "index on EMP(Location)") {
		t.Fatalf("output: %s", out)
	}
	if !s.DB().HasIndex("EMP", "Location") {
		t.Fatal("index missing")
	}
	// The view still answers identically.
	got, err := s.ExecLine("SELECT * FROM ViewP")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "(2 rows)") {
		t.Fatalf("indexed view wrong:\n%s", got)
	}
	// Errors.
	if _, err := s.ExecLine("CREATE INDEX ON NOPE (X)"); err == nil {
		t.Fatal("unknown table should fail")
	}
	if _, err := s.ExecLine("CREATE INDEX ON EMP (Nope)"); err == nil {
		t.Fatal("unknown attribute should fail")
	}
	if _, err := Parse("CREATE INDEX ON EMP (A, B)"); err == nil {
		t.Fatal("multi-attribute index should fail to parse")
	}
}

func TestSelectColumnList(t *testing.T) {
	s := NewSession()
	if _, err := s.ExecScript(empScript); err != nil {
		t.Fatal(err)
	}
	out, err := s.ExecLine("SELECT Name, Location FROM EMP WHERE EmpNo = 17")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Name | Location") || !strings.Contains(out, "'Susan' | 'New York'") {
		t.Fatalf("projected select wrong:\n%s", out)
	}
	if strings.Contains(out, "Baseball") {
		t.Fatalf("unselected column leaked:\n%s", out)
	}
	if _, err := s.ExecLine("SELECT Nope FROM EMP"); err == nil {
		t.Fatal("unknown column should fail")
	}
}

// TestSessionTableDML covers direct base-table updates and their error
// paths.
func TestSessionTableDML(t *testing.T) {
	s := NewSession()
	if _, err := s.ExecScript(empScript); err != nil {
		t.Fatal(err)
	}
	// Base-table update.
	out, err := s.ExecLine("UPDATE EMP SET Location = 'San Francisco' WHERE EmpNo = 3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "replaced") {
		t.Fatalf("table update output: %s", out)
	}
	// Base-table delete needs the employee off the views first? No —
	// direct table ops bypass translators entirely.
	out, err = s.ExecLine("DELETE FROM EMP WHERE EmpNo = 3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "deleted") {
		t.Fatalf("table delete output: %s", out)
	}
	// Errors: absent row, ambiguous row, missing where.
	if _, err := s.ExecLine("DELETE FROM EMP WHERE EmpNo = 99"); err == nil {
		t.Fatal("absent row should fail")
	}
	if _, err := s.ExecLine("UPDATE EMP SET Baseball = false WHERE Baseball = true"); err == nil {
		t.Fatal("ambiguous table update should fail")
	}
	if _, err := Parse("DELETE FROM EMP"); err == nil {
		t.Fatal("missing WHERE should fail at parse")
	}
	// Unknown SHOW target through Exec directly.
	if _, err := s.Exec(Show{What: "bogus"}); err == nil {
		t.Fatal("unknown show target should fail")
	}
	// Unsupported statement type through Exec directly.
	if _, err := s.Exec(nil); err == nil {
		t.Fatal("nil statement should fail")
	}
}

// TestSessionShowCandidatesUnknownView covers buildRequest errors.
func TestSessionShowCandidatesUnknownView(t *testing.T) {
	s := NewSession()
	if _, err := s.ExecLine("SHOW CANDIDATES FOR DELETE FROM Nope WHERE A = 1"); err == nil {
		t.Fatal("unknown view should fail")
	}
	if _, err := s.ExecLine("SHOW EFFECTS FOR DELETE FROM Nope WHERE A = 1"); err == nil {
		t.Fatal("unknown view should fail")
	}
}

// TestWhereMisuse: a WHERE nobody could mean — an attribute the target
// does not have, a value outside the attribute's domain, one attribute
// given two different values — is an error naming the attribute, the
// same 400-class answer the wire gives, for every statement that takes
// a WHERE, on views and base tables, inside a transaction and out. None
// of them may pass for "no row matches" or an empty SELECT.
func TestWhereMisuse(t *testing.T) {
	s := NewSession()
	if _, err := s.ExecScript(empScript); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ stmt, attr string }{
		{"DELETE FROM ViewP WHERE Nope = 1", "Nope"},
		{"DELETE FROM ViewP WHERE EmpNo = 'x'", "EmpNo"},
		{"DELETE FROM ViewP WHERE EmpNo = 99", "EmpNo"},
		{"DELETE FROM ViewP WHERE EmpNo = 3 AND EmpNo = 17", "EmpNo"},
		{"DELETE FROM ViewP WHERE EmpNo = 3 AND Nope = 1", "Nope"},
		{"UPDATE ViewP SET Name = 'Bob' WHERE Nope = 1", "Nope"},
		{"UPDATE ViewP SET Name = 'Bob' WHERE Name = 'Zed'", "Name"},
		{"SELECT * FROM ViewP WHERE Nope = 1", "Nope"},
		{"SELECT * FROM ViewP WHERE EmpNo = 'x'", "EmpNo"},
		{"SELECT * FROM ViewP WHERE Name = 'Alice' AND Name = 'Bob'", "Name"},
		{"SELECT * FROM EMP WHERE Nope = 1", "Nope"},
		{"DELETE FROM EMP WHERE EmpNo = 'x'", "EmpNo"},
		{"UPDATE EMP SET Name = 'Bob' WHERE EmpNo = 3 AND EmpNo = 17", "EmpNo"},
		// One attribute set to two different values: the last used to win.
		{"UPDATE ViewP SET Name = 'Bob', Name = 'Carol' WHERE EmpNo = 3", "Name"},
		{"UPDATE EMP SET Name = 'Bob', Name = 'Carol' WHERE EmpNo = 3", "Name"},
		{"SHOW CANDIDATES FOR UPDATE ViewP SET Name = 'Bob', Name = 'Carol' WHERE EmpNo = 3", "Name"},
		{"SHOW CANDIDATES FOR DELETE FROM ViewP WHERE Nope = 1", "Nope"},
		{"SHOW EFFECTS FOR DELETE FROM ViewP WHERE EmpNo = 'x'", "EmpNo"},
	}
	check := func(ctx string) {
		t.Helper()
		for _, tc := range cases {
			out, err := s.ExecLine(tc.stmt)
			switch {
			case err == nil:
				t.Errorf("%s: %s answered %q, want an error naming %s", ctx, tc.stmt, out, tc.attr)
			case !strings.Contains(err.Error(), tc.attr) || strings.Contains(err.Error(), "matches"):
				t.Errorf("%s: %s: %v; want an error naming %s", ctx, tc.stmt, err, tc.attr)
			}
		}
	}
	check("live")
	if _, err := s.ExecLine("BEGIN"); err != nil {
		t.Fatal(err)
	}
	check("in transaction")
	// The well-formed neighbours still answer as before.
	for stmt, want := range map[string]string{
		"SELECT * FROM ViewP WHERE EmpNo = 3 AND EmpNo = 3":           "(1 rows)",
		"SELECT * FROM ViewP WHERE EmpNo = 14":                        "(0 rows)", // in EMP, not in New York
		"SELECT * FROM EMP WHERE Baseball = true":                     "(2 rows)",
		"UPDATE ViewP SET Name = 'Bob', Name = 'Bob' WHERE EmpNo = 3": "translated by",
	} {
		if out, err := s.ExecLine(stmt); err != nil || !strings.Contains(out, want) {
			t.Errorf("%s = %q, %v; want %s", stmt, out, err, want)
		}
	}
	if _, err := s.ExecLine("DELETE FROM ViewP WHERE EmpNo = 14"); err == nil || !strings.Contains(err.Error(), "no row of ViewP matches") {
		t.Errorf("a well-formed WHERE naming no row: %v", err)
	}
}
