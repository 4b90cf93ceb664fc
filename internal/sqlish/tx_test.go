package sqlish

import (
	"fmt"
	"strings"
	"testing"

	"viewupdate/internal/persist"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
	"viewupdate/internal/wal"
)

// newEmpSession builds a session with the EMP schema and the paper's
// New York view.
func newEmpSession(t *testing.T) *Session {
	t.Helper()
	s := NewSession()
	if _, err := s.ExecScript(`
		CREATE DOMAIN NoDom AS INT RANGE 1 TO 30;
		CREATE DOMAIN NameDom AS STRING ('Alice', 'Bob', 'Carol', 'Susan');
		CREATE DOMAIN LocDom AS STRING ('New York', 'San Francisco');
		CREATE DOMAIN TeamDom AS BOOL;
		CREATE TABLE EMP (EmpNo NoDom, Name NameDom, Location LocDom, Baseball TeamDom, PRIMARY KEY (EmpNo));
		CREATE VIEW NY AS SELECT * FROM EMP WHERE Location = 'New York';
		INSERT INTO EMP VALUES (17, 'Susan', 'New York', true);
	`); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTransactionCommit(t *testing.T) {
	s := newEmpSession(t)
	for _, stmt := range []string{
		"BEGIN",
		"INSERT INTO EMP VALUES (3, 'Alice', 'New York', false)",
		"INSERT INTO EMP VALUES (5, 'Bob', 'San Francisco', false)",
	} {
		if _, err := s.ExecLine(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	if !s.InTx() {
		t.Fatal("transaction should be open")
	}
	// The staged rows are visible to statements...
	out, err := s.ExecLine("SELECT * FROM EMP")
	if err != nil || !strings.Contains(out, "(3 rows)") {
		t.Fatalf("in-tx select: %q, %v", out, err)
	}
	// ...but the live database is untouched until COMMIT.
	if s.DB().Len("EMP") != 1 {
		t.Fatal("transaction leaked into the live database")
	}
	out, err = s.ExecLine("COMMIT")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "committed 2 operation(s)") {
		t.Fatalf("commit output: %q", out)
	}
	if s.InTx() || s.DB().Len("EMP") != 3 {
		t.Fatal("commit did not land")
	}
	// The journal holds the inner statements, not BEGIN/COMMIT.
	j := strings.Join(s.Journal(), "\n")
	if !strings.Contains(j, "INSERT INTO EMP VALUES (3") || strings.Contains(j, "BEGIN") || strings.Contains(j, "COMMIT") {
		t.Fatalf("journal wrong:\n%s", j)
	}
}

func TestTransactionRollback(t *testing.T) {
	s := newEmpSession(t)
	before := len(s.Journal())
	for _, stmt := range []string{
		"BEGIN",
		"INSERT INTO EMP VALUES (3, 'Alice', 'New York', false)",
		"DELETE FROM NY WHERE EmpNo = 17",
		"ROLLBACK",
	} {
		if _, err := s.ExecLine(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	if s.InTx() {
		t.Fatal("rollback left the transaction open")
	}
	if s.DB().Len("EMP") != 1 {
		t.Fatal("rollback did not discard the staged changes")
	}
	if len(s.Journal()) != before {
		t.Fatal("rolled-back statements reached the journal")
	}
}

func TestTransactionViewUpdateStaged(t *testing.T) {
	s := newEmpSession(t)
	for _, stmt := range []string{
		"BEGIN",
		"UPDATE NY SET Name = 'Carol' WHERE EmpNo = 17",
	} {
		if _, err := s.ExecLine(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	// Live database still shows Susan.
	if got := s.DB().Tuples("EMP")[0].MustGet("Name"); got != value.NewString("Susan") {
		t.Fatalf("live db changed mid-tx: %v", got)
	}
	if _, err := s.ExecLine("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if got := s.DB().Tuples("EMP")[0].MustGet("Name"); got != value.NewString("Carol") {
		t.Fatalf("committed view update missing: %v", got)
	}
}

func TestTransactionRestrictions(t *testing.T) {
	s := newEmpSession(t)
	if _, err := s.ExecLine("COMMIT"); err == nil {
		t.Fatal("COMMIT without BEGIN should fail")
	}
	if _, err := s.ExecLine("ROLLBACK"); err == nil {
		t.Fatal("ROLLBACK without BEGIN should fail")
	}
	if _, err := s.ExecLine("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecLine("BEGIN"); err == nil {
		t.Fatal("nested BEGIN should fail")
	}
	for _, ddl := range []string{
		"CREATE DOMAIN X AS BOOL",
		"CREATE TABLE T2 (A NoDom, PRIMARY KEY (A))",
		"CREATE VIEW V2 AS SELECT * FROM EMP",
		"SET POLICY NY PREFER 'D-1'",
		"SAVE TO 'x.sql'",
	} {
		if _, err := s.ExecLine(ddl); err == nil || !strings.Contains(err.Error(), "transaction") {
			t.Fatalf("%s inside tx: err = %v, want transaction restriction", ddl, err)
		}
	}
	// Reads stay allowed.
	if _, err := s.ExecLine("SELECT * FROM NY"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecLine("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
}

// TestTransactionCommitConflict stages changes that no longer apply to
// the live database: the commit fails atomically, the transaction
// stays open for ROLLBACK, and the live database is unchanged.
func TestTransactionCommitConflict(t *testing.T) {
	s := newEmpSession(t)
	if _, err := s.ExecLine("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecLine("INSERT INTO EMP VALUES (3, 'Alice', 'New York', false)"); err != nil {
		t.Fatal(err)
	}
	// Behind the transaction's back, take EmpNo 3 with another name.
	rel := s.DB().Schema().Relation("EMP")
	other, err := tuple.New(rel,
		value.NewInt(3), value.NewString("Bob"),
		value.NewString("San Francisco"), value.NewBool(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DB().Apply(update.NewTranslation(update.NewInsert(other))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecLine("COMMIT"); err == nil {
		t.Fatal("conflicting commit should fail")
	}
	if !s.InTx() {
		t.Fatal("failed commit should keep the transaction open")
	}
	if s.DB().Len("EMP") != 2 {
		t.Fatal("failed commit changed the live database")
	}
	if _, err := s.ExecLine("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
}

// TestTransactionDurableCommit runs transactions against an attached
// store and checks recovery sees exactly the committed ones.
func TestTransactionDurableCommit(t *testing.T) {
	dir := t.TempDir()
	s := newEmpSession(t)
	st, err := persist.Create(dir, s.DB(), persist.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		"BEGIN",
		"INSERT INTO EMP VALUES (3, 'Alice', 'New York', false)",
		"INSERT INTO EMP VALUES (5, 'Bob', 'San Francisco', false)",
		"COMMIT",
		"BEGIN",
		"INSERT INTO EMP VALUES (8, 'Carol', 'New York', true)",
		"ROLLBACK",
		"DELETE FROM NY WHERE EmpNo = 3", // non-tx durable view update
	} {
		if _, err := s.ExecLine(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	// Two durable translations: the committed tx diff and the delete.
	if rec.Report().Replayed != 2 {
		t.Fatalf("report = %s, want 2 replayed", rec.Report())
	}
	db := rec.DB()
	if db.Len("EMP") != 2 {
		t.Fatalf("recovered EMP has %d tuples, want 2 (17 and 5)", db.Len("EMP"))
	}
	for _, tp := range db.Tuples("EMP") {
		no := tp.MustGet("EmpNo")
		if no != value.NewInt(17) && no != value.NewInt(5) {
			t.Fatalf("unexpected recovered tuple %s", tp)
		}
	}
}

// TestSessionAdoptsRecoveredStore checks the recovered-store path: a
// fresh session attaches a store opened from disk, adopts its schema,
// and keeps executing statements against the recovered data.
func TestSessionAdoptsRecoveredStore(t *testing.T) {
	dir := t.TempDir()
	s := newEmpSession(t)
	st, err := persist.Create(dir, s.DB(), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachStore(st); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecLine("INSERT INTO EMP VALUES (3, 'Alice', 'New York', false)"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	s2 := NewSession()
	if err := s2.AttachStore(rec); err != nil {
		t.Fatal(err)
	}
	out, err := s2.ExecLine("SELECT * FROM EMP")
	if err != nil || !strings.Contains(out, "(2 rows)") {
		t.Fatalf("recovered select: %q, %v", out, err)
	}
	// The adopted schema accepts further durable writes, and domains
	// were re-registered so new tables can reuse them.
	if _, err := s2.ExecLine("INSERT INTO EMP VALUES (5, 'Bob', 'San Francisco', false)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.ExecLine("CREATE TABLE T2 (A NoDom, PRIMARY KEY (A))"); err != nil {
		t.Fatal(err)
	}
	// A non-empty session must refuse to adopt a foreign database.
	s3 := newEmpSession(t)
	if err := s3.AttachStore(rec); err == nil {
		t.Fatal("non-empty session adopted a recovered store")
	}
}

// txDeleteAllocs seeds rows New York employees, opens a transaction and
// returns the allocations of one DELETE FROM NY WHERE EmpNo = k staged
// in it (a fresh k per run, so every run resolves, translates and
// stages a real delete).
func txDeleteAllocs(t *testing.T, rows int) float64 {
	t.Helper()
	s := NewSession()
	var script strings.Builder
	script.WriteString(`
		CREATE DOMAIN NoDom AS INT RANGE 1 TO 20000;
		CREATE DOMAIN LocDom AS STRING ('New York', 'San Francisco');
		CREATE TABLE EMP (EmpNo NoDom, Location LocDom, PRIMARY KEY (EmpNo));
		CREATE VIEW NY AS SELECT * FROM EMP WHERE Location = 'New York';`)
	for k := 1; k <= rows; k++ {
		fmt.Fprintf(&script, "INSERT INTO EMP VALUES (%d, 'New York');\n", k)
	}
	script.WriteString("BEGIN; INSERT INTO NY VALUES (20000, 'New York');")
	if _, err := s.ExecScript(script.String()); err != nil {
		t.Fatal(err)
	}
	k := 0
	return testing.AllocsPerRun(20, func() {
		k++
		if _, err := s.ExecLine(fmt.Sprintf("DELETE FROM NY WHERE EmpNo = %d", k)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTransactionKeyedDeleteCostIndependentOfViewSize is the sqlish
// door of server's TestResolvingARowCostsTheSameAtAnyViewSize: inside
// BEGIN a keyed DELETE on a view looks its row up in the staged overlay
// and stages the translation there; nothing materializes, copies or
// scans the view or the database, so 100 rows cost what 10,000 do.
func TestTransactionKeyedDeleteCostIndependentOfViewSize(t *testing.T) {
	small, large := txDeleteAllocs(t, 100), txDeleteAllocs(t, 10000)
	t.Logf("allocs per in-transaction keyed DELETE: %.0f over 100 rows, %.0f over 10000", small, large)
	if large > small+2 {
		t.Fatalf("a keyed DELETE in a transaction allocates %.0f over 10000 rows vs %.0f over 100: cost scales with the view", large, small)
	}
}
