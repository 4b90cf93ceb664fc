package main

import (
	"strings"
	"testing"
)

func rowsOf(m *model, view string) [][]string {
	var out [][]string
	for _, r := range m.rows(m.views[view]) {
		out = append(out, append([]string(nil), r...))
	}
	return out
}

// TestCheckerCanFail feeds the checker a read with one row missing, one
// row too many and one stale value, and expects each to be named.
func TestCheckerCanFail(t *testing.T) {
	m := newModel(spjMidMem())
	good := rowsOf(m, "EDD")
	if ms := m.checkView("EDD", good); len(ms) != 0 {
		t.Fatalf("a correct read was reported: %v", ms)
	}

	var bad [][]string
	var missing, stale string
	for _, r := range good {
		switch {
		case missing == "":
			missing = r[0] // dropped
			continue
		case stale == "":
			stale = r[0]
			r[4] = "999999" // Budget no DEPT has
		}
		bad = append(bad, r)
	}
	extra := []string{"99999", "1", "1", "1", "1", "1", "7"}
	bad = append(bad, extra)

	got := map[string]string{}
	for _, mm := range m.checkView("EDD", bad) {
		got[mm.kind] = mm.key
	}
	want := map[string]string{"missing": missing, "stale": stale, "extra": "99999"}
	for kind, key := range want {
		if got[kind] != key {
			t.Errorf("%s row %s not reported (reported: %v)", kind, key, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("reported %v, want exactly %v", got, want)
	}
}

// TestAckRejectsWrongTranslation: an acknowledged translation must fit
// the model's base tables and must implement the view update.
func TestAckRejectsWrongTranslation(t *testing.T) {
	insert := op{Kind: "insert", Step: "insert", View: "NY", Values: []string{"20000", "5", "New York"}}
	cases := []struct {
		name, wantErr string
		ops           []string
	}{
		{"implements the insert", "", []string{"INSERT EMP(20000, 5, 'New York')"}},
		{"inserts another row", "leave row", []string{"INSERT EMP(20001, 5, 'New York')"}},
		{"inserts outside the view", "leave row", []string{"INSERT EMP(20000, 5, 'Austin')"}},
		{"removes a row that is not there", "model has", []string{"DELETE EMP(77777, 1, 'Austin')", "INSERT EMP(20000, 5, 'New York')"}},
		{"adds over an existing key", "over existing", []string{"INSERT EMP(3, 4, 'New York')", "INSERT EMP(20000, 5, 'New York')"}},
		{"is not an op", "unknown op kind", []string{"UPSERT EMP(20000, 5, 'New York')"}},
	}
	for _, c := range cases {
		err := newModel(spLargeMixed()).ackUpdate(insert, c.ops)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantErr)
		}
	}

	// The default policy's key-moving replace: insert the new key, flip
	// the old tuple out of the view. Valid, and it leaks one base row.
	m := newModel(spLargeMixed())
	if err := m.ackUpdate(insert, []string{"INSERT EMP(20000, 5, 'New York')"}); err != nil {
		t.Fatal(err)
	}
	move := op{Kind: "replace", Step: "replace_key", View: "NY",
		Where: map[string]string{"ENo": "20000"}, Set: map[string]string{"ENo": "20001"}}
	r4 := []string{"INSERT EMP(20001, 5, 'New York')", "REPLACE EMP(20000, 5, 'New York') -> EMP(20000, 5, 'Austin')"}
	if err := m.ackUpdate(move, r4); err != nil {
		t.Fatal(err)
	}
	if m.leaked != 1 || m.keyMoves != 1 {
		t.Errorf("leaked=%d keyMoves=%d after one R-4 replace, want 1 and 1", m.leaked, m.keyMoves)
	}
	// A replace that leaves the old row in the view is not a translation
	// of the request.
	m = newModel(spLargeMixed())
	if err := m.ackUpdate(insert, []string{"INSERT EMP(20000, 5, 'New York')"}); err != nil {
		t.Fatal(err)
	}
	if err := m.ackUpdate(move, r4[:1]); err == nil || !strings.Contains(err.Error(), "in the view") {
		t.Errorf("replace that keeps the old row: error %v", err)
	}
}
