package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
)

// format2Rows is the contents of testdata/format2.json, a snapshot
// written by the format-2 code: a value-list INT domain, a STRING
// domain and one relation with three rows, at watermark 4 (in the
// order sortedRows gives).
const format2Rows = "EMP(11, 'San Francisco')\nEMP(2, 'New York')\nEMP(5, 'Austin')\n"

// renderSchema lists each relation's key and attributes, then each
// domain it introduces with its values.
func renderSchema(db *storage.Database) string {
	var b strings.Builder
	seen := map[*schema.Domain]bool{}
	for _, rn := range db.Schema().RelationNames() {
		rel := db.Schema().Relation(rn)
		fmt.Fprintf(&b, "%s key %v:", rn, rel.Key())
		for _, a := range rel.Attributes() {
			fmt.Fprintf(&b, " %s %s", a.Name, a.Domain.Name())
		}
		b.WriteByte('\n')
		for _, a := range rel.Attributes() {
			if seen[a.Domain] {
				continue
			}
			seen[a.Domain] = true
			b.WriteString(a.Domain.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// sortedRows is render with its lines sorted.
func sortedRows(db *storage.Database) string {
	lines := strings.SplitAfter(render(db), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// TestRecoverSnapshotFormats: a committed format-2 snapshot restores to
// the same schema and rows it always did, a store directory holding it
// reopens, and the next checkpoint writes format 3, where an int range
// is stored by its bounds and restored through IntRangeDomain. Restore
// refuses every malformed or oversized range.
func TestRecoverSnapshotFormats(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "format2.json"))
	if err != nil {
		t.Fatal(err)
	}
	const wantSchema = "EMP key [EmpNo]: EmpNo NoDom Location LocDom\n" +
		"NoDom{2,3,5,7,11}\n" +
		"LocDom{'Austin','New York','San Francisco'}\n"

	t.Run("restore", func(t *testing.T) {
		db, err := Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if got := renderSchema(db); got != wantSchema {
			t.Fatalf("schema:\n%s\nwant:\n%s", got, wantSchema)
		}
		if got := sortedRows(db); got != format2Rows {
			t.Fatalf("rows:\n%s\nwant:\n%s", got, format2Rows)
		}
	})

	t.Run("reopen and resave", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, SnapshotFile), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st.SnapshotSeq() != 4 || renderSchema(st.DB()) != wantSchema || sortedRows(st.DB()) != format2Rows {
			t.Fatalf("reopened store: seq %d\n%s%s", st.SnapshotSeq(), renderSchema(st.DB()), render(st.DB()))
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		snap, err := ReadSnapshotFile(filepath.Join(dir, SnapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		if snap.Format != 3 || snap.Domains[0].Range != nil || len(snap.Domains[0].Values) != 5 {
			t.Fatalf("resaved snapshot: format %d, first domain %+v", snap.Format, snap.Domains[0])
		}
		again, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer again.Close()
		if renderSchema(again.DB()) != wantSchema || sortedRows(again.DB()) != format2Rows {
			t.Fatalf("reopened after resave:\n%s%s", renderSchema(again.DB()), render(again.DB()))
		}
	})

	t.Run("range", func(t *testing.T) {
		d, err := schema.IntRangeDomain("K", -2, 200000)
		if err != nil {
			t.Fatal(err)
		}
		rel := schema.MustRelation("T", []schema.Attribute{{Name: "K", Domain: d}}, []string{"K"})
		sch := schema.NewDatabase()
		if err := sch.AddRelation(rel); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Save(&buf, storage.Open(sch)); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), `"range": [`) || strings.Contains(buf.String(), `"values"`) || buf.Len() > 1024 {
			t.Fatalf("a range domain is not written by its bounds (%d bytes):\n%s", buf.Len(), buf.String())
		}
		db, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got := db.Schema().Relation("T").Attributes()[0].Domain
		if lo, hi, ok := got.Range(); !ok || lo != -2 || hi != 200000 || got.Size() != 200003 {
			t.Fatalf("restored range: [%d,%d] %v, %d values", lo, hi, ok, got.Size())
		}
	})

	t.Run("hostile ranges", func(t *testing.T) {
		for _, c := range hostileRanges {
			if _, err := Load(strings.NewReader(c.snapshot)); err == nil {
				t.Errorf("%s: accepted", c.name)
			}
		}
	})
}

// rangeSnapshot is a one-relation snapshot whose key domain D is given
// by domain, a JSON object body.
func rangeSnapshot(format int, domain string) string {
	return fmt.Sprintf(`{"format":%d,"domains":[{"name":"D",%s}],`+
		`"relations":[{"name":"R","attrs":[{"name":"A","domain":"D"}],"key":["A"]}],`+
		`"tuples":{"R":[["i1"]]}}`, format, domain)
}

// hostileRanges are snapshots Restore must refuse: each names one
// malformed, oversized or misplaced range.
var hostileRanges = []struct{ name, snapshot string }{
	{"no bounds", rangeSnapshot(3, `"range":[]`)},
	{"one bound", rangeSnapshot(3, `"range":[1]`)},
	{"three bounds", rangeSnapshot(3, `"range":[1,2,3]`)},
	{"hi below lo", rangeSnapshot(3, `"range":[5,1]`)},
	{"past the bound", rangeSnapshot(3, fmt.Sprintf(`"range":[1,%d]`, schema.MaxRangeSize+1))},
	{"4e9 values", rangeSnapshot(3, `"range":[1,4000000000]`)},
	{"whole int64", rangeSnapshot(3, `"range":[-9223372036854775808,9223372036854775807]`)},
	{"beside values", rangeSnapshot(3, `"range":[1,2],"values":["i1","i2"]`)},
	{"in format 2", rangeSnapshot(2, `"range":[1,2]`)},
	{"not integers", rangeSnapshot(3, `"range":[1.5,2]`)},
}
