package persist

import (
	"bytes"
	"encoding/json"
	"testing"

	"viewupdate/internal/fixtures"
	"viewupdate/internal/schema"
)

// FuzzLoad hardens the snapshot loader against arbitrary bytes: it must
// never panic, and any input it accepts must restore to a database that
// round-trips — saving and reloading the restored database reproduces
// exactly the same contents and schema rendering.
func FuzzLoad(f *testing.F) {
	var seed bytes.Buffer
	if err := Save(&seed, fixtures.NewEmp(20).PaperInstance()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	seed.Reset()
	if err := Save(&seed, fixtures.NewABCXD().PaperInstance()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"format":1,"domains":[],"relations":[],"tuples":{}}`))
	f.Add([]byte(`{"format":1,"domains":[{"name":"D","values":["i1"]}],` +
		`"relations":[{"name":"R","attrs":[{"name":"A","domain":"D"}],"key":["A"]}],` +
		`"tuples":{"R":[["i1"]]}}`))
	f.Add([]byte(rangeSnapshot(3, `"range":[-1,3]`)))
	for _, c := range hostileRanges {
		f.Add([]byte(c.snapshot))
	}
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if wideRange(data) {
			t.Skip()
		}
		db, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs only need to fail cleanly
		}
		var buf bytes.Buffer
		if err := Save(&buf, db); err != nil {
			t.Fatalf("accepted snapshot does not re-save: %v", err)
		}
		again, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-saved snapshot does not load: %v", err)
		}
		if render(again) != render(db) {
			t.Fatalf("round trip changed contents:\n%s\nvs\n%s", render(again), render(db))
		}
	})
}

// wideRange reports whether data is a snapshot with a range domain of
// more than 4096 values that Restore would accept. Such a domain is
// legal up to schema.MaxRangeSize values, but its values are
// materialized, so one input would cost seconds and a hundred
// megabytes and starve the fuzzer; TestRecoverSnapshotFormats covers
// the bound itself. Ranges Restore refuses are not skipped.
func wideRange(data []byte) bool {
	var snap Snapshot
	if json.Unmarshal(data, &snap) != nil {
		return false
	}
	for _, dj := range snap.Domains {
		if len(dj.Range) != 2 || dj.Range[0] > dj.Range[1] {
			continue
		}
		if span := uint64(dj.Range[1]) - uint64(dj.Range[0]); span >= 4096 && span < schema.MaxRangeSize {
			return true
		}
	}
	return false
}
