package server

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// dirBytes is the total size of the regular files under dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestDurableBootWritesTheSchemaNotTheDomain pins what a durable boot
// writes to the size of the schema. Every CREATE TABLE runs a
// checkpoint, and every snapshot carries every domain; a domain listed
// value by value made this 200,000-value key domain cost megabytes of
// snapshot on each boot, each drain and each shard. By its definition
// it is a few bytes. Reopening the store restores the whole range.
func TestDurableBootWritesTheSchemaNotTheDomain(t *testing.T) {
	const script = "CREATE DOMAIN K AS INT RANGE 1 TO 200000;\nCREATE TABLE T (K K, PRIMARY KEY (K));\n"
	const budget = 4 << 10
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Dir: dir, Shards: shards}
			e, err := NewEngine(cfg, script)
			if err != nil {
				t.Fatal(err)
			}
			n := dirBytes(t, dir)
			t.Logf("after boot: %d bytes", n)
			if n >= budget {
				t.Errorf("after boot the data directory holds %d bytes, want < %d", n, budget)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			n = dirBytes(t, dir)
			t.Logf("after Close: %d bytes", n)
			if n >= budget {
				t.Errorf("after Close the data directory holds %d bytes, want < %d", n, budget)
			}
			again, err := NewEngine(cfg, script)
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close()
			if _, err := again.ExecScript("INSERT INTO T VALUES (200000);"); err != nil {
				t.Fatalf("the reopened range lost its top value: %v", err)
			}
			if _, err := again.ExecScript("INSERT INTO T VALUES (200001);"); err == nil || !strings.Contains(err.Error(), "domain") {
				t.Fatalf("the reopened range admits a value past its top: %v", err)
			}
		})
	}
}
