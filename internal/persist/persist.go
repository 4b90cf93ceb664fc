// Package persist serializes a database — schema (domains, relations,
// inclusion dependencies) and contents — to a JSON snapshot and loads
// it back. Snapshots are deterministic (sorted domains, schema-ordered
// relations, key-ordered tuples) so they diff cleanly.
package persist

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"viewupdate/internal/schema"
	"viewupdate/internal/storage"
	"viewupdate/internal/tuple"
	"viewupdate/internal/value"
)

// FormatVersion is the current snapshot layout. Format 1 lacked the
// Seq watermark; format 2 listed every domain's values; format 3 writes
// an int range domain by its bounds. Restore accepts all three.
const FormatVersion = 3

// Snapshot is the serialized form of a database.
type Snapshot struct {
	// Format identifies the snapshot layout; see FormatVersion.
	Format int `json:"format"`
	// Seq is the applied-sequence watermark: the highest WAL sequence
	// number folded into this snapshot's contents. Recovery skips
	// committed WAL records with seq <= Seq, making replay idempotent
	// when a crash interrupts a checkpoint between the snapshot rename
	// and the WAL truncation. Format-1 snapshots decode with Seq 0.
	Seq uint64 `json:"seq,omitempty"`
	// Domains in name order.
	Domains []DomainJSON `json:"domains"`
	// Relations in schema registration order.
	Relations []RelationJSON `json:"relations"`
	// Inclusions in registration order.
	Inclusions []InclusionJSON `json:"inclusions,omitempty"`
	// Tuples maps relation name to rows of canonical value encodings.
	Tuples map[string][][]string `json:"tuples"`
}

// DomainJSON serializes one domain: by its definition, [lo, hi], if it
// is an int range, else by its values.
type DomainJSON struct {
	Name   string   `json:"name"`
	Range  []int64  `json:"range,omitempty"`  // [lo, hi]; format 3
	Values []string `json:"values,omitempty"` // canonical encodings, ascending
}

// RelationJSON serializes one relation schema.
type RelationJSON struct {
	Name  string     `json:"name"`
	Attrs []AttrJSON `json:"attrs"`
	Key   []string   `json:"key"`
}

// AttrJSON serializes one attribute.
type AttrJSON struct {
	Name   string `json:"name"`
	Domain string `json:"domain"`
}

// InclusionJSON serializes one inclusion dependency.
type InclusionJSON struct {
	Child      string   `json:"child"`
	ChildAttrs []string `json:"childAttrs"`
	Parent     string   `json:"parent"`
}

// Capture builds a Snapshot of db.
func Capture(db *storage.Database) (*Snapshot, error) {
	snap, err := CaptureSchema(db.Schema())
	if err != nil {
		return nil, err
	}
	for _, rj := range snap.Relations {
		var rows [][]string
		for _, t := range db.Tuples(rj.Name) {
			rows = append(rows, EncodeRow(t))
		}
		snap.Tuples[rj.Name] = rows
	}
	return snap, nil
}

// CaptureSchema builds the schema section of a Snapshot — domains,
// relations, inclusion dependencies — with no tuples. Callers that
// split one database across several snapshots (the sharded store) fill
// Tuples themselves, row by row, with EncodeRow.
func CaptureSchema(sch *schema.Database) (*Snapshot, error) {
	snap := &Snapshot{Format: FormatVersion, Tuples: map[string][][]string{}}

	seenDom := map[string]*schema.Domain{}
	var domNames []string
	for _, rn := range sch.RelationNames() {
		rel := sch.Relation(rn)
		rj := RelationJSON{Name: rn, Key: rel.Key()}
		for _, a := range rel.Attributes() {
			if prev, ok := seenDom[a.Domain.Name()]; ok {
				if prev != a.Domain {
					return nil, fmt.Errorf("persist: two distinct domains named %s", a.Domain.Name())
				}
			} else {
				seenDom[a.Domain.Name()] = a.Domain
				domNames = append(domNames, a.Domain.Name())
			}
			rj.Attrs = append(rj.Attrs, AttrJSON{Name: a.Name, Domain: a.Domain.Name()})
		}
		snap.Relations = append(snap.Relations, rj)
	}
	for _, dn := range domNames {
		snap.Domains = append(snap.Domains, captureDomain(seenDom[dn]))
	}
	for _, inc := range sch.Inclusions() {
		snap.Inclusions = append(snap.Inclusions, InclusionJSON{
			Child: inc.Child, ChildAttrs: inc.ChildAttrs, Parent: inc.Parent,
		})
	}
	return snap, nil
}

func captureDomain(d *schema.Domain) DomainJSON {
	dj := DomainJSON{Name: d.Name()}
	if lo, hi, ok := d.Range(); ok {
		dj.Range = []int64{lo, hi}
		return dj
	}
	for _, v := range d.Values() {
		dj.Values = append(dj.Values, v.Encode())
	}
	return dj
}

// EncodeRow renders one tuple as a Snapshot row: the canonical
// encodings of its values, in attribute order.
func EncodeRow(t tuple.T) []string {
	row := make([]string, 0, len(t.Values()))
	for _, v := range t.Values() {
		row = append(row, v.Encode())
	}
	return row
}

// Save writes db's snapshot as indented JSON.
func Save(w io.Writer, db *storage.Database) error {
	snap, err := Capture(db)
	if err != nil {
		return err
	}
	return encodeSnapshot(w, snap)
}

func encodeSnapshot(w io.Writer, snap *Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// SaveFile writes db's snapshot to path.
func SaveFile(path string, db *storage.Database) error {
	snap, err := Capture(db)
	if err != nil {
		return err
	}
	return WriteSnapshotFile(path, snap)
}

// WriteSnapshotFile writes snap to path as indented JSON, fsyncing the
// file before close so a caller that renames it into place cannot end
// up with an empty or partial snapshot after power loss.
func WriteSnapshotFile(path string, snap *Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encodeSnapshot(f, snap); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: syncing snapshot: %w", err)
	}
	return f.Close()
}

// Restore rebuilds a database (with a fresh schema) from a snapshot.
func Restore(snap *Snapshot) (*storage.Database, error) {
	if snap.Format < 1 || snap.Format > FormatVersion {
		return nil, fmt.Errorf("persist: unsupported snapshot format %d", snap.Format)
	}
	domains := map[string]*schema.Domain{}
	for _, dj := range snap.Domains {
		d, err := restoreDomain(snap.Format, dj)
		if err != nil {
			return nil, fmt.Errorf("persist: domain %s: %w", dj.Name, err)
		}
		domains[dj.Name] = d
	}
	sch := schema.NewDatabase()
	for _, rj := range snap.Relations {
		attrs := make([]schema.Attribute, len(rj.Attrs))
		for i, aj := range rj.Attrs {
			d := domains[aj.Domain]
			if d == nil {
				return nil, fmt.Errorf("persist: relation %s references unknown domain %s", rj.Name, aj.Domain)
			}
			attrs[i] = schema.Attribute{Name: aj.Name, Domain: d}
		}
		rel, err := schema.NewRelation(rj.Name, attrs, rj.Key)
		if err != nil {
			return nil, fmt.Errorf("persist: relation %s: %w", rj.Name, err)
		}
		if err := sch.AddRelation(rel); err != nil {
			return nil, err
		}
	}
	for _, ij := range snap.Inclusions {
		if err := sch.AddInclusion(schema.InclusionDependency{
			Child: ij.Child, ChildAttrs: ij.ChildAttrs, Parent: ij.Parent,
		}); err != nil {
			return nil, err
		}
	}
	db := storage.Open(sch)
	var all []tuple.T
	for rn, rows := range snap.Tuples {
		rel := sch.Relation(rn)
		if rel == nil {
			return nil, fmt.Errorf("persist: tuples for unknown relation %s", rn)
		}
		for _, row := range rows {
			if len(row) != rel.Arity() {
				return nil, fmt.Errorf("persist: %s row has %d values, want %d", rn, len(row), rel.Arity())
			}
			vals := make([]value.Value, len(row))
			for i, enc := range row {
				v, err := value.Decode(enc)
				if err != nil {
					return nil, fmt.Errorf("persist: %s row: %w", rn, err)
				}
				vals[i] = v
			}
			t, err := tuple.New(rel, vals...)
			if err != nil {
				return nil, fmt.Errorf("persist: %s row: %w", rn, err)
			}
			all = append(all, t)
		}
	}
	if err := db.LoadAll(all...); err != nil {
		return nil, fmt.Errorf("persist: loading tuples: %w", err)
	}
	return db, nil
}

// restoreDomain rebuilds one domain, through IntRangeDomain (and its
// size bound) for a range, through NewDomain for a list of values.
func restoreDomain(format int, dj DomainJSON) (*schema.Domain, error) {
	if dj.Range == nil {
		vals := make([]value.Value, len(dj.Values))
		for i, enc := range dj.Values {
			v, err := value.Decode(enc)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return schema.NewDomain(dj.Name, vals...)
	}
	switch {
	case format < 3:
		return nil, fmt.Errorf("range in a format-%d snapshot", format)
	case dj.Values != nil:
		return nil, fmt.Errorf("both range and values")
	case len(dj.Range) != 2:
		return nil, fmt.Errorf("range has %d bounds, want 2", len(dj.Range))
	}
	return schema.IntRangeDomain(dj.Name, dj.Range[0], dj.Range[1])
}

// Load reads a snapshot from r and restores it.
func Load(r io.Reader) (*storage.Database, error) {
	var snap Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("persist: decoding snapshot: %w", err)
	}
	return Restore(&snap)
}

// LoadFile reads a snapshot from path and restores it.
func LoadFile(path string) (*storage.Database, error) {
	snap, err := ReadSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	return Restore(snap)
}

// ReadSnapshotFile reads the raw snapshot at path without restoring it,
// exposing metadata — notably the Seq watermark — alongside the data.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var snap Snapshot
	if err := json.NewDecoder(f).Decode(&snap); err != nil {
		return nil, fmt.Errorf("persist: decoding snapshot: %w", err)
	}
	return &snap, nil
}
