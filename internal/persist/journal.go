package persist

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"viewupdate/internal/obs"
	"viewupdate/internal/update"
	"viewupdate/internal/wal"
)

// The journal primitive: one WAL file plus one snapshot file inside a
// directory, with the crash-safe ways to open, recover, replace and
// reset them. persist.Store is one such directory; shard.Store is N of
// them under one manifest. Everything that touches the on-disk layout
// lives here, once.

// A Journal is the append side of a directory's WAL, together with what
// it takes to reopen it after a Reset.
type Journal struct {
	*wal.Log
	path string
	sync wal.SyncPolicy
	wrap func(wal.File) wal.File
}

// OpenJournal opens dir's WAL for appending, creating it if absent.
// wrap, when non-nil, wraps the media before the log writes to it — the
// fault-injection hook (crash writers, flaky writers, slow media).
func OpenJournal(dir string, sync wal.SyncPolicy, wrap func(wal.File) wal.File) (*Journal, error) {
	j := &Journal{path: filepath.Join(dir, WALFile), sync: sync, wrap: wrap}
	if err := j.open(); err != nil {
		return nil, err
	}
	return j, nil
}

func (j *Journal) open() error {
	log, size, err := wal.OpenFile(j.path, j.sync)
	if err != nil {
		return err
	}
	if j.wrap != nil {
		// Rebuild the log around the wrapped media, at the offset the
		// plain open found.
		f, ferr := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
		log.Close()
		if ferr != nil {
			return fmt.Errorf("persist: %w", ferr)
		}
		log = wal.NewAt(j.wrap(f), j.sync, size)
	}
	j.Log = log
	return nil
}

// Reset empties the log once a snapshot covers everything in it.
func (j *Journal) Reset() error {
	if err := j.Log.Close(); err != nil {
		return err
	}
	if err := os.Truncate(j.path, 0); err != nil {
		return fmt.Errorf("persist: resetting WAL: %w", err)
	}
	return j.open()
}

// ScanJournal scans dir's WAL and cuts a torn tail off the file, so the
// next append continues the clean prefix. It returns the scan of that
// prefix and how many bytes were truncated (0 for a clean log).
func ScanJournal(dir string) (*wal.ScanResult, int64, error) {
	path := filepath.Join(dir, WALFile)
	res, err := wal.ScanFile(path)
	if err != nil || !res.Torn() {
		return res, 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: %w", err)
	}
	truncated := st.Size() - res.TornAt
	if err := os.Truncate(path, res.TornAt); err != nil {
		return nil, 0, fmt.Errorf("persist: truncating torn WAL tail: %w", err)
	}
	obs.Inc("wal.recover.torn")
	obs.Add("wal.recover.truncated_bytes", truncated)
	return res, truncated, nil
}

// ReplaceFile atomically replaces path with what write produces: the
// content goes to a temp file that is fsynced before the rename, and
// the directory is fsynced after it, so the swap survives power loss
// and a crash leaves either the old file or the new one.
func ReplaceFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// WriteSnapshot atomically replaces dir's snapshot file with snap.
func WriteSnapshot(dir string, snap *Snapshot) error {
	return ReplaceFile(filepath.Join(dir, SnapshotFile), func(w io.Writer) error {
		return encodeSnapshot(w, snap)
	})
}

// syncDir fsyncs a directory so renames inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("persist: syncing %s: %w", dir, err)
	}
	return nil
}

// Invert returns the translation that undoes tr — the rollback a store
// applies when memory moved but the journal append failed.
func Invert(tr *update.Translation) *update.Translation {
	inv := update.NewTranslation()
	for _, o := range tr.Ops() {
		switch o.Kind {
		case update.Insert:
			inv.Add(update.NewDelete(o.Tuple))
		case update.Delete:
			inv.Add(update.NewInsert(o.Tuple))
		case update.Replace:
			inv.Add(update.NewReplace(o.New, o.Old))
		}
	}
	return inv
}
