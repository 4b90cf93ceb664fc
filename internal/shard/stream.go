package shard

import (
	"path/filepath"

	"viewupdate/internal/persist"
	"viewupdate/internal/wal"
)

// CommittedAfter reassembles the global commit sequence after cursor
// from the shard WALs on disk (wal.Reassemble, with cursor as every
// log's floor): a cross-shard commit comes back as one
// KindTranslation record per seq, its participants' parts in shard
// order — the same records, in the same order, recovery replays.
//
// The replication stream handler calls this when a follower's resume
// point has fallen off the in-memory backlog. Scanning races the live
// committers harmlessly: a torn tail or a translation whose commit
// marker has not reached media yet is simply not served, and the
// stream feed covers it once durable. Commits at or below SnapshotSeq
// may be folded away and cannot be reassembled — callers must refuse
// those resume points first.
func (s *Store) CommittedAfter(cursor uint64) ([]wal.Record, error) {
	n := s.m.N()
	logs := make([]*wal.ScanResult, n)
	floors := make([]uint64, n)
	for i := range logs {
		res, err := wal.ScanFile(filepath.Join(shardDir(s.dir, i), persist.WALFile))
		if err != nil {
			return nil, err
		}
		logs[i], floors[i] = res, cursor
	}
	return wal.Reassemble(logs, floors).Records, nil
}
