package shard

import (
	"path/filepath"
	"sort"

	"viewupdate/internal/persist"
	"viewupdate/internal/wal"
)

// CommittedAfter reassembles the global commit sequence after cursor
// from the shard WALs on disk: every shard's log is scanned, decision
// records are unioned across the fleet (a participant's prepare
// resolves against the coordinator's decision), and the committed
// records are merged back into global sequence order. A cross-shard
// commit — one prepare record per participant, each holding that
// shard's slice of the ops — is folded into a single KindTranslation
// record per seq, parts concatenated in shard order (the same stable
// order recovery replays them in).
//
// The replication stream handler calls this when a follower's resume
// point has fallen off the in-memory backlog. Scanning races the live
// committers harmlessly: a torn tail or a translation whose commit
// marker has not reached media yet is simply not served, and the stream feed
// covers it once durable. Commits at or below SnapshotSeq may be
// folded away and cannot be reassembled — callers must refuse those
// resume points first.
func (s *Store) CommittedAfter(cursor uint64) ([]wal.Record, error) {
	n := s.m.N()
	results := make([]*wal.ScanResult, n)
	for i := 0; i < n; i++ {
		res, err := wal.ScanFile(filepath.Join(shardDir(s.dir, i), persist.WALFile))
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	decisions := map[uint64]bool{}
	for _, res := range results {
		for seq := range res.Decisions() {
			decisions[seq] = true
		}
	}
	type part struct {
		shard int
		rec   wal.Record
	}
	var all []part
	for i, res := range results {
		committed, _, _ := res.CommittedWith(decisions)
		for _, rec := range committed {
			if rec.Seq > cursor {
				all = append(all, part{shard: i, rec: rec})
			}
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].rec.Seq != all[b].rec.Seq {
			return all[a].rec.Seq < all[b].rec.Seq
		}
		return all[a].shard < all[b].shard
	})
	out := make([]wal.Record, 0, len(all))
	for _, p := range all {
		if len(out) > 0 && out[len(out)-1].Seq == p.rec.Seq {
			last := &out[len(out)-1]
			last.Ops = append(last.Ops, p.rec.Ops...)
			if last.Key == "" {
				last.Key = p.rec.Key
			}
			continue
		}
		out = append(out, wal.Record{
			Seq:  p.rec.Seq,
			Kind: wal.KindTranslation,
			Ops:  append([]wal.OpRecord(nil), p.rec.Ops...),
			Key:  p.rec.Key,
		})
	}
	return out, nil
}
