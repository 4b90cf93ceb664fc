package chaos

import (
	"testing"

	"viewupdate/internal/faultinject"
)

// A scenario is one cell of the kill-site matrix.
type scenario struct {
	name      string
	site      string
	killAfter int
	seed      int64
}

// soak runs every scenario at the given shard count and holds the crash
// contract — zero lost acks, zero duplicate applies, zero dedup misses,
// recovered state equivalent to a fault-free replay. The fault plan is
// process-global, so scenarios run sequentially.
func soak(t *testing.T, shards int, scenarios []scenario) {
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			rep, err := Run(Config{
				Dir:       t.TempDir(),
				Seed:      sc.seed,
				Shards:    shards,
				KillSite:  sc.site,
				KillAfter: sc.killAfter,
				Logf:      t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.LostAcks > 0 {
				t.Errorf("%d acked commits lost after crash at %s", rep.LostAcks, sc.site)
			}
			if rep.DuplicateApplies > 0 {
				t.Errorf("%d duplicate applies after crash at %s", rep.DuplicateApplies, sc.site)
			}
			if rep.DedupMisses > 0 {
				t.Errorf("%d landed ops lost their idempotency key at %s", rep.DedupMisses, sc.site)
			}
			if !rep.StateMatch {
				t.Errorf("recovered state diverges from fault-free replay after crash at %s", sc.site)
			}
			if rep.Acked == 0 {
				t.Errorf("no operation was acked before the crash at %s; kill fired too early to test anything", sc.site)
			}
			if sc.site == faultinject.SiteShardPrepare && rep.PreparesAborted == 0 {
				t.Errorf("crash inside the prepare window left no in-doubt prepare to roll back; the window was not exercised")
			}
		})
	}
}

// TestChaosSoak sweeps the kill-site matrix over the single-store
// engine: at every pipeline stage boundary, crash the WAL media
// mid-run, restart, and hold the crash contract.
func TestChaosSoak(t *testing.T) {
	soak(t, 0, []scenario{
		{"admission", faultinject.SiteServerAdmission, 20, 1},
		{"translate", faultinject.SiteServerTranslate, 20, 2},
		{"commit-head", faultinject.SiteServerCommit, 4, 3},
		{"wal-append", faultinject.SiteWALAppend, 10, 4},
		{"wal-sync", faultinject.SiteWALSync, 3, 5},
		{"publish", faultinject.SiteServerPublish, 3, 6},
		// Crash while the committer holds gathered commits inside an open
		// batching window: nothing is applied or journaled yet, so every
		// windowed commit must resolve as absent-or-atomic on retry.
		{"batch-window", faultinject.SiteServerBatchWindow, 2, 9},
		{"batch-window-alt", faultinject.SiteServerBatchWindow, 5, 10},
		// A second seed on the WAL sites varies the surviving byte
		// prefix, exercising different torn-tail shapes at recovery.
		{"wal-append-alt", faultinject.SiteWALAppend, 17, 7},
		{"wal-sync-alt", faultinject.SiteWALSync, 5, 8},
	})
}

// TestShardedChaosSoak sweeps crash sites over the sharded engine, with
// the two-phase window as the headline: a crash after the prepare
// records are durable but before the decision (SiteShardPrepare) must
// roll the in-doubt prepares back at recovery — the client was never
// acked — while a crash right after the decision (SiteShardDecision)
// must keep the commit on every participant even though no ack went
// out. In both cases the recovered state must equal a fault-free
// replay of exactly the landed operations.
func TestShardedChaosSoak(t *testing.T) {
	soak(t, 4, []scenario{
		{"prepare-window", faultinject.SiteShardPrepare, 3, 11},
		{"prepare-window-alt", faultinject.SiteShardPrepare, 9, 12},
		{"decision", faultinject.SiteShardDecision, 3, 13},
		{"decision-alt", faultinject.SiteShardDecision, 8, 14},
		{"wal-append", faultinject.SiteWALAppend, 12, 15},
		{"wal-sync", faultinject.SiteWALSync, 5, 16},
		{"commit-head", faultinject.SiteServerCommit, 4, 17},
	})
}

// TestRunRequiresKill pins the harness's own guard: a kill point that
// the workload never reaches is an error, not a silent pass.
func TestRunRequiresKill(t *testing.T) {
	_, err := Run(Config{
		Dir:       t.TempDir(),
		Seed:      1,
		Clients:   1,
		Ops:       2,
		KillSite:  faultinject.SiteServerCommit,
		KillAfter: 1000,
	})
	if err == nil {
		t.Fatal("Run with an unreachable kill point should fail")
	}
}
