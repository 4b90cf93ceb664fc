package workload

import (
	"fmt"
	"sort"
	"strings"

	"viewupdate/internal/core"
	"viewupdate/internal/faultinject"
	"viewupdate/internal/obs"
	"viewupdate/internal/persist"
	"viewupdate/internal/storage"
	"viewupdate/internal/update"
	"viewupdate/internal/vuerr"
	"viewupdate/internal/wal"
)

// ChurnConfig parameterizes a crash-churn run: a seeded SP workload
// whose view updates are translated and applied while a deterministic
// fault plan injects transient failures into the storage apply path.
// Everything — the initial state, the request stream, and the fault
// schedule — derives from SP.Seed, so the same configuration always
// produces the same run.
type ChurnConfig struct {
	// SP shapes the underlying workload; SP.Seed also seeds the fault
	// plan.
	SP SPConfig
	// Steps is the number of view update requests to attempt, cycling
	// insert, delete, replace.
	Steps int
	// FaultEveryNth injects vuerr.ErrTransient at every k-th storage
	// apply (0 disables fault injection).
	FaultEveryNth int
	// FaultLimit bounds the number of injected faults (0 = unlimited).
	FaultLimit int
	// RetryAttempts is the total number of apply attempts per request;
	// values below 1 mean a single attempt, so every injected fault
	// fails its request.
	RetryAttempts int
}

// ChurnReport summarizes a churn run. Two runs of the same
// configuration produce identical reports.
type ChurnReport struct {
	Steps   int    // requests attempted
	Applied int    // requests whose translation landed
	Failed  int    // requests that failed (translation or apply)
	Skipped int    // steps where the state admitted no request
	Faults  int    // transient faults injected
	Retries int    // extra apply attempts taken after a transient fault
	State   string // canonical rendering of the final base state
}

func (r *ChurnReport) String() string {
	return fmt.Sprintf("churn: %d steps, %d applied, %d failed, %d skipped, %d faults, %d retries",
		r.Steps, r.Applied, r.Failed, r.Skipped, r.Faults, r.Retries)
}

// RenderState canonicalizes a database state for cross-instance
// comparison: all tuples of all relations, sorted. Tuple identity is
// schema-instance-scoped, so Database.Equal cannot compare a live
// state with a recovered one; equal renderings can.
func RenderState(db *storage.Database) string {
	var lines []string
	for _, name := range db.Schema().RelationNames() {
		for _, t := range db.Tuples(name) {
			lines = append(lines, name+t.String())
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// RunChurn executes the scenario. When dir is non-empty, updates are
// applied through a durable persist.Store rooted there (so the run can
// be recovered and checked afterwards); otherwise they apply to the
// in-memory database only.
//
// RunChurn installs its fault plan process-wide for the duration of
// the call and removes it before returning; it must not race with
// other fault-injection users.
func RunChurn(cfg ChurnConfig, dir string) (*ChurnReport, error) {
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("workload: churn needs Steps > 0, got %d", cfg.Steps)
	}
	w, err := NewSP(cfg.SP)
	if err != nil {
		return nil, err
	}

	apply := w.DB.Apply
	if dir != "" {
		st, err := persist.Create(dir, w.DB, persist.Options{Sync: wal.SyncNever})
		if err != nil {
			return nil, err
		}
		defer st.Close()
		apply = st.Apply
	}

	plan := faultinject.NewPlan(cfg.SP.Seed)
	if cfg.FaultEveryNth > 0 {
		plan.FailEveryNth(faultinject.SiteApply, cfg.FaultEveryNth, cfg.FaultLimit, vuerr.ErrTransient)
	}
	faultinject.Enable(plan)
	defer faultinject.Disable()

	tr := core.NewTranslator(w.View, core.Simplest{})
	attempts := cfg.RetryAttempts
	if attempts < 1 {
		attempts = 1
	}
	kinds := []update.Kind{update.Insert, update.Delete, update.Replace}
	rep := &ChurnReport{Steps: cfg.Steps}
	for step := 0; step < cfg.Steps; step++ {
		req, ok := w.NextRequest(kinds[step%len(kinds)])
		if !ok {
			rep.Skipped++
			continue
		}
		cand, err := tr.Translate(w.DB, req)
		if err != nil {
			rep.Failed++
			continue
		}
		var applyErr error
		for attempt := 0; attempt < attempts; attempt++ {
			if attempt > 0 {
				rep.Retries++
				obs.Inc("workload.churn.retry")
			}
			applyErr = apply(cand.Translation)
			if applyErr == nil || !vuerr.IsTransient(applyErr) {
				break
			}
		}
		if applyErr != nil {
			rep.Failed++
			obs.Inc("workload.churn.failed")
			continue
		}
		rep.Applied++
	}
	rep.Faults = plan.Fired(faultinject.SiteApply)
	rep.State = RenderState(w.DB)
	return rep, nil
}
