// Package chaos is the end-to-end crash-restart soak harness: it
// drives a live serving engine over the wire while a seeded failpoint
// kills the WAL media at an exact pipeline stage boundary, restarts
// the engine from whatever bytes survived, and verifies the crash
// contract from the client's point of view:
//
//   - acked implies durable: every commit a client saw a 200 for is
//     present after recovery (zero lost acks);
//   - unacked is absent-or-atomic: an op whose outcome the crash made
//     ambiguous either landed exactly once or not at all, and an
//     idempotent retry resolves which without double-applying;
//   - the recovered state is equivalent to a fault-free replay of
//     exactly the landed operations.
//
// The harness runs in-process (httptest server, real HTTP client, real
// engine, real WAL on a real directory) so one test binary can sweep a
// seed x kill-site matrix deterministically. make chaos-soak and the
// CI chaos job run the sweep; cmd/vuload -chaos is the out-of-process
// variant against a separately-killed vuserved.
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"time"

	"viewupdate/internal/faultinject"
	"viewupdate/internal/server"
	"viewupdate/internal/wal"
	"viewupdate/internal/workload"
)

// A soakLoad is the schema a soak runs over and the one keyed insert it
// issues per op, identified by a unique integer id.
type soakLoad struct {
	script string
	view   string
	column string // view column holding the op id
	values func(id int) []string
}

// InitScript is the unsharded soak schema: one keyed table, one
// selection view. EmpNo ranges wide enough that every client can insert
// a unique key.
const InitScript = `
CREATE DOMAIN KeyDom AS INT RANGE 1 TO 100000;
CREATE DOMAIN LocDom AS STRING ('NY', 'SF');
CREATE TABLE EMP (EmpNo KeyDom, Location LocDom, PRIMARY KEY (EmpNo));
CREATE VIEW NY AS SELECT * FROM EMP WHERE Location = 'NY';
`

// ShardedInitScript is the sharded soak schema: a parent/child pair
// under an inclusion dependency and a join view rooted at the child.
// Every workload op inserts a fresh (employee, department) pair through
// the join view, so SPJ-I extends BOTH relations — a cross-shard commit
// whenever the two root keys hash to different shards.
const ShardedInitScript = `
CREATE DOMAIN EKey AS INT RANGE 1 TO 100000;
CREATE DOMAIN DKey AS INT RANGE 1 TO 100000;
CREATE DOMAIN Funds AS INT RANGE 0 TO 100;
CREATE TABLE DEPT (DNo DKey, Budget Funds, PRIMARY KEY (DNo));
CREATE TABLE EMP (ENo EKey, Dept DKey, PRIMARY KEY (ENo),
                  FOREIGN KEY (Dept) REFERENCES DEPT);
CREATE VIEW DV AS SELECT * FROM DEPT;
CREATE VIEW EV AS SELECT * FROM EMP;
CREATE JOIN VIEW ED ROOT EV WITH EV (Dept) REFERENCES DV;
`

var (
	spWorkload = soakLoad{script: InitScript, view: "NY", column: "EmpNo",
		values: func(id int) []string { return []string{strconv.Itoa(id), "NY"} }}
	// Employee and department keys are unique per op, so retries are
	// conflict-free and every insert extends a fresh parent: child
	// attributes first, then the extended parent.
	joinWorkload = soakLoad{script: ShardedInitScript, view: "ED", column: "ENo",
		values: func(id int) []string {
			dno := strconv.Itoa(50000 + id%50000)
			return []string{strconv.Itoa(id), dno, dno, "7"}
		}}
)

// Config parameterizes one soak run.
type Config struct {
	// Dir is the durable store directory (required; the crash-restart
	// cycle reopens it).
	Dir string
	// Seed drives every random choice: the crash cut-offs and the fault
	// plan. Same seed, same kill site, same schedule.
	Seed int64
	// Shards, when above 1, soaks a sharded engine over the join-view
	// workload. The contract gains the cross-shard clauses: an acked
	// commit is durable on EVERY participant shard even when the crash
	// lands inside the two-phase window, and an unacked prepare rolls
	// back at recovery (presumed abort) instead of surfacing a
	// half-applied translation.
	Shards int
	// Clients is how many concurrent writers run. Default 4.
	Clients int
	// Ops is how many inserts each client issues. Default 25.
	Ops int
	// KillSite is the failpoint site whose KillAfter-th hit crashes the
	// WAL media (one of the faultinject.Site* constants). Sharded runs
	// add faultinject.SiteShardPrepare (prepares durable, decision not
	// yet written — the presumed-abort window) and SiteShardDecision
	// (decision durable, acks pending).
	KillSite string
	// KillAfter is the 1-based hit number at KillSite that triggers the
	// crash. Default 1.
	KillAfter int
	// Logf, when non-nil, receives progress lines (testing.T.Logf).
	Logf func(format string, args ...any)
}

// A Report is the verdict of one soak run. A run passes when
// LostAcks, DuplicateApplies and DedupMisses are all zero and
// StateMatch is true.
type Report struct {
	Acked     int `json:"acked"`     // 200s before the crash
	Ambiguous int `json:"ambiguous"` // 5xx/504/transport outcomes before recovery
	Rejected  int `json:"rejected"`  // clean admission rejections (429)
	KillHits  int `json:"kill_hits"` // hits observed at the kill site
	// Post-recovery resolution of every non-clean outcome.
	ResolvedLanded int `json:"resolved_landed"` // retry answered duplicate: the op had landed
	RetriedFresh   int `json:"retried_fresh"`   // retry applied fresh: the op had not landed
	// Violations. All must be zero.
	LostAcks         int `json:"lost_acks"`         // acked rows missing after recovery
	DuplicateApplies int `json:"duplicate_applies"` // a landed op applied again on retry
	DedupMisses      int `json:"dedup_misses"`      // landed op whose key recovery forgot
	// RecoveryNS is engine start to first /readyz 200 after the crash.
	RecoveryNS int64 `json:"recovery_ns"`
	// StateMatch is true when the recovered state renders identically
	// to a fault-free replay of exactly the landed operations.
	StateMatch bool `json:"state_match"`
	// Sharded runs only: the restarted store's resolution of every
	// prepare record found in the shard WALs — committed when a durable
	// decision covered it, rolled back otherwise.
	PreparesCommitted int `json:"prepares_committed,omitempty"`
	PreparesAborted   int `json:"prepares_aborted,omitempty"`
}

// Ok reports whether the run satisfied the crash contract.
func (r *Report) Ok() bool {
	return r.LostAcks == 0 && r.DuplicateApplies == 0 && r.DedupMisses == 0 && r.StateMatch
}

func (r *Report) String() string {
	return fmt.Sprintf("chaos: acked=%d ambiguous=%d rejected=%d resolved_landed=%d retried_fresh=%d lost_acks=%d duplicate_applies=%d dedup_misses=%d recovery=%s state_match=%v prepares_committed=%d prepares_aborted=%d",
		r.Acked, r.Ambiguous, r.Rejected, r.ResolvedLanded, r.RetriedFresh,
		r.LostAcks, r.DuplicateApplies, r.DedupMisses, time.Duration(r.RecoveryNS), r.StateMatch,
		r.PreparesCommitted, r.PreparesAborted)
}

// opResult is one client operation's pre-crash outcome.
type opResult struct {
	key string // idempotency key
	id  int    // unique id the op inserts
	// outcome: "acked", "ambiguous" (5xx, 504, transport error: fate
	// unknown until the post-recovery retry), "rejected" (429: nothing
	// enqueued, safe to retry fresh).
	outcome string
}

// updateWire mirrors the server's update reply fields the harness
// needs.
type updateWire struct {
	OK        bool   `json:"ok"`
	Version   uint64 `json:"version"`
	Duplicate bool   `json:"duplicate"`
	Error     string `json:"error"`
	Code      string `json:"code"`
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Clients <= 0 {
		out.Clients = 4
	}
	if out.Ops <= 0 {
		out.Ops = 25
	}
	if out.KillAfter <= 0 {
		out.KillAfter = 1
	}
	return out
}

// Run executes one soak: load, crash, restart, verify.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("chaos: Config.Dir is required")
	}
	if cfg.KillSite == "" {
		return nil, fmt.Errorf("chaos: Config.KillSite is required")
	}
	wl, lanes := spWorkload, 1
	if cfg.Shards > 1 {
		wl, lanes = joinWorkload, cfg.Shards
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &Report{}

	// Phase 1: engine on crashable media — one armed writer per journal
	// lane, re-armed whenever a checkpoint reopens a log.
	var armedMu sync.Mutex
	armed := map[int]*faultinject.ArmedCrashWriter{}
	keep := make([]int64, lanes) // in-flight bytes the "kernel" still persists, per lane
	for i := range keep {
		keep[i] = rng.Int63n(4096)
	}
	eng, err := server.NewEngine(server.Config{
		Dir: cfg.Dir, Shards: cfg.Shards, MaxInFlight: 16, MaxBatch: 8,
		// Much wider than the production default: with the window larger
		// than the workload's inter-arrival estimate, the committer opens
		// it on nearly every gather, so the mid-window kill scenarios
		// reach SiteServerBatchWindow reliably on any scheduler timing.
		MaxBatchDelay:   2 * time.Millisecond,
		RequestTimeout:  2 * time.Second,
		BreakerCooldown: time.Minute, // stay browned out once tripped
		WrapWAL: func(lane int, f wal.File) wal.File {
			w := &faultinject.ArmedCrashWriter{W: f}
			armedMu.Lock()
			armed[lane] = w
			armedMu.Unlock()
			return w
		},
	}, wl.script)
	if err != nil {
		return nil, fmt.Errorf("chaos: starting engine: %w", err)
	}
	srv := httptest.NewServer(server.NewHandler(eng))

	// Warmup before the fault plan arms: a handful of keyed ops that are
	// guaranteed to ack on healthy media, so every scenario has acked
	// commits whose survival the crash can threaten — regardless of how
	// the scheduler interleaves the concurrent phase with the kill.
	client := &http.Client{Timeout: 5 * time.Second}
	var results []opResult
	for i := 0; i < 5; i++ {
		r := opResult{key: fmt.Sprintf("warm-%d", i), id: 90000 + i, outcome: "acked"}
		reply, status, err := wl.post(client, srv.URL, r.key, r.id)
		if err != nil || status != http.StatusOK || !reply.OK {
			srv.Close()
			eng.Close()
			return nil, fmt.Errorf("chaos: warmup op %d failed: status %d, err %v", i, status, err)
		}
		results = append(results, r)
	}

	// The kill crashes EVERY lane's media at once — process-crash
	// semantics — but each lane keeps a different surviving prefix, so
	// recovery sees shards torn at different points.
	plan := faultinject.NewPlan(cfg.Seed)
	plan.CallNth(cfg.KillSite, cfg.KillAfter, func() {
		armedMu.Lock()
		for lane, w := range armed {
			w.Crash(keep[lane])
		}
		armedMu.Unlock()
	})
	faultinject.Enable(plan)
	defer faultinject.Disable()
	cfg.logf("chaos: kill point %s hit %d armed over %d lane(s), seed=%d",
		cfg.KillSite, cfg.KillAfter, lanes, cfg.Seed)

	results = append(results, driveClients(&cfg, wl, srv.URL)...)
	rep.KillHits = plan.Hits(cfg.KillSite)

	// Phase 2: the crash. Kill drains the pipeline without checkpointing
	// — the WALs keep their tails exactly as a dead process would leave
	// them.
	eng.Kill()
	srv.Close()
	faultinject.Disable()
	if rep.KillHits < cfg.KillAfter {
		return nil, fmt.Errorf("chaos: kill site %s never reached hit %d (saw %d hits); workload too small",
			cfg.KillSite, cfg.KillAfter, rep.KillHits)
	}

	for _, r := range results {
		switch r.outcome {
		case "acked":
			rep.Acked++
		case "ambiguous":
			rep.Ambiguous++
		default:
			rep.Rejected++
		}
	}

	// Phase 3: restart on healthy media and measure time to ready.
	t0 := time.Now()
	eng2, err := server.NewEngine(server.Config{
		Dir: cfg.Dir, Shards: cfg.Shards, MaxInFlight: 16, MaxBatch: 8, RequestTimeout: 2 * time.Second,
	}, wl.script)
	if err != nil {
		return nil, fmt.Errorf("chaos: restarting engine after crash: %w", err)
	}
	defer eng2.Close()
	if st := eng2.ShardStore(); st != nil {
		rep.PreparesCommitted = st.Report().PreparesCommitted
		rep.PreparesAborted = st.Report().PreparesAborted
	}
	srv2 := httptest.NewServer(server.NewHandler(eng2))
	defer srv2.Close()
	if err := waitReady(srv2.URL, 5*time.Second); err != nil {
		return nil, err
	}
	rep.RecoveryNS = int64(time.Since(t0))

	// Phase 4: resolve every outcome with an idempotent retry. The dedup
	// table was re-seeded from the WAL(s); a landed op answers duplicate,
	// an unlanded one applies fresh.
	landed := map[int]bool{} // id -> landed (originally or via fresh retry)
	for _, r := range results {
		reply, status, err := wl.post(client, srv2.URL, r.key, r.id)
		if err != nil {
			return nil, fmt.Errorf("chaos: post-recovery retry of %s: %w", r.key, err)
		}
		switch {
		case status == http.StatusOK && reply.Duplicate:
			// The op had landed; the dedup table replayed its outcome —
			// expected for an acked op, a resolution for any other.
			landed[r.id] = true
			if r.outcome != "acked" {
				rep.ResolvedLanded++
			}
		case status == http.StatusOK:
			// Applied fresh: the op had NOT landed before the crash.
			landed[r.id] = true
			if r.outcome == "acked" {
				// An acked op re-applied: the ack was lost AND the dedup
				// table forgot it — double violation.
				rep.DuplicateApplies++
			} else {
				rep.RetriedFresh++
			}
		case status == http.StatusConflict:
			// The row exists but the key was not recognized: the op
			// landed, yet retry tried to re-apply and only the primary
			// key saved it. A non-keyed op would have applied twice.
			landed[r.id] = true
			rep.DedupMisses++
		default:
			return nil, fmt.Errorf("chaos: retry of %s answered %d %s: %s", r.key, status, reply.Code, reply.Error)
		}
	}

	// Phase 5: verify acked-implies-durable against the recovered view.
	// Sharded, that means durable on every shard: the join view only
	// shows an employee whose department also survived, so a half-applied
	// cross-shard commit would drop out of it.
	present, err := readViewInts(client, srv2.URL, wl.view, wl.column)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.outcome == "acked" && !present[r.id] {
			rep.LostAcks++
			cfg.logf("chaos: LOST ACK: %s (%s %d) was acked but is absent after recovery", r.key, wl.column, r.id)
		}
	}

	// Phase 6: state equivalence — the recovered state must render
	// identically to a fault-free replay of exactly the landed ops. An
	// unacked prepare that leaked into the state — instead of rolling
	// back — shows up here as a divergence.
	rep.StateMatch, err = stateMatchesReplay(eng2, wl, landed)
	if err != nil {
		return nil, err
	}
	cfg.logf("%s", rep.String())
	return rep, nil
}

// driveClients runs the concurrent insert workload and classifies every
// outcome. Clients keep issuing through the crash — post-crash failures
// are the brownout behavior under test.
func driveClients(cfg *Config, wl soakLoad, baseURL string) []opResult {
	var mu sync.Mutex
	var results []opResult
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for j := 0; j < cfg.Ops; j++ {
				r := opResult{key: fmt.Sprintf("c%d-op%d", c, j), id: c*cfg.Ops + j + 1}
				reply, status, err := wl.post(client, baseURL, r.key, r.id)
				switch {
				case err != nil:
					r.outcome = "ambiguous" // transport error: fate unknown
				case status == http.StatusOK && reply.OK:
					r.outcome = "acked"
				case status == http.StatusTooManyRequests:
					r.outcome = "rejected" // nothing enqueued
				default:
					// Any 5xx or 504 is ambiguous under crashing media: a
					// "clean" failure report may itself predate a WAL tail
					// that survives into recovery.
					r.outcome = "ambiguous"
				}
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	sort.Slice(results, func(i, j int) bool { return results[i].id < results[j].id })
	return results
}

// post issues the workload's insert of id, keyed when key is non-empty.
func (wl soakLoad) post(client *http.Client, baseURL, key string, id int) (updateWire, int, error) {
	body, _ := json.Marshal(map[string]any{"values": wl.values(id)})
	req, err := http.NewRequest(http.MethodPost, baseURL+"/views/"+wl.view+"/insert", bytes.NewReader(body))
	if err != nil {
		return updateWire{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := client.Do(req)
	if err != nil {
		return updateWire{}, 0, err
	}
	defer resp.Body.Close()
	var reply updateWire
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return updateWire{}, resp.StatusCode, fmt.Errorf("decoding reply: %w", err)
	}
	return reply, resp.StatusCode, nil
}

// waitReady polls /readyz until it answers 200.
func waitReady(baseURL string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(baseURL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("chaos: engine not ready within %s after restart", timeout)
}

// readViewInts reads a view and returns the set of integer values in
// the named column.
func readViewInts(client *http.Client, baseURL, view, column string) (map[int]bool, error) {
	resp, err := client.Get(baseURL + "/views/" + view)
	if err != nil {
		return nil, fmt.Errorf("chaos: reading recovered view %s: %w", view, err)
	}
	defer resp.Body.Close()
	var reply struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil, fmt.Errorf("chaos: decoding view read: %w", err)
	}
	col := -1
	for i, c := range reply.Columns {
		if c == column {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("chaos: view %s has no %s column (columns %v)", view, column, reply.Columns)
	}
	present := map[int]bool{}
	for _, row := range reply.Rows {
		n, err := strconv.Atoi(row[col])
		if err != nil {
			return nil, fmt.Errorf("chaos: non-integer %s %q in view read", column, row[col])
		}
		present[n] = true
	}
	return present, nil
}

// stateMatchesReplay replays exactly the landed ids into a fresh
// in-memory engine and compares canonical state renderings: the
// recovered database must be indistinguishable from one that never saw
// a fault.
func stateMatchesReplay(recovered *server.Engine, wl soakLoad, landed map[int]bool) (bool, error) {
	ref, err := server.NewEngine(server.Config{}, wl.script)
	if err != nil {
		return false, fmt.Errorf("chaos: building replay reference: %w", err)
	}
	defer ref.Close()
	srv := httptest.NewServer(server.NewHandler(ref))
	defer srv.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	ids := make([]int, 0, len(landed))
	for id := range landed {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		reply, status, err := wl.post(client, srv.URL, "", id)
		if err != nil || status != http.StatusOK {
			return false, fmt.Errorf("chaos: replaying id %d: status %d, code %s, err %v", id, status, reply.Code, err)
		}
	}
	got, _ := recovered.Snapshot()
	want, _ := ref.Snapshot()
	return workload.RenderState(got) == workload.RenderState(want), nil
}
