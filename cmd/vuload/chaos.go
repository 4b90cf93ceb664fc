// Chaos mode: drive keyed, idempotent inserts against a vuserved that
// something external is killing and restarting (make chaos-soak wires
// kill -9 into the scenario), retrying every operation through the
// outage on the jittered backoff schedule. Afterwards verify the crash
// contract over the wire: every acked insert is present, a retransmit
// of every acked key answers "duplicate" instead of applying again,
// and the /readyz outage window bounds the recovery time. Exits 1 on
// any lost ack, duplicate apply, or dedup miss — CI fails the build.

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// chaosReport is the BENCH_chaos.json shape.
type chaosReport struct {
	Config struct {
		Addr        string `json:"addr"`
		Clients     int    `json:"clients"`
		Requests    int    `json:"requests_per_client"`
		Seed        int64  `json:"seed"`
		OpTimeoutNS int64  `json:"op_timeout_ns"`
	} `json:"config"`
	ElapsedNS int64 `json:"elapsed_ns"`
	// Workload outcomes.
	Acked      int64 `json:"acked"`      // inserts that received a 200
	DedupHits  int64 `json:"dedup_hits"` // 200s answered from the dedup table (duplicate: true)
	Retries    int64 `json:"retries"`    // extra attempts across all ops
	Unresolved int64 `json:"unresolved"` // ops whose retry budget ran out (fate unknown)
	Rejected   int64 `json:"rejected"`   // unexpected clean rejections (4xx)
	// Contract violations — any nonzero fails the run.
	LostAcks         int64 `json:"lost_acks"`         // acked rows absent from the final view
	DuplicateApplies int64 `json:"duplicate_applies"` // acked key re-applied fresh on retransmit
	DedupMisses      int64 `json:"dedup_misses"`      // landed key the server no longer recognizes
	// Recovery, from the /readyz monitor.
	UnreadyWindows int   `json:"unready_windows"`
	RecoveryNS     int64 `json:"recovery_time_ns"` // longest contiguous unready window
	TotalUnreadyNS int64 `json:"total_unready_ns"`
}

// readyMonitor polls /readyz and measures unready windows (server
// down, draining, or degraded). The longest window is the recovery
// time: crash to serving again.
type readyMonitor struct {
	addr string
	stop chan struct{}
	done chan struct{}

	mu           sync.Mutex
	windows      int
	maxUnready   time.Duration
	totalUnready time.Duration
}

func startReadyMonitor(addr string) *readyMonitor {
	m := &readyMonitor{addr: addr, stop: make(chan struct{}), done: make(chan struct{})}
	go m.run()
	return m
}

func (m *readyMonitor) run() {
	defer close(m.done)
	hc := &http.Client{Timeout: 500 * time.Millisecond}
	var downSince time.Time
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
		ready := false
		if resp, err := hc.Get(m.addr + "/readyz"); err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			ready = resp.StatusCode == http.StatusOK
		}
		m.mu.Lock()
		switch {
		case !ready && downSince.IsZero():
			downSince = time.Now()
		case ready && !downSince.IsZero():
			w := time.Since(downSince)
			downSince = time.Time{}
			m.windows++
			m.totalUnready += w
			if w > m.maxUnready {
				m.maxUnready = w
			}
		}
		m.mu.Unlock()
	}
}

func (m *readyMonitor) finish() (windows int, max, total time.Duration) {
	close(m.stop)
	<-m.done
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.windows, m.maxUnready, m.totalUnready
}

// chaosInsert posts one keyed insert and returns the status plus the
// decoded duplicate flag.
func chaosInsert(hc *http.Client, addr, key string, emp int64) (status int, duplicate bool, retryAfter time.Duration, err error) {
	payload, _ := json.Marshal(map[string]any{"values": []string{strconv.FormatInt(emp, 10), "New York"}})
	req, err := http.NewRequest(http.MethodPost, addr+"/views/NY/insert", bytes.NewReader(payload))
	if err != nil {
		return 0, false, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	resp, err := hc.Do(req)
	if err != nil {
		return 0, false, 0, err
	}
	defer resp.Body.Close()
	var reply struct {
		Duplicate bool `json:"duplicate"`
	}
	_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&reply)
	after, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
	return resp.StatusCode, reply.Duplicate, time.Duration(after) * 100 * time.Millisecond, nil
}

// runChaos executes the chaos workload and verification; the returned
// code is the process exit status.
func runChaos(addr string, clients, requests int, seed int64, out string) int {
	rep := &chaosReport{}
	rep.Config.Addr = addr
	rep.Config.Clients = clients
	rep.Config.Requests = requests
	rep.Config.Seed = seed
	rep.Config.OpTimeoutNS = int64(chaosOpTimeout)

	mon := startReadyMonitor(addr)
	var acked, dedupHits, retries, unresolved, rejected, dedupMisses atomic.Int64
	ackedEmps := make([]map[int64]string, clients) // emp -> key, per client
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		ackedEmps[c] = map[int64]string{}
		go func(id int) {
			defer wg.Done()
			hc := &http.Client{Timeout: 5 * time.Second}
			bo := newBackoff(100*time.Millisecond, 2*time.Second, seed+int64(id))
			for j := 0; j < requests; j++ {
				emp := int64(id*requests + j + 1)
				key := fmt.Sprintf("chaos-c%d-op%d", id, j)
				deadline := time.Now().Add(chaosOpTimeout)
			attempts:
				for attempt := 0; ; attempt++ {
					status, dup, after, err := chaosInsert(hc, addr, key, emp)
					switch {
					case err == nil && status == http.StatusOK:
						acked.Add(1)
						ackedEmps[id][emp] = key
						if dup {
							dedupHits.Add(1)
						}
						break attempts
					case err == nil && status == http.StatusConflict:
						// A fresh unique key conflicting means the row landed
						// on an earlier ambiguous attempt but the key was not
						// recognized: dedup protocol violation.
						dedupMisses.Add(1)
						ackedEmps[id][emp] = key
						break attempts
					case err == nil && (status == http.StatusBadRequest ||
						status == http.StatusNotFound || status == http.StatusUnprocessableEntity):
						rejected.Add(1)
						break attempts
					default:
						// Transport error, 429, 5xx, 504: retry through the
						// outage — the idempotency key makes this safe.
						if time.Now().After(deadline) {
							unresolved.Add(1)
							break attempts
						}
						retries.Add(1)
						time.Sleep(bo.delay(attempt, after))
					}
				}
			}
		}(c)
	}
	wg.Wait()
	rep.ElapsedNS = int64(time.Since(start))
	windows, maxUnready, totalUnready := mon.finish()
	rep.UnreadyWindows = windows
	rep.RecoveryNS = int64(maxUnready)
	rep.TotalUnreadyNS = int64(totalUnready)
	rep.Acked = acked.Load()
	rep.DedupHits = dedupHits.Load()
	rep.Retries = retries.Load()
	rep.Unresolved = unresolved.Load()
	rep.Rejected = rejected.Load()
	rep.DedupMisses = dedupMisses.Load()

	// Verification pass 1: retransmit every acked key; the server must
	// answer duplicate, never re-apply.
	hc := &http.Client{Timeout: 10 * time.Second}
	for id := range ackedEmps {
		for emp, key := range ackedEmps[id] {
			status, dup, _, err := chaosInsert(hc, addr, key, emp)
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "vuload chaos: verify retransmit of %s: %v\n", key, err)
				rep.Unresolved++
			case status == http.StatusOK && dup:
				// expected
			case status == http.StatusOK:
				rep.DuplicateApplies++
			case status == http.StatusConflict:
				rep.DedupMisses++
			default:
				fmt.Fprintf(os.Stderr, "vuload chaos: verify retransmit of %s: status %d\n", key, status)
				rep.Unresolved++
			}
		}
	}

	// Verification pass 2: every acked row must be present in the view.
	present, err := chaosReadEmps(hc, addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vuload chaos: reading final view:", err)
		return 1
	}
	for id := range ackedEmps {
		for emp, key := range ackedEmps[id] {
			if !present[emp] {
				rep.LostAcks++
				fmt.Fprintf(os.Stderr, "vuload chaos: LOST ACK %s (EmpNo %d)\n", key, emp)
			}
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "vuload chaos: encoding report:", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "vuload chaos: writing report:", err)
		return 1
	}
	fmt.Printf("vuload chaos: acked=%d dedup_hits=%d retries=%d unresolved=%d lost_acks=%d duplicate_applies=%d dedup_misses=%d recovery=%s windows=%d\n",
		rep.Acked, rep.DedupHits, rep.Retries, rep.Unresolved,
		rep.LostAcks, rep.DuplicateApplies, rep.DedupMisses,
		time.Duration(rep.RecoveryNS).Round(time.Millisecond), rep.UnreadyWindows)
	if rep.LostAcks > 0 || rep.DuplicateApplies > 0 || rep.DedupMisses > 0 {
		fmt.Fprintln(os.Stderr, "vuload chaos: CRASH CONTRACT VIOLATED")
		return 1
	}
	if rep.Acked == 0 {
		fmt.Fprintln(os.Stderr, "vuload chaos: nothing was acked; the run tested nothing")
		return 1
	}
	return 0
}

// chaosReadEmps reads the NY view and returns the set of EmpNo values.
func chaosReadEmps(hc *http.Client, addr string) (map[int64]bool, error) {
	resp, err := hc.Get(addr + "/views/NY")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var reply struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil, err
	}
	col := -1
	for i, c := range reply.Columns {
		if c == "EmpNo" {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("view read has no EmpNo column (%v)", reply.Columns)
	}
	present := map[int64]bool{}
	for _, row := range reply.Rows {
		n, err := strconv.ParseInt(row[col], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("non-integer EmpNo %q", row[col])
		}
		present[n] = true
	}
	return present, nil
}
