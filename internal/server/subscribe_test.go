package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"viewupdate/internal/faultinject"
	"viewupdate/internal/replica"
	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
)

// sseEvent is one parsed server-sent event; its id, <run>.<version>,
// is split into run and id.
type sseEvent struct {
	run  string
	id   uint64
	name string
	data string
}

// nextSSE parses the next event off the stream, skipping comment
// keepalives.
func nextSSE(r *bufio.Reader) (sseEvent, error) {
	var cur sseEvent
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return sseEvent{}, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			run, version, ok := strings.Cut(strings.TrimPrefix(line, "id: "), ".")
			if !ok {
				return sseEvent{}, fmt.Errorf("event id %q has no run", line)
			}
			cur.run = run
			if cur.id, err = strconv.ParseUint(version, 10, 64); err != nil {
				return sseEvent{}, err
			}
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.name != "":
			return cur, nil
		}
	}
}

// readSSE parses n events off the stream.
func readSSE(t *testing.T, r *bufio.Reader, n int) []sseEvent {
	t.Helper()
	var out []sseEvent
	for len(out) < n {
		ev, err := nextSSE(r)
		if err != nil {
			t.Fatalf("reading SSE after %d events: %v", len(out), err)
		}
		out = append(out, ev)
	}
	return out
}

// A mirror rebuilds one view from its /subscribe events alone, as an
// SSE client would: it opens the stream (hello), applies each change
// strictly — ids of one run, strictly increasing; removed rows
// present, added rows absent; so a gap or a duplicate cannot pass
// unseen — and whenever the stream ends, reconnects with Last-Event-ID.
// Rows are cells joined by commas.
type mirror struct {
	url    string
	mu     sync.Mutex
	rows   map[string]bool
	tag    string // the run of the first hello's id
	last   uint64
	opens  []string // the event that opened each connection
	err    error
	cancel context.CancelFunc
	done   chan struct{}
}

// startMirror subscribes to url and returns once the stream is open.
func startMirror(t *testing.T, url string) *mirror {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	m := &mirror{url: url, rows: map[string]bool{}, cancel: cancel, done: make(chan struct{})}
	body, br, err := m.connect(ctx)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	go m.run(ctx, body, br)
	t.Cleanup(m.stop)
	return m
}

func (m *mirror) stop() {
	m.cancel()
	<-m.done
}

// connect opens one stream — resuming after the last id seen, once
// there is one — and reads its opening event.
func (m *mirror) connect(ctx context.Context) (io.ReadCloser, *bufio.Reader, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url, nil)
	if err != nil {
		return nil, nil, err
	}
	m.mu.Lock()
	resume := len(m.opens) > 0
	if resume {
		req.Header.Set("Last-Event-ID", eventID(m.tag, m.last))
	}
	m.mu.Unlock()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, nil, fmt.Errorf("subscribe %s: status %d", m.url, resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	ev, err := nextSSE(br)
	if err != nil {
		resp.Body.Close()
		return nil, nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.opens = append(m.opens, ev.name)
	switch {
	case ev.name == "hello" && !resume:
		m.tag, m.last = ev.run, ev.id
	case ev.name == "hello" && (ev.run != m.tag || ev.id != m.last):
		m.fail(fmt.Errorf("resumed after %d, hello says %d", m.last, ev.id))
	case ev.name != "hello":
		m.fail(fmt.Errorf("stream opened with %s (%s)", ev.name, ev.data))
	}
	return resp.Body, br, nil
}

func (m *mirror) run(ctx context.Context, body io.ReadCloser, br *bufio.Reader) {
	defer close(m.done)
	for {
		ev, err := nextSSE(br)
		if err == nil {
			m.apply(ev)
			continue
		}
		body.Close()
		if ctx.Err() != nil {
			return
		}
		for body, br, err = m.connect(ctx); err != nil; body, br, err = m.connect(ctx) {
			if ctx.Err() != nil {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func (m *mirror) apply(ev sseEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var ch struct {
		Version        uint64
		Removed, Added [][]string
	}
	switch {
	case ev.name != "change":
		m.fail(fmt.Errorf("unexpected %s event mid-stream", ev.name))
	case json.Unmarshal([]byte(ev.data), &ch) != nil || ch.Version != ev.id || ev.run != m.tag:
		m.fail(fmt.Errorf("change %s.%d: bad data %s", ev.run, ev.id, ev.data))
	case ev.id <= m.last:
		m.fail(fmt.Errorf("change %d after %d: duplicate or out of order", ev.id, m.last))
	}
	for _, row := range ch.Removed {
		if k := strings.Join(row, ","); !m.rows[k] {
			m.fail(fmt.Errorf("change %d removes absent row %s", ev.id, k))
		} else {
			delete(m.rows, k)
		}
	}
	for _, row := range ch.Added {
		if k := strings.Join(row, ","); m.rows[k] {
			m.fail(fmt.Errorf("change %d adds present row %s", ev.id, k))
		} else {
			m.rows[k] = true
		}
	}
	m.last = max(m.last, ev.id)
}

func (m *mirror) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// state returns the rebuilt rows, sorted, and the first error seen.
func (m *mirror) state() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rows := make([]string, 0, len(m.rows))
	for k := range m.rows {
		rows = append(rows, k)
	}
	sort.Strings(rows)
	return rows, m.err
}

// waitFor waits until the rebuilt rows equal want (sorted), failing on
// the first error the mirror saw.
func (m *mirror) waitFor(t *testing.T, what string, want []string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := m.state()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if slices.Equal(got, want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: rebuilt from events %v, want %v", what, got, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// setRows renders a set of view rows as a mirror does.
func setRows(set *tuple.Set) []string {
	rows := make([]string, 0, set.Len())
	for _, t := range set.Slice() {
		rows = append(rows, strings.Join(wireRow(t), ","))
	}
	sort.Strings(rows)
	return rows
}

// TestSubscribeResumeAfterShed: a subscriber shed mid-stream
// reconnects with Last-Event-ID and receives every change after that
// version exactly once, so the view it rebuilds from events alone
// equals the primary's; a Last-Event-ID older than the view's retained
// window gets exactly one resync event, then the live changes.
func TestSubscribeResumeAfterShed(t *testing.T) {
	e, srv := newTestServer(t, nil)
	// Versions that predate NY's feed: the window starts at the first
	// subscription.
	if _, err := e.ExecScript("CREATE VIEW SF AS SELECT * FROM EMP WHERE Location = 'SF';"); err != nil {
		t.Fatal(err)
	}
	if err := insertSF(e, 50); err != nil {
		t.Fatal(err)
	}
	m := startMirror(t, srv.URL+"/subscribe/NY")

	plan := faultinject.NewPlan(1).FailNth(faultinject.SiteSubscribeSend, 3, errors.New("shed"))
	faultinject.Enable(plan)
	defer faultinject.Disable()
	for k := 1; k <= 6; k++ {
		if err := insertKey(e, k); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []int{2, 5} {
		body := updateBody{Where: map[string]string{"EmpNo": strconv.Itoa(k)}}
		cand, _, _, base, err := e.Translate(context.Background(), "NY", nil, e.buildRequest(update.Delete, body))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Commit(context.Background(), cand.Translation, false, base); err != nil {
			t.Fatal(err)
		}
	}
	set, _, err := e.ReadView("NY")
	if err != nil {
		t.Fatal(err)
	}
	m.waitFor(t, "resumed subscriber", setRows(set))
	if plan.Fired(faultinject.SiteSubscribeSend) != 1 {
		t.Fatalf("%d sheds injected, want 1", plan.Fired(faultinject.SiteSubscribeSend))
	}
	m.mu.Lock()
	opens := slices.Clone(m.opens)
	m.mu.Unlock()
	if !slices.Equal(opens, []string{"hello", "hello"}) {
		t.Fatalf("connections opened with %v, want a hello and a resumed hello", opens)
	}

	// Version 0 predates the window: one resync at the live version,
	// then changes as they commit.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/subscribe/NY", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", eventID(e.subs.run, 0))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	_, live := e.Snapshot()
	if ev := readSSE(t, br, 1)[0]; ev.name != "resync" || ev.run != e.subs.run || ev.id != live {
		t.Fatalf("stale Last-Event-ID opened with %+v, want one resync at %d", ev, live)
	}
	if err := insertKey(e, 7); err != nil {
		t.Fatal(err)
	}
	if ev := readSSE(t, br, 1)[0]; ev.name != "change" || ev.id != live+1 || !strings.Contains(ev.data, `"added":[["7","NY"]]`) {
		t.Fatalf("after the resync: %+v, want the change at %d", ev, live+1)
	}
}

// eventID renders a Last-Event-ID as the server issues it.
func eventID(run string, version uint64) string {
	return run + "." + strconv.FormatUint(version, 10)
}

// subscribeFrom opens /subscribe/NY with the given Last-Event-ID ("" for
// none) and returns the stream's reader and a func that ends the stream
// (which the test's end also does).
func subscribeFrom(t *testing.T, url, lastID string) (*bufio.Reader, func()) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/subscribe/NY", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	stop := func() {
		cancel()
		resp.Body.Close()
	}
	t.Cleanup(stop)
	return bufio.NewReader(resp.Body), stop
}

// TestSubscribeResumeAcrossRuns: versions restart at 0 on every boot,
// so a Last-Event-ID from before a restart names a version the new run
// may have passed with different changes. Such an id, or one without a
// run, gets one resync at the live version, never a replay of the new
// run's changes.
func TestSubscribeResumeAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, dir, nil)
	srv := httptest.NewServer(NewHandler(e))
	br, _ := subscribeFrom(t, srv.URL, "")
	readSSE(t, br, 1) // hello
	for k := 1; k <= 3; k++ {
		if err := insertKey(e, k); err != nil {
			t.Fatal(err)
		}
	}
	old := readSSE(t, br, 3)[2]
	srv.CloseClientConnections()
	srv.Close()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newTestEngine(t, dir, nil)
	srv2 := httptest.NewServer(NewHandler(e2))
	t.Cleanup(srv2.Close)
	if e2.subs.run == old.run {
		t.Fatal("a restarted engine reuses its predecessor's run tag")
	}
	// Hold NY's feed open from the new run's first version on, so the
	// old id lies inside its window once the new run has passed it.
	br2, _ := subscribeFrom(t, srv2.URL, "")
	readSSE(t, br2, 1)
	for k := 11; k <= 15; k++ {
		if err := insertKey(e2, k); err != nil {
			t.Fatal(err)
		}
	}
	_, live := e2.Snapshot()
	if live <= old.id {
		t.Fatalf("the new run is at version %d, not past the old id %d", live, old.id)
	}
	for _, id := range []string{eventID(old.run, old.id), strconv.FormatUint(old.id, 10)} {
		br, stop := subscribeFrom(t, srv2.URL, id)
		ev := readSSE(t, br, 1)[0]
		stop()
		if ev.name != "resync" || ev.run != e2.subs.run || ev.id != live {
			t.Fatalf("Last-Event-ID %s opened with %+v, want one resync at %s.%d", id, ev, e2.subs.run, live)
		}
	}
}

// TestSubscribeFeedLingers: a view's feed outlives its last subscriber
// for the linger, so a reconnect inside it resumes; the first commit
// after it drops the feed, and with it the per-commit delta work.
func TestSubscribeFeedLingers(t *testing.T) {
	e, srv := newTestServer(t, nil)
	left := func(what string) {
		t.Helper()
		waitUntil(t, 5*time.Second, what, func() bool {
			fds := e.subs.active()
			return len(fds) == 1 && fds[0].Tails() == 0
		})
	}
	br, stop := subscribeFrom(t, srv.URL, "")
	hello := readSSE(t, br, 1)[0]
	stop()
	left("the subscriber leaving")
	if err := insertKey(e, 1); err != nil {
		t.Fatal(err)
	}
	if e.subs.n.Load() != 1 {
		t.Fatal("feed dropped inside the linger")
	}
	br, stop = subscribeFrom(t, srv.URL, eventID(hello.run, hello.id))
	if evs := readSSE(t, br, 2); evs[0].name != "hello" || evs[0].id != hello.id || evs[1].id != hello.id+1 {
		t.Fatalf("reconnect inside the linger opened with %+v, want hello at %d and the change after it", evs, hello.id)
	}
	stop()
	left("the reconnected subscriber leaving")

	e.subs.linger = 0
	if err := insertKey(e, 2); err != nil {
		t.Fatal(err)
	}
	if e.subs.n.Load() != 0 {
		t.Fatal("feed kept past the linger with no subscriber")
	}
}

// TestSubscribeStream: a /subscribe stream opens with a hello frame
// (columns + live-from version) and pushes each commit's row delta.
func TestSubscribeStream(t *testing.T) {
	e, srv := newTestServer(t, nil)

	resp, err := http.Get(srv.URL + "/subscribe/NY")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("subscribe = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	br := bufio.NewReader(resp.Body)
	hello := readSSE(t, br, 1)[0]
	if hello.name != "hello" || !strings.Contains(hello.data, `"columns":["EmpNo","Location"]`) {
		t.Fatalf("hello = %+v", hello)
	}

	if err := insertKey(e, 7); err != nil {
		t.Fatal(err)
	}
	ev := readSSE(t, br, 1)[0]
	if ev.name != "change" {
		t.Fatalf("event = %+v", ev)
	}
	if !strings.Contains(ev.data, `"added":[["7","NY"]]`) || !strings.Contains(ev.data, `"removed":[]`) {
		t.Fatalf("change data = %s", ev.data)
	}

	// A commit that misses the view's selection produces no event; the
	// next hit arrives as the very next frame.
	if _, err := e.ExecScript("CREATE VIEW SF AS SELECT * FROM EMP WHERE Location = 'SF';"); err != nil {
		t.Fatal(err)
	}
	if err := insertSF(e, 8); err != nil {
		t.Fatal(err)
	}
	if err := insertKey(e, 9); err != nil {
		t.Fatal(err)
	}
	ev = readSSE(t, br, 1)[0]
	if !strings.Contains(ev.data, `"added":[["9","NY"]]`) {
		t.Fatalf("filtered change = %s", ev.data)
	}
}

// insertSF lands a base row outside the NY selection through a second
// selection view.
func insertSF(e *Engine, k int) error {
	body := updateBody{Values: []string{strconv.Itoa(k), "SF"}}
	cand, _, _, base, err := e.Translate(context.Background(), "SF", nil, e.buildRequest(update.Insert, body))
	if err != nil {
		return err
	}
	_, err = e.Commit(context.Background(), cand.Translation, false, base)
	return err
}

// TestSubscribeErrors: unknown views 404; a draining engine refuses
// new subscriptions.
func TestSubscribeErrors(t *testing.T) {
	_, srv := newTestServer(t, nil)
	resp, err := http.Get(srv.URL + "/subscribe/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown view subscribe = %d, want 404", resp.StatusCode)
	}
}

// TestSubscribeSlowConsumerShed: a subscriber that stops draining is
// shed — its queue closed after the events already in it, the
// dropped-events counter bumped — and the commit path never blocks.
func TestSubscribeSlowConsumerShed(t *testing.T) {
	sink := metricsSink(t)
	e := newTestEngine(t, "", nil)
	v, _, err := e.lookupView("NY", nil)
	if err != nil {
		t.Fatal(err)
	}
	fd := e.subs.open("NY", v, 0)
	tail, _ := fd.Attach(0)
	defer fd.Detach(tail)
	row := tuple.MustNew(v.Schema(), value.NewInt(1), value.NewString("NY"))
	add := []tuple.T{row}
	for i := 0; i <= subBuffer; i++ {
		fd.publish(uint64(i+1), nil, add)
	}
	if fd.Tails() != 0 {
		t.Fatal("overrun subscriber still attached")
	}
	n := 0
	for fr := range tail.C {
		fr.Release()
		n++
	}
	if n != subBuffer {
		t.Fatalf("shed subscriber drained %d queued events, want %d", n, subBuffer)
	}
	if got := sink.Metrics().Snapshot().Counters["server.replica.dropped_events"]; got == 0 {
		t.Fatal("dropped_events counter not bumped")
	}
}

// TestSubscribeFanoutAllocs pins the fan-out hot path: encoding one
// commit's delta into a pooled, reference-counted frame, retaining it
// in the view's window and queueing it on every subscriber allocates
// nothing in steady state — once the window is full, each event
// recycles the frame it evicts.
func TestSubscribeFanoutAllocs(t *testing.T) {
	e := newTestEngine(t, "", nil)
	v, _, err := e.lookupView("NY", nil)
	if err != nil {
		t.Fatal(err)
	}
	fd := e.subs.open("NY", v, 0)
	tails := make([]*replica.Tail, 3)
	for i := range tails {
		tails[i], _ = fd.Attach(0)
	}
	rows := []tuple.T{
		tuple.MustNew(v.Schema(), value.NewInt(1), value.NewString("NY")),
		tuple.MustNew(v.Schema(), value.NewInt(2), value.NewString("NY")),
	}
	version := uint64(0)
	event := func() {
		version++
		fd.publish(version, rows[:1], rows[1:])
		for _, tl := range tails {
			(<-tl.C).Release()
		}
	}
	for i := 0; i < 2*subBacklogBytes/len(appendChangeEvent(nil, e.subs.run, "NY", 1<<20, rows[:1], rows[1:])); i++ {
		event()
	}
	// Under -race, sync.Pool drops Put items at random, so the fan-out
	// still runs but only the uninstrumented build holds the ceiling.
	if allocs := testing.AllocsPerRun(1000, event); allocs > 0 && !raceEnabled {
		t.Fatalf("subscription fan-out allocates %.1f per event, want 0", allocs)
	}
}

// TestSubscribeSkipsHiddenOnlyChange: a base replace that changes only
// an attribute a view projects out leaves that view's rows untouched,
// so its subscribers see nothing (not a remove-and-re-add of the same
// row) and its cached set is carried across the commit as is (not
// cloned for a no-op). The next real change is the first event.
func TestSubscribeSkipsHiddenOnlyChange(t *testing.T) {
	e, srv := newTestServer(t, nil)
	if _, err := e.ExecScript(`
CREATE DOMAIN NoteDom AS STRING ('a', 'b');
CREATE TABLE STAFF (No KeyDom, Loc LocDom, Note NoteDom, PRIMARY KEY (No));
CREATE VIEW Full AS SELECT * FROM STAFF;
CREATE VIEW Brief AS SELECT No, Loc FROM STAFF;
`); err != nil {
		t.Fatal(err)
	}
	through := func(kind update.Kind, body updateBody) {
		t.Helper()
		cand, _, _, base, err := e.Translate(context.Background(), "Full", nil, e.buildRequest(kind, body))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Commit(context.Background(), cand.Translation, false, base); err != nil {
			t.Fatal(err)
		}
	}
	through(update.Insert, updateBody{Values: []string{"1", "NY", "a"}})

	resp, err := http.Get(srv.URL + "/subscribe/Brief")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if hello := readSSE(t, br, 1)[0]; hello.name != "hello" {
		t.Fatalf("hello = %+v", hello)
	}
	before, _, err := e.ReadView("Brief") // warms the cache
	if err != nil {
		t.Fatal(err)
	}

	// Note is invisible in Brief: no event, same cached set.
	through(update.Replace, updateBody{Where: map[string]string{"No": "1"}, Set: map[string]string{"Note": "b"}})
	after, _, err := e.ReadView("Brief")
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Error("cached set of Brief was rebuilt by a commit that changed none of its rows")
	}

	// Loc is visible: this is the first change the subscriber hears of.
	through(update.Replace, updateBody{Where: map[string]string{"No": "1"}, Set: map[string]string{"Loc": "SF"}})
	ev := readSSE(t, br, 1)[0]
	if ev.name != "change" || !strings.Contains(ev.data, `"removed":[["1","NY"]]`) || !strings.Contains(ev.data, `"added":[["1","SF"]]`) {
		t.Fatalf("first event after a hidden-only change = %+v, want the Loc change", ev)
	}
}

// TestScriptDMLReachesSubscribers: a /execz script that only writes
// rows publishes the statements' translations as a commit batch is
// published — one version per statement, the rows pushed to /subscribe,
// warm views patched rather than rebuilt — so its versions move as a
// follower's do, which replays the statements' WAL records one publish
// each.
func TestScriptDMLReachesSubscribers(t *testing.T) {
	sink := metricsSink(t)
	p, srv := newTestServer(t, nil)
	if err := insertKey(p, 1); err != nil {
		t.Fatal(err)
	}
	f := newFollowerEngine(t, t.TempDir(), srv.URL, nil)
	waitUntil(t, 5*time.Second, "follower catch-up", func() bool { return followerRows(t, f) == 1 })
	// The deadline turns an event that never comes into a read error.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/subscribe/NY", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	readSSE(t, br, 1) // hello
	// Warm NY: the script's rows must be patched into its memo.
	if _, _, err := p.ReadView("NY"); err != nil {
		t.Fatal(err)
	}
	_, pv := p.Snapshot()
	_, fv := f.Snapshot()
	rebuilds := sink.Metrics().Snapshot().Counters["server.ivm.rebuild"]

	script := "INSERT INTO EMP VALUES (2, 'NY'); INSERT INTO EMP VALUES (3, 'SF'); DELETE FROM EMP WHERE EmpNo = 1;"
	var out execReply
	if code := doJSON(t, "POST", srv.URL+"/execz", map[string]string{"script": script}, &out); code != http.StatusOK || !out.OK {
		t.Fatalf("execz = %d %+v", code, out)
	}
	// Like a commit batch, the script's statements reach subscribers as
	// one event at the last of their versions; the SF row misses NY's
	// selection but takes a version all the same.
	ev := readSSE(t, br, 1)[0]
	for _, want := range []string{`"version":` + strconv.FormatUint(pv+3, 10), `"removed":[["1","NY"]]`, `"added":[["2","NY"]]`} {
		if !strings.Contains(ev.data, want) {
			t.Errorf("change event = %s, want %s", ev.data, want)
		}
	}
	if _, v := p.Snapshot(); v != pv+3 {
		t.Errorf("a three-statement script moved the primary from version %d to %d, want %d", pv, v, pv+3)
	}
	waitUntil(t, 5*time.Second, "the follower replaying the script", func() bool {
		_, v := f.Snapshot()
		return v == fv+3
	})
	if got := sink.Metrics().Snapshot().Counters["server.ivm.rebuild"]; got != rebuilds {
		t.Errorf("server.ivm.rebuild grew from %d to %d: the script threw warm rows away", rebuilds, got)
	}
	if set, _, err := p.ReadView("NY"); err != nil || set.Len() != 1 {
		t.Errorf("NY after the script: %v rows, %v; want 1", set.Len(), err)
	}
}
