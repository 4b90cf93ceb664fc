package server

import (
	"bufio"
	"context"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"viewupdate/internal/tuple"
	"viewupdate/internal/update"
	"viewupdate/internal/value"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE parses events off the stream, skipping comment keepalives.
func readSSE(t *testing.T, r *bufio.Reader, n int) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	for len(out) < n {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE after %d events: %v", len(out), err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.name != "":
			out = append(out, cur)
			cur = sseEvent{}
		}
	}
	return out
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
// shed — its channel closed, the dropped-events counter bumped — and
// the commit path never blocks.
func TestSubscribeSlowConsumerShed(t *testing.T) {
	sink := metricsSink(t)
	e := newTestEngine(t, "", nil)
	v, _, err := e.lookupView("NY", nil)
	if err != nil {
		t.Fatal(err)
	}
	sub := e.subs.attach("NY", v)
	row := tuple.MustNew(v.Schema(), value.NewInt(1), value.NewString("NY"))
	add := []tuple.T{row}
	for i := 0; i <= subBuffer; i++ {
		e.subs.publish("NY", v, uint64(i+1), nil, add)
	}
	select {
	case _, ok := <-sub.ch:
		if !ok {
			t.Fatal("first receive: channel already closed with queued events unread")
		}
	case <-time.After(time.Second):
		t.Fatal("no event queued")
	}
	// Drain to the close: the overflow publish shed the subscriber.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-sub.ch:
			if !ok {
				if got := sink.Metrics().Snapshot().Counters["server.replica.dropped_events"]; got == 0 {
					t.Fatal("dropped_events counter not bumped")
				}
				return
			}
			ev.release()
		case <-deadline:
			t.Fatal("subscriber never shed")
		}
	}
}

// TestSubscribeFanoutAllocs pins the fan-out hot path: encoding one
// commit's delta into a pooled, reference-counted event and queueing
// it on every subscriber allocates nothing in steady state.
func TestSubscribeFanoutAllocs(t *testing.T) {
	e := newTestEngine(t, "", nil)
	v, _, err := e.lookupView("NY", nil)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*subscriber, 3)
	for i := range subs {
		subs[i] = e.subs.attach("NY", v)
	}
	rows := []tuple.T{
		tuple.MustNew(v.Schema(), value.NewInt(1), value.NewString("NY")),
		tuple.MustNew(v.Schema(), value.NewInt(2), value.NewString("NY")),
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.subs.publish("NY", v, 42, rows[:1], rows[1:])
		for _, s := range subs {
			ev := <-s.ch
			ev.release()
		}
	})
	if allocs > 0 {
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
