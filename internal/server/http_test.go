package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"viewupdate/internal/obs"
)

// newTestServer wires a test engine into an httptest server.
func newTestServer(t *testing.T, mut func(*Config)) (*Engine, *httptest.Server) {
	t.Helper()
	e := newTestEngine(t, t.TempDir(), mut)
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)
	return e, srv
}

// doJSON posts body to path and decodes the response into out,
// returning the status code.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPUpdateAndRead: a wire insert lands, bumps the version, and a
// filtered read sees it.
func TestHTTPUpdateAndRead(t *testing.T) {
	_, srv := newTestServer(t, nil)

	var up updateReply
	code := doJSON(t, "POST", srv.URL+"/views/NY/insert",
		map[string]any{"values": []string{"7", "NY"}}, &up)
	if code != http.StatusOK || !up.OK || up.Version != 1 {
		t.Fatalf("insert = %d %+v", code, up)
	}
	if up.Class == "" || len(up.Ops) == 0 {
		t.Fatalf("reply hides the translation: %+v", up)
	}

	var rows rowsReply
	if code := doJSON(t, "GET", srv.URL+"/views/NY?EmpNo=7", nil, &rows); code != http.StatusOK {
		t.Fatalf("read status %d", code)
	}
	if rows.Count != 1 || rows.Rows[0][0] != "7" {
		t.Fatalf("read = %+v", rows)
	}

	var list struct {
		Views []string `json:"views"`
	}
	if code := doJSON(t, "GET", srv.URL+"/views", nil, &list); code != http.StatusOK || len(list.Views) != 1 {
		t.Fatalf("views list = %d %+v", code, list)
	}
}

// TestHTTPErrorTaxonomy drives each error class to its documented
// status code.
func TestHTTPErrorTaxonomy(t *testing.T) {
	_, srv := newTestServer(t, nil)

	for _, tc := range []struct {
		name   string
		method string
		path   string
		body   any
		status int
		code   string
		want   string // in the error text, when the status alone does not tell
	}{
		{"unknown view", "POST", "/views/Nope/insert",
			map[string]any{"values": []string{"1", "NY"}}, http.StatusNotFound, "not_found", ""},
		{"unknown op", "POST", "/views/NY/upsert",
			map[string]any{"values": []string{"1", "NY"}}, http.StatusBadRequest, "bad_request", ""},
		{"domain violation", "POST", "/views/NY/insert",
			map[string]any{"values": []string{"99999", "NY"}}, http.StatusBadRequest, "bad_request", ""},
		{"arity mismatch", "POST", "/views/NY/insert",
			map[string]any{"values": []string{"1"}}, http.StatusBadRequest, "bad_request", ""},
		{"unknown field", "POST", "/views/NY/insert",
			map[string]any{"valuez": []string{"1", "NY"}}, http.StatusBadRequest, "bad_request", ""},
		{"missing row", "POST", "/views/NY/delete",
			map[string]any{"where": map[string]string{"EmpNo": "5"}}, http.StatusBadRequest, "bad_request", ""},
		{"where on an unknown attribute", "POST", "/views/NY/delete",
			map[string]any{"where": map[string]string{"Nope": "1"}}, http.StatusBadRequest, "bad_request", ""},
		{"where value of the wrong kind", "POST", "/views/NY/delete",
			map[string]any{"where": map[string]string{"EmpNo": "x"}}, http.StatusBadRequest, "bad_request", ""},
		{"where value outside the domain", "POST", "/views/NY/replace",
			map[string]any{"where": map[string]string{"EmpNo": "99999"}, "set": map[string]string{"EmpNo": "2"}},
			http.StatusBadRequest, "bad_request", ""},
		{"delete without where", "POST", "/views/NY/delete", map[string]any{}, http.StatusBadRequest, "bad_request", ""},
		{"replace without set", "POST", "/views/NY/replace",
			map[string]any{"where": map[string]string{"EmpNo": "5"}}, http.StatusBadRequest, "bad_request", ""},
		// A wire body's set is a JSON object and cannot name an attribute
		// twice; a script's SET list can, and the last value used to win.
		{"set gives one attribute two values", "POST", "/execz",
			map[string]any{"script": "UPDATE NY SET EmpNo = 6, EmpNo = 7 WHERE EmpNo = 5"},
			http.StatusBadRequest, "bad_request", "EmpNo cannot equal both 6 and 7"},
		{"unknown token", "POST", "/tx/deadbeef/commit", nil, http.StatusNotFound, "not_found", ""},
	} {
		var er errorReply
		code := doJSON(t, tc.method, srv.URL+tc.path, tc.body, &er)
		if code != tc.status || er.Code != tc.code || !strings.Contains(er.Error, tc.want) {
			t.Fatalf("%s: got %d %q, want %d %q %q (%s)", tc.name, code, er.Code, tc.status, tc.code, tc.want, er.Error)
		}
	}
}

// TestHTTPOverloadRetryAfter: a stalled pipeline turns into 429 with a
// Retry-After hint on the wire.
func TestHTTPOverloadRetryAfter(t *testing.T) {
	e, srv := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 1
		c.MaxBatch = 1
	})
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	if err := submitAsync(e, 1); err != nil {
		t.Fatal(err)
	}
	waitForPickup(t, e)
	if err := submitAsync(e, 2); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(map[string]any{"values": []string{"3", "NY"}})
	resp, err := http.Post(srv.URL+"/views/NY/insert", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestHTTPTransactionFlow: begin → stage → read staged → commit over
// the wire; a second transaction staged from the old version conflicts
// with 409.
func TestHTTPTransactionFlow(t *testing.T) {
	_, srv := newTestServer(t, nil)
	if code := doJSON(t, "POST", srv.URL+"/views/NY/insert",
		map[string]any{"values": []string{"1", "NY"}}, nil); code != http.StatusOK {
		t.Fatalf("seed insert status %d", code)
	}

	begin := func() string {
		var tx txReply
		if code := doJSON(t, "POST", srv.URL+"/tx/begin", nil, &tx); code != http.StatusOK || tx.Token == "" {
			t.Fatalf("begin = %d %+v", code, tx)
		}
		return tx.Token
	}
	tok1, tok2 := begin(), begin()

	stage := func(tok, key string) int {
		var up updateReply
		code := doJSON(t, "POST", srv.URL+"/tx/"+tok+"/views/NY/insert",
			map[string]any{"values": []string{key, "NY"}}, &up)
		if code == http.StatusOK && !up.Staged {
			t.Fatal("tx update not marked staged")
		}
		return code
	}
	if code := stage(tok1, "2"); code != http.StatusOK {
		t.Fatalf("stage status %d", code)
	}
	if code := stage(tok2, "3"); code != http.StatusOK {
		t.Fatalf("stage status %d", code)
	}

	// tok1 reads its own write; the live view does not see it.
	var rows rowsReply
	if code := doJSON(t, "GET", srv.URL+"/tx/"+tok1+"/views/NY", nil, &rows); code != http.StatusOK || rows.Count != 2 {
		t.Fatalf("staged read = %d %+v", code, rows)
	}
	if code := doJSON(t, "GET", srv.URL+"/views/NY", nil, &rows); code != http.StatusOK || rows.Count != 1 {
		t.Fatalf("live read = %d %+v", code, rows)
	}

	var tx txReply
	if code := doJSON(t, "POST", srv.URL+"/tx/"+tok1+"/commit", nil, &tx); code != http.StatusOK || tx.Committed != 1 {
		t.Fatalf("commit = %d %+v", code, tx)
	}
	var er errorReply
	if code := doJSON(t, "POST", srv.URL+"/tx/"+tok2+"/commit", nil, &er); code != http.StatusConflict || er.Code != "conflict" {
		t.Fatalf("stale commit = %d %+v, want 409 conflict", code, er)
	}
	// Rollback of a consumed token is 404: tokens are single-use.
	if code := doJSON(t, "POST", srv.URL+"/tx/"+tok2+"/rollback", nil, nil); code != http.StatusNotFound {
		t.Fatalf("rollback after commit = %d, want 404", code)
	}
}

// TestHTTPReadFilters: the live and the staged read route answer the
// same query the same way — equality filters honoured, a repeated or
// malformed parameter refused with 400 bad_request.
func TestHTTPReadFilters(t *testing.T) {
	_, srv := newTestServer(t, nil)
	for _, k := range []string{"1", "2"} {
		if code := doJSON(t, "POST", srv.URL+"/views/NY/insert",
			map[string]any{"values": []string{k, "NY"}}, nil); code != http.StatusOK {
			t.Fatalf("seed insert status %d", code)
		}
	}
	var tx txReply
	if code := doJSON(t, "POST", srv.URL+"/tx/begin", nil, &tx); code != http.StatusOK {
		t.Fatalf("begin status %d", code)
	}
	if code := doJSON(t, "POST", srv.URL+"/tx/"+tx.Token+"/views/NY/insert",
		map[string]any{"values": []string{"3", "NY"}}, nil); code != http.StatusOK {
		t.Fatalf("stage status %d", code)
	}

	for _, route := range []struct {
		name, path string
		all        int
	}{
		{"live", "/views/NY", 2},
		{"staged", "/tx/" + tx.Token + "/views/NY", 3},
	} {
		for _, tc := range []struct {
			query  string
			status int
			count  int
		}{
			{"", http.StatusOK, route.all},
			{"?EmpNo=2", http.StatusOK, 1},
			{"?EmpNo=2&Location=NY", http.StatusOK, 1},
			{"?EmpNo=9", http.StatusOK, 0},
			{"?EmpNo=2&Location=SF", http.StatusOK, 0},
			{"?Location=NY", http.StatusOK, route.all},
			{"?EmpNo=99999", http.StatusBadRequest, 0},
			{"?EmpNo=1&EmpNo=2", http.StatusBadRequest, 0},
			{"?Nope=1", http.StatusBadRequest, 0},
			{"?EmpNo=x", http.StatusBadRequest, 0},
		} {
			var reply struct {
				rowsReply
				errorReply
			}
			code := doJSON(t, "GET", srv.URL+route.path+tc.query, nil, &reply)
			if code != tc.status || reply.Count != tc.count || len(reply.Rows) != tc.count {
				t.Errorf("%s %q = %d with %d rows, want %d with %d (%s)",
					route.name, tc.query, code, reply.Count, tc.status, tc.count, reply.Error)
			}
			if tc.status == http.StatusBadRequest && reply.Code != "bad_request" {
				t.Errorf("%s %q: code %q, want bad_request", route.name, tc.query, reply.Code)
			}
		}
	}
}

// TestHTTPHealthAndMetrics: healthz reflects state; metricsz serves the
// obs snapshot shape (counters + histograms) and works without a sink.
func TestHTTPHealthAndMetrics(t *testing.T) {
	sink := metricsSink(t)
	_, srv := newTestServer(t, nil)

	var h Healthz
	if code := doJSON(t, "GET", srv.URL+"/healthz", nil, &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %+v", code, h)
	}
	if !h.Durable || h.MaxQueue == 0 {
		t.Fatalf("healthz missing fields: %+v", h)
	}

	if code := doJSON(t, "POST", srv.URL+"/views/NY/insert",
		map[string]any{"values": []string{"1", "NY"}}, nil); code != http.StatusOK {
		t.Fatal("insert failed")
	}
	var snap obs.Snapshot
	if code := doJSON(t, "GET", srv.URL+"/metricsz", nil, &snap); code != http.StatusOK {
		t.Fatalf("metricsz status %d", code)
	}
	if snap.Counters["server.requests"] == 0 || snap.Counters["server.commit.committed"] != 1 {
		t.Fatalf("metricsz counters missing: %+v", snap.Counters)
	}
	if _, ok := snap.Histograms["server.commit.batch_size"]; !ok {
		t.Fatalf("metricsz histograms missing batch_size: %v", snap.Histograms)
	}
	_ = sink

	// Disabled sink: metricsz still answers, with an empty snapshot.
	obs.Disable()
	if code := doJSON(t, "GET", srv.URL+"/metricsz", nil, &snap); code != http.StatusOK {
		t.Fatalf("metricsz without sink: status %d", code)
	}
}

// TestHTTPExec: the admin script endpoint runs DDL and DML, and its
// effects are immediately visible to the wire surface.
func TestHTTPExec(t *testing.T) {
	_, srv := newTestServer(t, nil)
	var out execReply
	code := doJSON(t, "POST", srv.URL+"/execz",
		map[string]string{"script": "INSERT INTO EMP VALUES (4, 'NY');"}, &out)
	if code != http.StatusOK || !out.OK {
		t.Fatalf("execz = %d %+v", code, out)
	}
	var rows rowsReply
	if code := doJSON(t, "GET", srv.URL+"/views/NY", nil, &rows); code != http.StatusOK || rows.Count != 1 {
		t.Fatalf("post-exec read = %d %+v", code, rows)
	}
	// A broken script surfaces as 400 with the parse error.
	var er errorReply
	if code := doJSON(t, "POST", srv.URL+"/execz",
		map[string]string{"script": "FROBNICATE;"}, &er); code != http.StatusBadRequest {
		t.Fatalf("bad script = %d %+v", code, er)
	}
}

// TestHTTPPreferOverride: the prefer field steers translator selection
// per request and surfaces the chosen class.
func TestHTTPPreferOverride(t *testing.T) {
	_, srv := newTestServer(t, nil)
	if code := doJSON(t, "POST", srv.URL+"/views/NY/insert",
		map[string]any{"values": []string{"1", "NY"}}, nil); code != http.StatusOK {
		t.Fatal("seed insert failed")
	}
	var up updateReply
	code := doJSON(t, "POST", srv.URL+"/views/NY/delete",
		map[string]any{"where": map[string]string{"EmpNo": "1"}, "prefer": []string{"D-1"}}, &up)
	if code != http.StatusOK {
		t.Fatalf("prefer delete status %d: %+v", code, up)
	}
	if up.Class != "D-1" {
		t.Fatalf("class %q, want the preferred D-1", up.Class)
	}
}

// TestDefaultPolicyDoesNotGrowBase: with no SET POLICY, a cycle of
// insert, key-moving replace and delete leaves EMP as it found it, over
// the update routes and through /execz script DML alike. A replace
// translated as R-4 (insert the new row, flip the old one out of NY)
// would leave one EMP row behind per cycle.
func TestDefaultPolicyDoesNotGrowBase(t *testing.T) {
	const cycles = 5
	e, srv := newTestServer(t, nil)
	baseRows := func() int {
		db, _ := e.Snapshot()
		return len(db.Tuples("EMP"))
	}
	start := baseRows()
	for i := 0; i < cycles; i++ {
		k, moved := strconv.Itoa(2*i+1), strconv.Itoa(2*i+2)
		for _, step := range []struct {
			op   string
			body map[string]any
		}{
			{"insert", map[string]any{"values": []string{k, "NY"}}},
			{"replace", map[string]any{"where": map[string]string{"EmpNo": k}, "set": map[string]string{"EmpNo": moved}}},
			{"delete", map[string]any{"where": map[string]string{"EmpNo": moved}}},
		} {
			var up updateReply
			if code := doJSON(t, "POST", srv.URL+"/views/NY/"+step.op, step.body, &up); code != http.StatusOK {
				t.Fatalf("cycle %d %s: %d %+v", i, step.op, code, up)
			}
		}
	}
	if got := baseRows(); got != start {
		t.Fatalf("update routes: EMP has %d rows after %d cycles, want %d", got, cycles, start)
	}
	for i := 0; i < cycles; i++ {
		k, moved := 100+2*i, 101+2*i
		script := fmt.Sprintf("INSERT INTO NY VALUES (%d, 'NY'); UPDATE NY SET EmpNo = %d WHERE EmpNo = %d; DELETE FROM NY WHERE EmpNo = %d;",
			k, moved, k, moved)
		var out execReply
		if code := doJSON(t, "POST", srv.URL+"/execz", map[string]string{"script": script}, &out); code != http.StatusOK || !out.OK {
			t.Fatalf("cycle %d: execz = %d %+v", i, code, out)
		}
	}
	if got := baseRows(); got != start {
		t.Fatalf("script DML: EMP has %d rows after %d cycles, want %d", got, cycles, start)
	}
}
