package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"viewupdate/internal/core"
	"viewupdate/internal/obs"
	"viewupdate/internal/persist"
	"viewupdate/internal/storage"
	"viewupdate/internal/update"
	"viewupdate/internal/view"
	"viewupdate/internal/vuerr"
	"viewupdate/internal/wal"
)

// maxBodyBytes bounds request bodies; view updates are small.
const maxBodyBytes = 1 << 20

// retryAfterSeconds is the Retry-After hint on 429/503 responses.
const retryAfterSeconds = 1

// NewHandler builds the HTTP API over an engine:
//
//	GET  /healthz                        liveness + engine state
//	GET  /readyz                         write readiness (503 while degraded/draining)
//	GET  /metricsz                       the same registry as JSON (the ledger's scrape; see docs/OBSERVABILITY.md)
//	GET  /metrics                        Prometheus text exposition + runtime stats
//	GET  /debug/slow                     slowest complete request traces as JSON
//	GET  /debug/pprof/...                net/http/pprof (only with Config.EnablePprof)
//	GET  /views                          list view names
//	GET  /views/{name}?Attr=val          read a view (optional equality filters)
//	POST /views/{name}/insert            single-shot view update …
//	POST /views/{name}/delete
//	POST /views/{name}/replace
//	POST /tx/begin                       open a transaction, returns token
//	POST /tx/{token}/views/{name}/{op}   staged view update (insert|delete|replace)
//	GET  /tx/{token}/views/{name}        read the staged state
//	POST /tx/{token}/commit              strict-version group commit
//	POST /tx/{token}/rollback            discard
//	POST /execz                          run a sqlish script (admin/setup)
//
// Every handler runs under the engine's per-request deadline.
func NewHandler(e *Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", e.handleHealthz)
	mux.HandleFunc("GET /readyz", e.handleReadyz)
	mux.HandleFunc("GET /metricsz", handleMetricsz)
	mux.HandleFunc("GET /metrics", handleMetrics)
	mux.HandleFunc("GET /debug/slow", handleSlowTraces)
	if e.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("GET /views", e.handleListViews)
	mux.HandleFunc("GET /views/{name}", e.handleReadView)
	mux.HandleFunc("POST /views/{name}/{op}", e.handleUpdate)
	mux.HandleFunc("POST /tx/begin", e.handleTxBegin)
	mux.HandleFunc("POST /tx/{token}/commit", e.handleTxCommit)
	mux.HandleFunc("POST /tx/{token}/rollback", e.handleTxRollback)
	mux.HandleFunc("POST /tx/{token}/views/{name}/{op}", e.handleTxUpdate)
	mux.HandleFunc("GET /tx/{token}/views/{name}", e.handleTxReadView)
	mux.HandleFunc("POST /execz", e.handleExec)
	mux.HandleFunc("GET /wal/snapshot", e.handleWalSnapshot)
	mux.HandleFunc("GET /wal/stream", e.handleWalStream)
	mux.HandleFunc("GET /subscribe/{view}", e.handleSubscribe)
	return e.withDeadline(mux)
}

// withDeadline enforces the per-request deadline via the request
// context, so handlers blocked on the commit pipeline give up in
// bounded time, counts every request into the obs registry, tracks the
// in-flight gauge, and — when instrumentation is enabled — starts the
// request-scoped pipeline trace that downstream stages record into.
// pprof endpoints are exempt from the deadline: a 30s CPU profile must
// outlive the per-request timeout.
func (e *Engine) withDeadline(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := obs.StartSpan("server.request")
		defer sp.End()
		obs.Inc("server.requests")
		obs.AddGauge("server.http.inflight", 1)
		defer obs.AddGauge("server.http.inflight", -1)
		ctx := r.Context()
		// pprof is exempt from the deadline (a 30s CPU profile must
		// outlive the per-request timeout); so are the replication and
		// subscription streams, which are long-lived by design.
		exempt := strings.HasPrefix(r.URL.Path, "/debug/pprof/") ||
			r.URL.Path == "/wal/stream" ||
			strings.HasPrefix(r.URL.Path, "/subscribe/")
		if !exempt {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, e.cfg.RequestTimeout)
			defer cancel()
		}
		if obs.Enabled() {
			tr := obs.StartTrace(r.Method + " " + r.URL.Path)
			defer tr.Finish()
			ctx = obs.ContextWithTrace(ctx, tr)
		}
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// writeError maps an error to its HTTP status and JSON envelope. The
// taxonomy:
//
//	400 bad_request      malformed body, unknown attribute, domain violation
//	403 read_only        write against a follower (it replicates, the primary writes)
//	404 not_found        unknown view or transaction token
//	409 conflict         optimistic conflict at apply time
//	422 no_candidates    the view update admits no translation
//	422 ambiguous        the policy refuses to choose among candidates
//	429 overloaded       admission control rejected the commit: the queue is full (Retry-After)
//	503 degraded         sealed WAL, corrupt store, open breaker: read-only brownout (Retry-After)
//	503 unavailable      draining, transient I/O failure, idempotent-retry race (Retry-After)
//	504 deadline         the commit's fate was not observed in time
//
// Durability failures — a sealed WAL, a corrupt store — map to 503
// "degraded", not 500: the engine still serves snapshot reads and the
// condition is visible on /readyz, so clients and load balancers treat
// it as a brownout to retry elsewhere, not a server bug.
func writeError(w http.ResponseWriter, err error) {
	status, code := http.StatusBadRequest, "bad_request"
	switch {
	case errors.Is(err, ErrNoView) || errors.Is(err, ErrNoTx):
		status, code = http.StatusNotFound, "not_found"
	case errors.Is(err, ErrConflict):
		status, code = http.StatusConflict, "conflict"
	case errors.Is(err, ErrReadOnly):
		status, code = http.StatusForbidden, "read_only"
	case errors.Is(err, core.ErrNoCandidates):
		status, code = http.StatusUnprocessableEntity, "no_candidates"
	case errors.Is(err, core.ErrAmbiguous):
		status, code = http.StatusUnprocessableEntity, "ambiguous"
	case errors.Is(err, ErrOverloaded):
		status, code = http.StatusTooManyRequests, "overloaded"
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	case errors.Is(err, ErrDegraded), vuerr.IsCorrupt(err), errors.Is(err, wal.ErrSealed):
		status, code = http.StatusServiceUnavailable, "degraded"
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	case errors.Is(err, ErrDraining), errors.Is(err, ErrIdemRetry), vuerr.IsTransient(err),
		errors.Is(err, persist.ErrNotDurable):
		status, code = http.StatusServiceUnavailable, "unavailable"
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	case errors.Is(err, context.DeadlineExceeded):
		status, code = http.StatusGatewayTimeout, "deadline"
	}
	obs.Inc("server.error." + code)
	writeJSON(w, status, errorReply{Error: err.Error(), Code: code})
}

func (e *Engine) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := e.Health()
	status := http.StatusOK
	if h.Status == "broken" {
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, h)
}

// handleReadyz is the write-readiness probe: 200 while the engine
// accepts commits, 503 with Retry-After while draining, degraded
// (breaker open — reads still work) or broken. Load balancers poll
// this to steer writes away during a brownout and back after the
// breaker's probe succeeds.
func (e *Engine) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := e.Health()
	if e.Ready() {
		writeJSON(w, http.StatusOK, struct {
			Ready   bool   `json:"ready"`
			Breaker string `json:"breaker"`
		}{true, h.Breaker})
		return
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	writeJSON(w, http.StatusServiceUnavailable, struct {
		Ready   bool   `json:"ready"`
		Status  string `json:"status"`
		Breaker string `json:"breaker"`
	}{false, h.Status, h.Breaker})
}

// handleMetricsz dumps the active obs sink's snapshot. Without a sink
// it answers an empty snapshot rather than failing, so scrapers can
// poll unconditionally.
func handleMetricsz(w http.ResponseWriter, r *http.Request) {
	s := obs.Active()
	if s == nil {
		writeJSON(w, http.StatusOK, obs.Snapshot{
			Counters:   map[string]int64{},
			Gauges:     map[string]int64{},
			Histograms: map[string]obs.HistogramSnapshot{},
		})
		return
	}
	writeJSON(w, http.StatusOK, s.Metrics().Snapshot())
}

// handleMetrics renders the active sink in Prometheus text exposition
// format, followed by Go runtime metrics (goroutines, heap, GC). With
// no sink active only the runtime block is emitted, so the endpoint is
// always scrapeable.
func handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	if s := obs.Active(); s != nil {
		_ = s.Metrics().Snapshot().WritePrometheus(w)
	}
	_ = obs.WriteRuntimeMetrics(w)
}

// handleSlowTraces dumps the slow-trace ring: the N slowest complete
// request traces seen since the sink was installed, slowest first.
func handleSlowTraces(w http.ResponseWriter, r *http.Request) {
	s := obs.Active()
	if s == nil {
		writeJSON(w, http.StatusOK, struct {
			Traces []obs.TraceSnapshot `json:"traces"`
		}{Traces: []obs.TraceSnapshot{}})
		return
	}
	traces := s.SlowTraces().Snapshot()
	if traces == nil {
		traces = []obs.TraceSnapshot{}
	}
	writeJSON(w, http.StatusOK, struct {
		Traces []obs.TraceSnapshot `json:"traces"`
	}{Traces: traces})
}

func (e *Engine) handleListViews(w http.ResponseWriter, r *http.Request) {
	_, version := e.Snapshot()
	writeJSON(w, http.StatusOK, struct {
		Views   []string `json:"views"`
		Version uint64   `json:"version"`
	}{e.ViewNames(), version})
}

func (e *Engine) handleReadView(w http.ResponseWriter, r *http.Request) {
	s := e.snap.Load()
	e.writeRows(w, r, s, s.version)
}

// writeRows answers a view read over src for both read routes: resolve
// {name}, parse the query's Attr=val pairs as equality filters against
// the view schema (a repeated parameter is a 400, not
// first-value-wins), and render the rows view.Select finds — by key in
// src when the filters bind the view key, else by a scan of the rows
// materialized over src (a published snapshot's memo).
func (e *Engine) writeRows(w http.ResponseWriter, r *http.Request, src storage.Source, version uint64) {
	name := r.PathValue("name")
	v, _, err := e.lookupView(name, nil)
	if err != nil {
		writeError(w, err)
		return
	}
	eq := map[string]string{}
	for param, vals := range r.URL.Query() {
		if len(vals) != 1 {
			writeError(w, fmt.Errorf("server: filter %s given %d times; a read takes one value per attribute", param, len(vals)))
			return
		}
		eq[param] = vals[0]
	}
	parsed, err := parseEq(v.Schema(), eq)
	if err != nil {
		writeError(w, err)
		return
	}
	matched, err := view.Select(v, src, parsed)
	if err != nil {
		writeError(w, err)
		return
	}
	rows, cols := renderRows(v, matched)
	writeJSON(w, http.StatusOK, rowsReply{
		View: name, Columns: cols, Rows: rows, Count: len(rows), Version: version,
	})
}

// parseOpKind maps the {op} path segment to an update kind.
func parseOpKind(op string) (update.Kind, error) {
	switch op {
	case "insert":
		return update.Insert, nil
	case "delete":
		return update.Delete, nil
	case "replace":
		return update.Replace, nil
	default:
		return 0, fmt.Errorf("server: unknown operation %q (want insert|delete|replace)", op)
	}
}

// handleUpdate is the single-shot path: translate against the
// published snapshot in parallel with every other request, then funnel
// the commit through the group-commit pipeline.
//
// An Idempotency-Key header makes the request safely retryable across
// ambiguous outcomes (timeouts, dropped connections, server crashes):
// the key is reserved in the engine's dedup table before the commit,
// travels into the WAL frame with the translation, and a retry that
// finds the key already fulfilled gets the original outcome back with
// "duplicate": true instead of applying twice. See docs/ROBUSTNESS.md
// for the full protocol.
func (e *Engine) handleUpdate(w http.ResponseWriter, r *http.Request) {
	kind, err := parseOpKind(r.PathValue("op"))
	if err != nil {
		writeError(w, err)
		return
	}
	var body updateBody
	if err := decodeBody(r, &body); err != nil {
		writeError(w, err)
		return
	}
	key := r.Header.Get("Idempotency-Key")
	var ent *idemEntry
	if key != "" {
		var dup bool
		ent, dup = e.idem.reserve(key)
		if dup {
			e.replayIdem(w, r, key, ent)
			return
		}
	}
	cand, eff, _, baseVersion, err := e.Translate(r.Context(), r.PathValue("name"), body.Prefer, e.buildRequest(kind, body))
	if err != nil {
		if key != "" {
			e.idem.release(key)
		}
		writeError(w, err)
		return
	}
	if ent != nil {
		// Stash the reply class for future duplicates. Safe unlocked:
		// this write happens-before the commit submission, which
		// happens-before fulfill closes ent.done, which happens-before
		// any duplicate reads it.
		ent.class = cand.Class
	}
	version, err := e.CommitKeyed(r.Context(), cand.Translation, false, baseVersion, key)
	if err != nil {
		// Clean failures released the key inside the pipeline; an
		// ambiguous outcome (deadline while queued) deliberately leaves
		// the reservation for the committer to settle, so a retry learns
		// the true fate instead of double-applying.
		writeError(w, err)
		return
	}
	reply := updateReply{OK: true, Class: cand.Class, Ops: renderOps(cand.Translation), Version: version}
	if eff != nil && !eff.None() {
		reply.SideEffects = eff.String()
	}
	writeJSON(w, http.StatusOK, reply)
}

// replayIdem answers a request whose idempotency key is already known:
// wait for the original attempt to settle, then return its outcome as
// a duplicate, or tell the client to retry if the original failed
// cleanly (nothing applied, key released).
func (e *Engine) replayIdem(w http.ResponseWriter, r *http.Request, key string, ent *idemEntry) {
	select {
	case <-ent.done:
	case <-r.Context().Done():
		writeError(w, fmt.Errorf("server: awaiting original request with same idempotency key: %w", r.Context().Err()))
		return
	}
	if !ent.ok {
		// The original attempt failed cleanly and released the key.
		writeError(w, ErrIdemRetry)
		return
	}
	obs.Inc("server.idem.hit")
	writeJSON(w, http.StatusOK, updateReply{
		OK: true, Class: ent.class, Version: ent.version,
		Duplicate: true, Replayed: ent.replayed,
	})
}

func (e *Engine) handleTxBegin(w http.ResponseWriter, r *http.Request) {
	token, err := e.BeginTx()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, txReply{Token: token, OK: true})
}

func (e *Engine) handleTxUpdate(w http.ResponseWriter, r *http.Request) {
	kind, err := parseOpKind(r.PathValue("op"))
	if err != nil {
		writeError(w, err)
		return
	}
	var body updateBody
	if err := decodeBody(r, &body); err != nil {
		writeError(w, err)
		return
	}
	cand, eff, err := e.TxUpdate(r.Context(), r.PathValue("token"), r.PathValue("name"), body.Prefer, e.buildRequest(kind, body))
	if err != nil {
		writeError(w, err)
		return
	}
	reply := updateReply{OK: true, Class: cand.Class, Ops: renderOps(cand.Translation), Staged: true}
	if eff != nil && !eff.None() {
		reply.SideEffects = eff.String()
	}
	writeJSON(w, http.StatusOK, reply)
}

func (e *Engine) handleTxReadView(w http.ResponseWriter, r *http.Request) {
	staged, err := e.TxView(r.PathValue("token"))
	if err != nil {
		writeError(w, err)
		return
	}
	e.writeRows(w, r, staged, 0)
}

func (e *Engine) handleTxCommit(w http.ResponseWriter, r *http.Request) {
	n, version, err := e.TxCommit(r.Context(), r.PathValue("token"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, txReply{Committed: n, Version: version, OK: true})
}

func (e *Engine) handleTxRollback(w http.ResponseWriter, r *http.Request) {
	if err := e.TxRollback(r.PathValue("token")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, txReply{OK: true})
}

// handleExec runs a sqlish script serially against the session — the
// setup path for DDL, view definitions and policies, which have no
// dedicated wire endpoints. It holds the state lock for its whole
// duration, so it must not be on any hot path.
func (e *Engine) handleExec(w http.ResponseWriter, r *http.Request) {
	var body execBody
	if err := decodeBody(r, &body); err != nil {
		writeError(w, err)
		return
	}
	start := time.Now()
	out, err := e.ExecScript(body.Script)
	obs.Observe("server.exec.ns", int64(time.Since(start)))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, execReply{Output: out, OK: true})
}
