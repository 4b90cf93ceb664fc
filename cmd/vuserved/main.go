// Command vuserved serves the view-update engine over HTTP: concurrent
// view reads and view-update translation with a single-writer
// group-commit pipeline over the durable store.
//
// Usage:
//
//	vuserved -addr :8080 -data ./data
//	vuserved -addr :8080 -data ./data -init schema.sql -sync commit
//	vuserved -addr :8080 -data ./data -shards 8
//	vuserved -addr :8081 -data ./replica -follow http://primary:8080 -init views.sql
//
// With -shards N the base relations are partitioned by root-key hash
// into N independent WAL pipelines behind a cross-shard two-phase
// coordinator; see docs/SHARDING.md. The shard count is fixed at store
// creation and must match on every restart.
//
// With -follow URL the engine runs as a read replica: it bootstraps
// from the source's /wal/snapshot (or recovers its local -data dir),
// streams every commit over /wal/stream, and serves reads — including
// /subscribe — while answering 403 on writes. Follower init scripts
// should hold only DDL (definitions skip when already present; INSERTs
// are refused). See docs/REPLICATION.md.
//
// Views and policies are not durable; pass -init with a sqlish script
// (CREATE DOMAIN/TABLE/VIEW, SET POLICY) to define them at boot, or
// POST the script to /execz after startup.
//
// On SIGTERM or SIGINT the server drains gracefully: it stops
// accepting requests, flushes every queued commit through the
// pipeline, checkpoints the store (folding the WAL into a fresh
// snapshot) and exits. See docs/SERVING.md for the API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"viewupdate/internal/obs"
	"viewupdate/internal/server"
	"viewupdate/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "", "durable store directory (empty = in-memory only)")
	shards := flag.Int("shards", 1, "root-key hash shards; >1 runs N WAL pipelines behind the cross-shard coordinator (requires -data, fixed at store creation)")
	follow := flag.String("follow", "", "run as a read replica of the engine at this base URL (streams its WAL; writes answer 403); -data makes the replica durable")
	initScript := flag.String("init", "", "sqlish script executed at boot (schema, views, policies)")
	syncMode := flag.String("sync", "commit", "WAL sync policy: commit|always|never")
	maxInFlight := flag.Int("max-in-flight", 64, "bounded commit queue; beyond it requests get 429")
	maxBatch := flag.Int("max-batch", 32, "max commits per group-commit WAL append")
	batchDelay := flag.Duration("batch-delay", 200*time.Microsecond, "adaptive group-commit window: max wait for more commits before fsync under load (0 disables; idle commits never wait). The timer is the Go runtime's: with nothing else runnable, a sub-millisecond wait sleeps in the netpoller, which rounds it up to about 1 ms")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request deadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	logLevel := flag.String("log-level", "info", "log level: debug|info|warn|error")
	enablePprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	flag.Parse()

	logger, err := obs.SetupDefault(os.Stderr, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	obs.Enable(obs.NewSink(logger))

	pol, err := wal.ParseSyncPolicy(*syncMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}

	var script string
	if *initScript != "" {
		data, err := os.ReadFile(*initScript)
		if err != nil {
			slog.Error("reading init script", "path", *initScript, "err", err)
			os.Exit(1)
		}
		script = string(data)
	}

	// The flag's 0 means "no window"; the Config encodes that as a
	// negative delay (its own 0 means "default").
	delay := *batchDelay
	if delay <= 0 {
		delay = -1
	}
	eng, err := server.NewEngine(server.Config{
		Dir:            *data,
		Shards:         *shards,
		Follow:         *follow,
		Sync:           pol,
		MaxInFlight:    *maxInFlight,
		MaxBatch:       *maxBatch,
		MaxBatchDelay:  delay,
		RequestTimeout: *timeout,
		Logger:         logger,
		EnablePprof:    *enablePprof,
	}, script)
	if err != nil {
		slog.Error("starting engine", "err", err)
		os.Exit(1)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.NewHandler(eng),
		ReadHeaderTimeout: 10 * time.Second,
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
		s := <-sig
		slog.Info("draining", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			slog.Error("http shutdown", "err", err)
		}
	}()

	slog.Info("serving", "addr", *addr, "data", *data, "shards", *shards, "follow", *follow,
		"sync", pol.String(), "max_in_flight", *maxInFlight,
		"max_batch", *maxBatch, "batch_delay", batchDelay.String(),
		"pprof", *enablePprof)
	err = srv.ListenAndServe()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		slog.Error("serve", "err", err)
		os.Exit(1)
	}
	<-done
	if err := eng.Close(); err != nil {
		slog.Error("drain", "err", err)
		os.Exit(1)
	}
	logFinalMetrics()
	slog.Info("drained cleanly")
}

// logFinalMetrics emits the lifetime metrics snapshot as the last act
// of a graceful drain: the headline aggregates as structured attributes
// for log pipelines, plus the full snapshot as JSON so a post-mortem
// has everything a final /metrics scrape would have had.
func logFinalMetrics() {
	s := obs.Active()
	if s == nil {
		return
	}
	snap := s.Metrics().Snapshot()
	req := snap.Histograms["server.request.ns"]
	slog.Info("final metrics",
		"requests", snap.Counters["server.requests"],
		"committed", snap.Counters["server.commit.committed"],
		"batches", snap.Counters["server.commit.batches"],
		"conflicts", snap.Counters["server.commit.conflict"],
		"overload", snap.Counters["server.overload"],
		"wal_syncs", snap.Counters["wal.sync"],
		"request_p50_ns", req.P50,
		"request_p99_ns", req.P99,
		"request_p999_ns", req.P999,
	)
	if data, err := snap.JSON(); err == nil {
		slog.Info("final metrics snapshot", "snapshot", string(data))
	}
}
