# Build, verification and benchmark entry points.
#
# `make check` is the tier-1+ verification gate: it runs everything the
# plain tier-1 gate runs (build + tests) plus vet, formatting and the
# race detector. CI and pre-commit hooks should use it.

GO ?= go

.PHONY: all build test check vet fmt race race-core soak chaos-soak bench-check ledger-pairs bench bench-obs obs-bench bench-translate bench-ivm bench-shard bench-replica serve-bench bench-wire metrics-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails if any file needs reformatting (gofmt -l lists offenders).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# race-core runs the translation pipeline's packages under the race
# detector — the overlay, the delta-driven verifier, the IVM layer
# (reverse reference index, join delta maintenance, view-cache
# patching; see docs/PERFORMANCE.md),
# the sharded store (shard map, router, 2PC recovery), the
# replication layer (WAL streaming, follower replay, subscriptions),
# the sqlish session (its transactions stage on an overlay over a
# snapshot shared copy-on-write with the live database) and the journal
# under all of them: the WAL's one append and persist.Store's one
# memory-first commit protocol, whole packages rather than the
# Crash|Recover|… subset soak runs — and the row containers under
# everything: tuple.Set's copy-on-write pages, cloned by publish while
# readers hold the published set, and relation.Extension.
race-core:
	$(GO) test -race ./internal/tuple/... ./internal/relation/... ./internal/core/... ./internal/storage/... ./internal/view/... ./internal/server/... ./internal/shard/... ./internal/replica/... ./internal/sqlish/... ./internal/persist/... ./internal/wal/...

# soak exercises the durability and fault-injection surface: the
# crash-safety, recovery and churn tests under the race detector, plus
# short smoke runs of the native fuzzers: torn-WAL scanning, the
# snapshot loader, and the two front doors that take network bytes (the
# sqlish parser and the wire update body). The front-door targets bound
# minimization: which of several bad attributes a body is refused for
# follows map order, so coverage is not a function of the input and the
# default minimizer would spend the whole window on one corpus entry.
# FuzzSPJTheorem draws fresh trees and requests for the SPJ theorem's
# oracle diff (EXPERIMENTS.md, E16) beyond its committed seeds.
# FuzzDifferential runs the translator ≡ primaries ≡ followers ≡
# subscriber harness (docs/REPLICATION.md) on fresh seeds; each input
# boots a single-store and a 4-shard engine, a follower of each and two
# subscribers, then kills and reopens both engines, so two workers.
soak:
	$(GO) test -race -run 'Crash|Recover|Churn|Torn|Fault|Broken' ./internal/wal/ ./internal/persist/ ./internal/workload/ ./internal/storage/ ./internal/server/
	$(GO) test -fuzz FuzzScan -fuzztime 5s -run '^$$' ./internal/wal/
	$(GO) test -fuzz FuzzLoad -fuzztime 5s -run '^$$' ./internal/persist/
	$(GO) test -fuzz FuzzParse -fuzztime 5s -fuzzminimizetime 100x -run '^$$' ./internal/sqlish/
	$(GO) test -fuzz FuzzDecodeUpdate -fuzztime 5s -fuzzminimizetime 100x -run '^$$' ./internal/server/
	$(GO) test -fuzz FuzzSPJTheorem -fuzztime 30s -run '^$$' ./internal/bruteforce/
	$(GO) test -fuzz FuzzDifferential -fuzztime 30s -parallel 2 -run '^$$' ./internal/server/

# chaos-soak is the crash-contract gate (see docs/ROBUSTNESS.md). Part
# one runs the deterministic in-process kill-point matrix: a live engine
# is crashed (via an armed WAL writer that keeps a seeded byte prefix)
# at every pipeline stage — admission, translate, commit, WAL append,
# fsync, publish — restarted, and checked over the wire: every acked
# commit survived, idempotent retries of ambiguous ops resolve without
# double-applying, and the recovered state is byte-equivalent to a
# fault-free replay; the same harness then sweeps a 4-shard engine,
# adding the two-phase window: crashes landing after the prepare
# records but before the decision must roll the in-doubt prepares back,
# while acked cross-shard commits survive on every participant
# (docs/SHARDING.md). Part two is the same contract end-to-end: vuserved
# is kill -9'd mid-workload and restarted while vuload -chaos retries
# keyed inserts through the outage, then verifies acks and dedup over
# the wire and emits BENCH_chaos.json. Any lost ack, duplicate apply,
# or dedup miss fails the target.
chaos-soak:
	$(GO) test ./internal/chaos -run 'TestChaosSoak|TestShardedChaosSoak' -count=1
	$(GO) build -o /tmp/vuserved-chaos ./cmd/vuserved
	$(GO) build -o /tmp/vuload-chaos ./cmd/vuload
	@rm -rf /tmp/vuserved-chaos-data; \
	printf '%s\n' \
	  "CREATE DOMAIN KeyDom AS INT RANGE 1 TO 100000;" \
	  "CREATE DOMAIN LocDom AS STRING ('New York', 'San Francisco', 'Austin');" \
	  "CREATE TABLE EMP (EmpNo KeyDom, Location LocDom, PRIMARY KEY (EmpNo));" \
	  "CREATE VIEW NY AS SELECT * FROM EMP WHERE Location = 'New York';" \
	  > /tmp/vuserved-chaos-init.sql; \
	/tmp/vuserved-chaos -addr 127.0.0.1:18097 -data /tmp/vuserved-chaos-data \
		-init /tmp/vuserved-chaos-init.sql -log-level warn & \
	SRV=$$!; sleep 1; \
	/tmp/vuload-chaos -addr http://127.0.0.1:18097 -chaos -clients 4 -requests 1000 \
		-seed 7 -out BENCH_chaos.json & \
	LOAD=$$!; sleep 0.3; \
	kill -9 $$SRV 2>/dev/null; wait $$SRV 2>/dev/null; \
	/tmp/vuserved-chaos -addr 127.0.0.1:18097 -data /tmp/vuserved-chaos-data \
		-init /tmp/vuserved-chaos-init.sql -log-level warn & \
	SRV=$$!; \
	wait $$LOAD; RC=$$?; \
	kill -TERM $$SRV 2>/dev/null; wait $$SRV 2>/dev/null; \
	rm -rf /tmp/vuserved-chaos-data /tmp/vuserved-chaos /tmp/vuload-chaos /tmp/vuserved-chaos-init.sql; \
	cat BENCH_chaos.json; \
	exit $$RC

# bench-check compiles and tests the repo benchmark. bench/ is a nested
# module (BENCHMARK.json's contract), so `./...` from the root never
# sees it; without this target an internal/* signature change could
# break the ledger silently.
bench-check:
	$(GO) vet -C bench .
	$(GO) test -C bench ./...

# ledger-pairs answers "is this change within bound": the ledger's
# end-to-end metrics on PARENT and on the working tree in alternating
# pairs, per workload and metric both medians, the parent's quartiles,
# the ratio, pairs won and worse / within against BENCHMARK.json's
# bounds, or claim (won 9 in 10 pairs, medians apart by more than the
# parent's interquartile range); exit 1 on a failed op or a metric
# worse beyond its bound (scripts/ledger-pairs.sh).
#   make ledger-pairs PARENT=<rev> [WORKLOADS="a b"] [PAIRS=3] [SECONDS=25]
ledger-pairs:
	bash scripts/ledger-pairs.sh "$(PARENT)" "$(WORKLOADS)" "$(PAIRS)" "$(SECONDS)"

# The tier-1+ check: build, vet, formatting, the full test suite under
# the race detector (which subsumes the plain `go test ./...`), the
# durability soak, and the benchmark module.
check: build vet fmt race soak bench-check

bench:
	$(GO) test -bench . -run '^$$' .

# bench-obs emits BENCH_obs.json: candidates/sec, translate latency
# p50/p99/p999, the per-criterion rejection histogram, and the hot-path
# contract evidence — disabled-path cost (~a nil check) and
# allocation-free enabled-path Observe (see docs/OBSERVABILITY.md).
bench-obs:
	$(GO) test -bench 'BenchmarkObs' -run '^$$' -benchtime 10x .
	@cat BENCH_obs.json

# obs-bench is an alias for bench-obs.
obs-bench: bench-obs

# bench-translate emits BENCH_translate.json: the overlay-based
# pipeline against the clone-per-candidate baseline it replaced —
# candidates/sec, translate latency p50/p99, allocs/op and the
# overlay/clone speedups (see docs/PERFORMANCE.md).
bench-translate:
	$(GO) test -bench 'BenchmarkTranslate' -run '^$$' -benchtime 20x .
	@cat BENCH_translate.json

# bench-ivm emits BENCH_ivm.json: incremental view maintenance against
# its full-rebuild baselines — a non-root SPJ mutation stream where the
# materialization is kept current by delta patching vs rematerialized
# per commit, and read-heavy serve churn through the engine's view
# cache with delta patching on publish vs invalidate-on-publish
# (see docs/PERFORMANCE.md).
bench-ivm:
	$(GO) test -bench 'BenchmarkIVM' -run '^$$' -benchtime 40x .
	@cat BENCH_ivm.json

# bench-shard emits BENCH_shard.json: aggregate durable commit
# throughput of the root-key sharded pipeline at 1/2/4/8 shards over
# modeled datacenter block storage (every WAL barrier padded to 2ms,
# MaxBatch=1 — the measured production regime, commits_per_sync ≈ 1;
# see the bench file's header), with a 25% cross-shard (two-phase)
# fraction. CI asserts speedup_8x_commits_per_sec ≥ 3
# (see docs/SHARDING.md).
bench-shard:
	$(GO) test -bench 'BenchmarkShardScale' -run '^$$' -benchtime 2000x -timeout 900s .
	@cat BENCH_shard.json

# bench-replica emits BENCH_replica.json: aggregate view-read
# throughput of a durable primary alone vs the same primary fronted by
# four WAL-streaming followers, every node behind an identical modeled
# per-node capacity gate (see the bench file's header), with live
# writes flowing and two /subscribe streams per follower. Alongside the
# read speedup it reports the follower staleness quantiles
# (publish→apply lag, ms), subscription fan-out events/sec, and the
# steady-state view-cache rebuild delta (O(delta) maintenance keeps it
# = 0). CI asserts speedup_4f_reads_per_sec ≥ 3 and staleness_p99_ms
# ≤ 250 (see docs/REPLICATION.md).
bench-replica:
	$(GO) test -bench 'BenchmarkReplicaScale' -run '^$$' -benchtime 4000x -timeout 600s .
	@cat BENCH_replica.json

# serve-bench boots vuserved on a scratch store and drives it with
# vuload in two phases, each against a fresh store. Phase 1 (idle): one
# client, no queueing — the latency floor; a solo commit never waits
# for the batch window, so this pins the unloaded p50 the adaptive
# batcher must not regress. Phase 2 (loaded): 8 clients with a 1ms
# batch window — emits BENCH_server.json with throughput, latency
# quantiles, per-stage breakdowns, connection reuse, and the
# group-commit evidence and EMP's final row count (base_rows_end, 0
# when the default policy leaks nothing; CI gates it), and fails unless
# batch-size p99 and commits/fsync both reach 4 (see docs/SERVING.md
# and docs/PERFORMANCE.md).
serve-bench:
	$(GO) build -o /tmp/vuserved-bench ./cmd/vuserved
	$(GO) build -o /tmp/vuload-bench ./cmd/vuload
	@rm -rf /tmp/vuserved-bench-data; \
	/tmp/vuserved-bench -addr 127.0.0.1:18099 -data /tmp/vuserved-bench-data -log-level warn & \
	SRV=$$!; sleep 1; \
	/tmp/vuload-bench -addr http://127.0.0.1:18099 -clients 1 -requests 200 \
		-out BENCH_server_idle.json; RC=$$?; \
	kill -TERM $$SRV 2>/dev/null; wait $$SRV 2>/dev/null; \
	rm -rf /tmp/vuserved-bench-data; \
	if [ $$RC -eq 0 ]; then \
		/tmp/vuserved-bench -addr 127.0.0.1:18099 -data /tmp/vuserved-bench-data \
			-log-level warn -batch-delay 1ms & \
		SRV=$$!; sleep 1; \
		/tmp/vuload-bench -addr http://127.0.0.1:18099 -clients 8 -requests 200 \
			-out BENCH_server.json -min-batch-p99 4 -min-commits-per-sync 4; RC=$$?; \
		kill -TERM $$SRV 2>/dev/null; wait $$SRV 2>/dev/null; \
	fi; \
	rm -rf /tmp/vuserved-bench-data /tmp/vuserved-bench /tmp/vuload-bench; \
	exit $$RC
	@cat BENCH_server.json

# bench-wire runs the pooled wire-codec microbenchmarks — decode,
# encode, and full round trip with allocation counts. The allocs/op
# ceilings themselves are pinned by the codec regression tests in
# internal/server (skipped under -race, whose instrumentation inflates
# allocation counts).
bench-wire:
	$(GO) test -bench 'BenchmarkWire' -run '^$$' -benchtime 2000x ./internal/server/

# metrics-smoke boots an in-memory vuserved, exercises one update, and
# fails unless /metrics serves every required family, /debug/slow serves
# traces, and pprof is absent without its flag. This is the CI gate for
# the observability surface.
metrics-smoke:
	$(GO) build -o /tmp/vuserved-smoke ./cmd/vuserved
	@/tmp/vuserved-smoke -addr 127.0.0.1:18098 -log-level warn & \
	SRV=$$!; sleep 1; RC=0; \
	B=http://127.0.0.1:18098; \
	curl -sf -X POST $$B/execz -d '{"script":"CREATE DOMAIN D AS INT RANGE 1 TO 9; CREATE DOMAIN L AS STRING ('\''NY'\''); CREATE TABLE T (K D, Loc L, PRIMARY KEY (K)); CREATE VIEW V AS SELECT * FROM T WHERE Loc = '\''NY'\'';"}' >/dev/null || RC=1; \
	curl -sf -X POST $$B/views/V/insert -d '{"values":["1","NY"]}' >/dev/null || RC=1; \
	M=$$(curl -sf $$B/metrics) || RC=1; \
	for fam in server_requests server_commit_committed server_commit_batch_size \
	    server_stage_translate_ns server_stage_verify_ns server_stage_queue_ns \
	    server_stage_commit_ns server_stage_publish_ns \
	    server_commit_queue_depth server_http_inflight go_goroutines \
	    server_degraded server_breaker_state server_idem_entries; do \
	  echo "$$M" | grep -q "# TYPE $$fam " || { echo "metrics-smoke: /metrics missing $$fam"; RC=1; }; \
	done; \
	curl -sf $$B/healthz | grep -q '"status": "ok"' || { echo "metrics-smoke: /healthz not ok"; RC=1; }; \
	curl -sf $$B/readyz | grep -q '"ready": true' || { echo "metrics-smoke: /readyz not ready"; RC=1; }; \
	curl -sf $$B/debug/slow | grep -q '"total_ns"' || { echo "metrics-smoke: /debug/slow has no traces"; RC=1; }; \
	PP=$$(curl -s -o /dev/null -w '%{http_code}' $$B/debug/pprof/cmdline); \
	[ "$$PP" = "404" ] || { echo "metrics-smoke: pprof served without -pprof (status $$PP)"; RC=1; }; \
	kill -TERM $$SRV 2>/dev/null; wait $$SRV 2>/dev/null; \
	rm -f /tmp/vuserved-smoke; \
	[ $$RC -eq 0 ] && echo "metrics-smoke: ok"; exit $$RC

clean:
	rm -f BENCH_obs.json BENCH_server.json BENCH_translate.json BENCH_ivm.json BENCH_chaos.json BENCH_shard.json BENCH_replica.json
