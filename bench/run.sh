#!/bin/bash
# The driver's entry point (the "command" of BENCHMARK.json): build the
# benchmark inside the checkout and run it with the driver's arguments.
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry counters) is pointed under bench/.run, so that a run reads
# and writes nothing outside its checkout; the first run in a checkout
# therefore compiles the standard library too.
set -eu
cd "$(dirname "$0")"
run="$PWD/.run"
mkdir -p "$run/tmp"
export GOCACHE="$run/gocache" GOTMPDIR="$run/tmp" XDG_CONFIG_HOME="$run/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$run/bin/bench" .
exec "$run/bin/bench" "$@"
