#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fuzz-readelf --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and scratch files stay under
# .bench_build in the repository root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
