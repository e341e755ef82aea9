#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments, for example:
#
#   bash benchmark/run.sh --workload kv-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, module cache,
# telemetry counters and temporary files stay under .bench_build/ in the
# checkout, so the first run compiles everything and later runs reuse
# it. Without the eleos module beside benchmark/ the build fails, and so
# does the run.
set -euo pipefail

build="${PWD}/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS= \
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
go -C benchmark build -o "$build/eleos-benchmark" .
exec "$build/eleos-benchmark" "$@"
