#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of the
# checkout. Everything the build writes (Go's build cache, its temporary
# files and its local telemetry counters included) stays under
# .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -C bench -o "$build/tcpls-bench" .
exec "$build/tcpls-bench" "$@"
