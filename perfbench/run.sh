#!/usr/bin/env bash
# Builds the pbmg benchmark from this checkout's sources and runs it:
#
#	bash perfbench/run.sh --workload solve-large --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, tuned tables, spans, run records) goes under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"

# Keep the Go toolchain hermetic and offline: caches and config live in the
# build directory, and nothing is fetched.
(
	cd "$here"
	env HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
		GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
		GOENV=off GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$build/perfbench" .
)
exec "$build/perfbench" -out "$build/perfbench-out" "$@"
