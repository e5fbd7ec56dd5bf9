#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
#
#   bash benchmark/run.sh --workload csi-sweep --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Build outputs and the Go build cache go to
# .bench_build/ in the checkout, so nothing is written outside it.
set -euo pipefail
root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "benchmark: run from the repository root; no simulator sources in $root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
(cd "$root/benchmark" && go build -o "$build/parbs-benchmark" .)
exec "$build/parbs-benchmark" "$@"
