#!/usr/bin/env bash
# Builds the benchmark and the hmcservd job daemon from source, then runs
# one workload:
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root (Go build cache, temp files, binaries, daemon state).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config" "$out/cache"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(
	cd "$here"
	go build -o "$out/perfbench" .
	go build -o "$out/hmcservd" hmccoal/cmd/hmcservd
)
exec "$out/perfbench" -hmcservd "$out/hmcservd" -workdir "$out" "$@"
