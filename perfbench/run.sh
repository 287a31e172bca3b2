#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoke from the repository
# root: bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout, so the run reads and writes nothing outside it.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
