#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own, in this directory) from
# source and runs it from the repository root with the given arguments:
#
#   bash bench/run.sh --workload table9-full --seed 3 --seconds 25 --trace 0
#
# The build cache, the binary and every temporary file (the distributed
# workload's campaign directories included) stay under .bench_build/ in
# the repository root, so a run reads and writes nothing outside it but
# the Go toolchain itself.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"

go -C "$root/bench" build -o "$build/pbsim-bench" .
cd "$root"
exec "$build/pbsim-bench" "$@"
