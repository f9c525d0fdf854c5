#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, passing every
# argument through (see README.md):
#
#   bash bench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact stays inside the checkout: the Go build cache,
# the binaries and the servers' data dirs under .bench_build/, span files
# under bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd bench && go build -o "$build/bin/ctflbench" .)
exec "$build/bin/ctflbench" -repo "$PWD" "$@"
