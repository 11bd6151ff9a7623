#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash pixelbench/run.sh --workload infer-open --seed 1 --seconds 6 --trace 0
#
# The build cache, the binary and trace files stay under .bench_build in
# the checkout. A failed build exits non-zero before any result is
# printed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/pixelbench" && go build -o "$build/pixelbench" .)
cd "$root"
exec "$build/pixelbench" "$@"
