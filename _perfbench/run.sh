#!/usr/bin/env bash
# Builds cmd/experiments and the benchmark driver from source, then runs the
# driver with the given arguments, e.g.
#
#   bash _perfbench/run.sh --workload cold --seed 2025 --seconds 15 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ at the
# repository root.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off
(cd "$root" && go build -o "$out/experiments" ./cmd/experiments)
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -experiments "$out/experiments" -work "$out/work" -refs "$here/reference/sha256sums" "$@"
