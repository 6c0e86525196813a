#!/bin/sh
# Benchmark trajectory harness: runs the sweep-scale benchmark suite and
# writes BENCH_sweep.json (ns/op, B/op, allocs/op, plus any b.ReportMetric
# coverage metrics) at the repository root. If a BENCH_sweep.json from an earlier run exists,
# its results are preserved under "previous" so successive PRs accumulate a
# perf trajectory instead of overwriting the baseline.
#
# Usage: scripts/bench.sh [benchtime]   (default benchtime: 3x)
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${1:-3x}"
PATTERN='BenchmarkPromptBuild$|BenchmarkRestrictEnv$|BenchmarkFingerprint$|BenchmarkFigure1a$|BenchmarkTable2$|BenchmarkBestFirstExpand$|BenchmarkTryCache$|BenchmarkWarmSweep$|BenchmarkRemoteExpand$|BenchmarkInternTerm$|BenchmarkFingerprintKey$|BenchmarkSubstFastPath$|BenchmarkTypedLoad$|BenchmarkDistributedSweep$|BenchmarkModelPropose$|BenchmarkInversion$'
OUT=BENCH_sweep.json
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

echo "==> go test -bench ($BENCHTIME)"
go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" . | tee "$RAW"

PREV='null'
if [ -f "$OUT" ]; then
    # Keep only the prior run's flat results as the new "previous" field.
    PREV=$(awk 'BEGIN{inb=0} /"benchmarks": \[/{inb=1; printf "["; next} inb&&/^  \]/{printf "]"; exit} inb{gsub(/^[ \t]+/,""); printf "%s", $0}' "$OUT")
    [ -n "$PREV" ] || PREV='null'
fi

awk -v prev="$PREV" -v benchtime="$BENCHTIME" '
BEGIN {
    n = 0
}
$1 ~ /^Benchmark/ && $NF == "ns\/op" || ($0 ~ /ns\/op/ && $1 ~ /^Benchmark/) {
    name = $1
    sub(/-[0-9]+$/, "", name)
    iters = $2
    nsop = ""
    bop = "null"
    aop = "null"
    metrics = ""
    for (i = 3; i < NF; i++) {
        if ($(i + 1) == "ns/op") nsop = $i
        else if ($(i + 1) == "B/op") bop = $i
        else if ($(i + 1) == "allocs/op") aop = $i
        else if ($(i + 1) ~ /%$|^[a-zA-Z]/ && $(i + 1) != "ns/op" && $i ~ /^[0-9.]+$/) {
            if (metrics != "") metrics = metrics ", "
            metrics = metrics "\"" $(i + 1) "\": " $i
            i++
        }
    }
    if (nsop == "") next
    n++
    entry[n] = sprintf("{\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"metrics\": {%s}}", name, iters, nsop, bop, aop, metrics)
}
END {
    printf "{\n"
    printf "  \"harness\": \"scripts/bench.sh\",\n"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"benchmarks\": [\n"
    for (i = 1; i <= n; i++) printf "    %s%s\n", entry[i], (i < n ? "," : "")
    printf "  ],\n"
    printf "  \"previous\": %s\n", prev
    printf "}\n"
}' "$RAW" > "$OUT"

echo "wrote $OUT"
