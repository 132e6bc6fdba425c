#!/usr/bin/env bash
# scripts/bench.sh — run the solver/serving benchmark set with -benchmem and
# emit a machine-readable JSON baseline, so every perf PR can diff its
# before/after numbers against the committed trajectory (BENCH_PR3.json
# holds PR 3's pair, BENCH_PR4.json PR 4's streaming-delta pair,
# BENCH_PR5.json PR 5's mass-handoff pair, BENCH_PR6.json PR 6's traced
# serving numbers; later PRs append their own files).
#
# Usage:
#   scripts/bench.sh            # human output to stderr, JSON to stdout
#   scripts/bench.sh out.json   # ... and the JSON also written to out.json
#   BENCHTIME=5s scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES='^(BenchmarkOptimizeWeighted|BenchmarkOptimizeDeadline|BenchmarkServeCold|BenchmarkServeCached|BenchmarkServeDrift|BenchmarkServeTraced|BenchmarkServeBatch|BenchmarkClusterRoutedCached|BenchmarkStreamDelta|BenchmarkStreamRepostCold|BenchmarkMassHandoff|BenchmarkHandoffPerDevice)$'
BENCHTIME="${BENCHTIME:-2s}"

# Churn smoke: the elastic-cluster loadgen with cells added and drained
# mid-replay — membership changes, mass migrations and epoch rerouting all
# race live traffic. Failures (lost requests, ErrStaleSeq leaks) abort the
# bench run; the stats line lands on stderr next to the benchmark output.
go run ./cmd/flcluster -loadgen 600 -cells 3 -devices 12 -n 8 -conc 4 -churn 3 >&2

# Crash smoke: the same loadgen with drain-less cell removals instead —
# the dead cells' devices reroute to the survivors while the replay races
# the membership change.
go run ./cmd/flcluster -loadgen 600 -cells 3 -devices 12 -n 8 -conc 4 -crash 2 >&2

out="$(go test -run '^$' -bench "$BENCHES" -benchmem -benchtime "$BENCHTIME" -count 1 .)"
echo "$out" >&2

json="$(echo "$out" | awk '
BEGIN { printf "{\n"; sep = "" }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
    printf "%s  \"%s\": {", sep, name
    sep = ",\n"
    inner = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        gsub(/[^a-zA-Z0-9_]/, "_", unit)
        printf "%s\"%s\": %s", inner, unit, $i
        inner = ", "
    }
    printf "}"
}
END { printf "\n}\n" }
')"

echo "$json"
if [ $# -ge 1 ]; then
    echo "$json" > "$1"
fi
