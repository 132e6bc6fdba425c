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
#   PAIRED_BASE=<rev> scripts/bench.sh out.json
#
# PAIRED_BASE adds a paired before/after measurement: the test binaries of
# revision <rev> (unpacked with git archive, nothing downloaded) and of
# this tree run each benchmark in PAIRED alternately, ten pairs each, and
# every ns/op lands in the JSON under "paired" with the median
# after/before ratio per benchmark: two revisions timed back to back on
# one host, unlike a diff of two baseline files recorded on different
# days. A sub-benchmark is named in full (Name/sub/sub); each level of
# its -bench pattern is anchored, since N=500 alone would also match
# N=5000.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES='^(BenchmarkOptimizeWeighted|BenchmarkOptimizeJointWeighted|BenchmarkOptimizeDeadline|BenchmarkOptimizeScale|BenchmarkServeCold|BenchmarkServeCached|BenchmarkServeDrift|BenchmarkServeTraced|BenchmarkServeBatch|BenchmarkClusterRoutedCached|BenchmarkStreamDelta|BenchmarkStreamRepostCold|BenchmarkMassHandoff|BenchmarkHandoffPerDevice)$'
BENCHTIME="${BENCHTIME:-2s}"
PAIRED='BenchmarkOptimizeWeighted BenchmarkOptimizeJointWeighted BenchmarkOptimizeDeadline BenchmarkOptimizeScale/N=500/weighted BenchmarkOptimizeScale/N=5000/weighted BenchmarkOptimizeScale/N=500/deadline BenchmarkOptimizeScale/N=5000/deadline BenchmarkServeCold BenchmarkServeCached BenchmarkServeDrift BenchmarkClusterRoutedCached BenchmarkHandoffPerDevice BenchmarkStreamDelta'

out="$(go test -run '^$' -bench "$BENCHES" -benchmem -benchtime "$BENCHTIME" -count 1 .)"
echo "$out" >&2

paired=""
if [ -n "${PAIRED_BASE:-}" ]; then
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    mkdir "$tmp/base"
    git archive "$PAIRED_BASE" | tar -x -C "$tmp/base"
    (cd "$tmp/base" && go test -c -o "$tmp/base.test" .)
    go test -c -o "$tmp/change.test" .
    nsof() {
        "$tmp/$1.test" -test.run '^$' -test.bench "^${2//\//\$/^}\$" -test.benchtime "$BENCHTIME" |
            awk '/^Benchmark/ { print $3 }'
    }
    entries=""
    for pbench in $PAIRED; do
        base_ns="" change_ns=""
        for k in 1 2 3 4 5 6 7 8 9 10; do
            if [ $((k % 2)) -eq 1 ]; then
                b="$(nsof base "$pbench")"; c="$(nsof change "$pbench")"
            else
                c="$(nsof change "$pbench")"; b="$(nsof base "$pbench")"
            fi
            echo "paired $pbench: base $b ns/op, change $c ns/op" >&2
            base_ns="$base_ns${base_ns:+, }$b"
            change_ns="$change_ns${change_ns:+, }$c"
        done
        ratio="$(echo "$base_ns;$change_ns" | awk -F';' '{
            n = split($1, b, ", "); split($2, c, ", ")
            for (i = 1; i <= n; i++) r[i] = c[i] / b[i]
            for (i = 1; i <= n; i++) for (j = i + 1; j <= n; j++) if (r[j] < r[i]) { t = r[i]; r[i] = r[j]; r[j] = t }
            printf "%.4f", (n % 2) ? r[(n + 1) / 2] : (r[n / 2] + r[n / 2 + 1]) / 2
        }')"
        echo "paired $pbench: median ratio $ratio" >&2
        entries="$entries${entries:+,\n}    \"$pbench\": {\"base_ns\": [$base_ns], \"change_ns\": [$change_ns], \"median_ratio\": $ratio}"
    done
    paired="$(printf '"paired": {"base": "%s", "benchmarks": {\n%b\n  }}' "$(git rev-parse --short "$PAIRED_BASE")" "$entries")"
fi

json="$(echo "$out" | awk -v paired="$paired" '
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
END {
    if (paired != "") printf "%s  %s", sep, paired
    printf "\n}\n"
}
')"

echo "$json"
if [ $# -ge 1 ]; then
    echo "$json" > "$1"
fi
