#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it
# with the given flags, from the checkout root:
#
#   bash bench/run.sh -workload cluster-hot -seed 1 -seconds 20 -trace 0
#
# Everything the build leaves behind (binary, Go build cache, temporary
# files, the Go command's per-user files) stays under .bench_build/ in the
# checkout, and
# the Go command is kept offline: the benchmark module depends only on the
# repository module beside it (bench/go.mod replaces it with ../).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" GOPATH="$out/gopath" GOCACHE="$out/gocache" \
    GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
    GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/bench" && go build -buildvcs=false -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
