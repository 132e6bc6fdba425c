#!/usr/bin/env bash
# scripts/crash_smoke.sh — end-to-end crash-recovery smoke test: start
# flcluster with snapshots on, solve for a few devices, kill a cell
# WITHOUT draining, and assert the cluster keeps answering:
#
#   - the dead cell's device gets a 200 from a surviving cell, and its
#     repeat is a cache hit there ("source":"cache"),
#   - a SIGTERM flushes a final snapshot, and a restarted process answers
#     the same request from its restored cache ("source":"cache").
#
# Used by CI's "crash smoke" step; runnable locally with no arguments.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${PORT:-18090}"
TMP="$(mktemp -d)"
BIN="$TMP/flcluster"
SNAPDIR="$TMP/snap"
trap 'kill "${pid:-0}" 2>/dev/null || true; rm -rf "$TMP"' EXIT

go build -o "$BIN" ./cmd/flcluster

start_cluster() {
    "$BIN" -addr ":$PORT" -cells 3 \
        -snapshot-dir "$SNAPDIR" -snapshot-interval -1s -log-json &
    pid=$!
    for _ in $(seq 1 50); do
        curl -fsS "http://localhost:$PORT/v1/stats" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    echo "crash smoke: cluster did not come up" >&2
    exit 1
}
start_cluster

# A tiny 3-device FL system with the paper's default constants (20 MHz
# uplink, -174 dBm/Hz noise, 0-12 dBm power box, 10 MHz - 2 GHz CPU box).
# Each device ID gets a distinct sample count so every device has its own
# fingerprint: smoke-0's cache entry lives ONLY on the cell that served
# it, so the post-crash solve can't sneak a hit off another device's
# state — its cache hit on the repeat proves the survivor cached it.
body_for() {
    local idx="${1##*-}"
    local dev='{"samples":'"$((500 + 50 * idx))"',"cycles_per_sample":2e4,"upload_bits":2.81e4,"gain":1e-10,"f_min_hz":1e7,"f_max_hz":2e9,"p_min_w":1e-3,"p_max_w":1.585e-2}'
    local sys='{"bandwidth_hz":2e7,"n0_w_per_hz":3.98e-21,"kappa":1e-28,"local_iters":10,"global_rounds":400,"devices":['"$dev,$dev,$dev"']}'
    echo '{"device_id":"'"$1"'","weights":{"w1":0.5,"w2":0.5},"system":'"$sys"'}'
}

solve() { # solve DEVICE -> response JSON on stdout (fails unless 200)
    curl -fsS -H 'Content-Type: application/json' \
        -d "$(body_for "$1")" "http://localhost:$PORT/v1/solve"
}
field() { # field JSON NAME -> first value of "NAME":VALUE
    grep -o "\"$2\":[^,}]*" <<<"$1" | head -1 | cut -d: -f2- | tr -d '"'
}

# Route a handful of devices, remember which cell served the first one —
# that cell is the crash victim.
out="$(solve smoke-0)"
victim="$(field "$out" cell)"
[ "$(field "$out" source)" = cold ] ||
    { echo "crash smoke: first solve not cold: $out" >&2; exit 1; }
for d in 1 2 3 4 5; do solve "smoke-$d" >/dev/null; done

curl -fsS -X POST "http://localhost:$PORT/v1/cells/$victim/crash" -o "$TMP/crash.json"

# The dead cell's device is answered (200) by a survivor: the cache died
# with the cell, so it solves there, and the repeat hits the survivor's
# cache.
out="$(solve smoke-0)"
cell="$(field "$out" cell)"
if [ -z "$cell" ] || [ "$cell" = "$victim" ]; then
    echo "crash smoke: post-crash solve cell=$cell (victim=$victim), want a surviving cell: $out" >&2
    exit 1
fi
out="$(solve smoke-0)"
if [ "$(field "$out" cell)" != "$cell" ] || [ "$(field "$out" source)" != cache ]; then
    echo "crash smoke: post-crash repeat $out, want source cache on cell $cell" >&2
    exit 1
fi

# Graceful shutdown flushes a final snapshot; the restarted process must
# answer the survivor's replay straight from its restored cache.
kill -TERM "$pid"
wait "$pid" 2>/dev/null || true
[ -f "$SNAPDIR/flcluster.snap" ] ||
    { echo "crash smoke: no snapshot written on SIGTERM" >&2; exit 1; }

# The fresh process routes by a fresh ring while the restore lands each
# snapshot section on its original cell ID, so probe every cell
# explicitly: the replay must be a cache hit SOMEWHERE in the cluster.
start_cluster
restored=""
for id in 0 1 2; do
    out="$(curl -fsS -H 'Content-Type: application/json' \
        -d "$(body_for smoke-0)" "http://localhost:$PORT/v1/cells/$id/solve")"
    [ "$(field "$out" source)" = cache ] && { restored=yes; break; }
done
[ -n "$restored" ] ||
    { echo "crash smoke: no cell answered the replay from the restored cache" >&2; exit 1; }
kill -TERM "$pid"
wait "$pid" 2>/dev/null || true

echo "crash smoke OK"
