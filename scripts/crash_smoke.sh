#!/usr/bin/env bash
# scripts/crash_smoke.sh — end-to-end crash-recovery smoke test: start
# flcluster with ring-successor replication and snapshots on, warm a few
# device keyspaces, kill a cell WITHOUT draining, and assert the failure
# degraded to warm-but-not-cached instead of cold:
#
#   - the post-crash replay of a dead cell's device is source "warm" on a
#     surviving cell (its replica was promoted),
#   - /metrics records replica_promotions_total 1,
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
    "$BIN" -addr ":$PORT" -cells 3 -replicate \
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
# Each device ID gets a distinct sample count so even the TOPOLOGY
# fingerprints differ: smoke-0's keyspace (cache and warm bucket alike)
# then lives ONLY on the cell that served it, and the post-crash replay
# can't sneak a cache or warm hit off another device's state — a warm
# answer proves the promoted replica.
body_for() {
    local idx="${1##*-}"
    local dev='{"samples":'"$((500 + 50 * idx))"',"cycles_per_sample":2e4,"upload_bits":2.81e4,"gain":1e-10,"f_min_hz":1e7,"f_max_hz":2e9,"p_min_w":1e-3,"p_max_w":1.585e-2}'
    local sys='{"bandwidth_hz":2e7,"n0_w_per_hz":3.98e-21,"kappa":1e-28,"local_iters":10,"global_rounds":400,"devices":['"$dev,$dev,$dev"']}'
    echo '{"device_id":"'"$1"'","weights":{"w1":0.5,"w2":0.5},"system":'"$sys"'}'
}

solve() { # solve DEVICE -> response JSON on stdout
    curl -fsS -H 'Content-Type: application/json' \
        -d "$(body_for "$1")" "http://localhost:$PORT/v1/solve"
}
field() { # field JSON NAME -> first value of "NAME":VALUE
    grep -o "\"$2\":[^,}]*" <<<"$1" | head -1 | cut -d: -f2- | tr -d '"'
}

# Warm traffic: route a handful of devices, remember which cell served
# the first one — that cell is the crash victim.
out="$(solve smoke-0)"
victim="$(field "$out" cell)"
[ "$(field "$out" source)" = cold ] ||
    { echo "crash smoke: first solve not cold: $out" >&2; exit 1; }
for d in 1 2 3 4 5; do solve "smoke-$d" >/dev/null; done

# Let the replicator's 1s flush ship the warm state, then kill the victim.
sleep 2
curl -fsS -X POST "http://localhost:$PORT/v1/cells/$victim/crash" -o "$TMP/crash.json"
grep -q '"warm_seeds":0' "$TMP/crash.json" &&
    { echo "crash smoke: promotion shipped no warm seeds: $(cat "$TMP/crash.json")" >&2; exit 1; }

# The dead cell's device replays warm on a survivor: the cache died with
# the cell, the replicated warm seed did not.
out="$(solve smoke-0)"
cell="$(field "$out" cell)"
src="$(field "$out" source)"
if [ "$cell" = "$victim" ] || [ "$src" != warm ]; then
    echo "crash smoke: post-crash replay cell=$cell source=$src (victim=$victim), want warm on a survivor" >&2
    exit 1
fi

curl -fsS "http://localhost:$PORT/metrics" -o "$TMP/metrics"
grep -q '^replica_promotions_total 1' "$TMP/metrics" ||
    { echo "crash smoke: replica_promotions_total missing from /metrics" >&2; exit 1; }

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
