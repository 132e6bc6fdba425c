#!/usr/bin/env bash
# scripts/incident_smoke.sh — end-to-end incident-forensics smoke test:
# start flserved undersized (-workers 1) with the profile trigger armed,
# slam it with cache-defeating concurrent solves until the queue-wait p99
# SLO trips, then assert the whole forensics arc:
#
#   - the breach automatically captures pprof profiles, filed as a
#     [profile] alert in /debug/alerts and on disk under -profile-dir,
#   - GET /debug/flight answers with per-request wide events,
#   - GET /debug/incident returns a non-empty tar.gz bundling flight
#     events, alerts, health windows, at least one assembled trace, and
#     at least one captured .pprof profile,
#   - /metrics carries the obs_runtime_* / obs_flight_* / obs_profile_*
#     series.
#
# Used by CI's "incident smoke" step; runnable locally with no arguments.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${PORT:-18090}"
WORK="$(mktemp -d)"
BIN="$WORK/flserved"
trap 'kill "${pid:-0}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$BIN" ./cmd/flserved
"$BIN" -addr ":$PORT" -trace-sample 1 -workers 1 -queue 512 \
    -health-tick 200ms -profile-dir "$WORK/profiles" \
    -profile-cpu-seconds 0.2 -profile-min-interval 1s -log-json &
pid=$!

for _ in $(seq 1 50); do
    curl -fsS "http://localhost:$PORT/v1/stats" >/dev/null 2>&1 && break
    sleep 0.2
done

# Cache-defeating load: every request carries a fresh channel-gain draw,
# so each solve is cold and queues behind the single worker. A 50-device
# fixed-deadline solve takes 10-25 ms, slow enough that concurrent clients
# push queue wait past the 50ms SLO within a couple of health ticks (a
# weighted solve of the same system takes about 1 ms and would not).
mkbody() { # mkbody <salt>
    local devs="" i
    for i in $(seq 1 50); do
        [ -n "$devs" ] && devs+=","
        devs+='{"samples":500,"cycles_per_sample":2e4,"upload_bits":2.81e4,"gain":'"$1.$i"'e-13,"f_min_hz":1e7,"f_max_hz":2e9,"p_min_w":1e-3,"p_max_w":1.585e-2}'
    done
    printf '{"device_id":"smoke-%s","mode":"deadline","total_deadline_s":300,"weights":{"w1":1,"w2":0},"system":{"bandwidth_hz":2e7,"n0_w_per_hz":3.98e-21,"kappa":1e-28,"local_iters":10,"global_rounds":400,"devices":[%s]}}' "$1" "$devs"
}

loaders=()
for w in $(seq 1 12); do
    (
        for j in $(seq 1 15); do
            curl -fsS -H 'Content-Type: application/json' \
                -d "$(mkbody "$w$j")" \
                "http://localhost:$PORT/v1/solve" >/dev/null 2>&1 || true
        done
    ) &
    loaders+=("$!")
done
wait "${loaders[@]}" # load clients done (the server keeps running)

out="$WORK/out"
# The breach transition fires the profile trigger; the capture lands in
# the alert ring as a [profile] event. Give the evaluator a few ticks.
captured=""
for _ in $(seq 1 50); do
    curl -fsS "http://localhost:$PORT/debug/alerts" -o "$out"
    if grep -q '"profile"' "$out" && grep -q 'profiles captured' "$out"; then
        captured=ok
        break
    fi
    sleep 0.2
done
[ -n "$captured" ] ||
    { echo "incident smoke: no [profile] alert after load: $(cat "$out")" >&2; exit 1; }
ls "$WORK"/profiles/cap-*/cpu.pprof >/dev/null 2>&1 ||
    { echo "incident smoke: no captured cpu.pprof under -profile-dir" >&2; exit 1; }

# Flight recorder: every request became one wide event.
curl -fsS "http://localhost:$PORT/debug/flight?limit=5" -o "$out"
grep -q '"trace_id"' "$out" ||
    { echo "incident smoke: /debug/flight has no events" >&2; exit 1; }

# Runtime vitals + forensics counters on /metrics.
curl -fsS "http://localhost:$PORT/metrics" -o "$out"
for series in obs_runtime_goroutines obs_runtime_heap_bytes obs_runtime_gc_pause_seconds \
    obs_flight_events_total obs_profile_captures_total; do
    grep -q "$series" "$out" ||
        { echo "incident smoke: $series missing from /metrics" >&2; exit 1; }
done

# The one-shot incident bundle: non-empty tar.gz with flight events,
# alerts, health windows, at least one assembled trace, and at least one
# profile file.
bundle="$WORK/incident.tar.gz"
curl -fsS "http://localhost:$PORT/debug/incident" -o "$bundle"
[ -s "$bundle" ] || { echo "incident smoke: empty bundle" >&2; exit 1; }
toc="$(tar -tzf "$bundle")"
for entry in meta.json flight.json runtime.json alerts.json health.json traces.json; do
    grep -q "^$entry\$" <<<"$toc" ||
        { echo "incident smoke: bundle missing $entry; contents: $toc" >&2; exit 1; }
done
grep -q '^profiles/cap-.*\.pprof$' <<<"$toc" ||
    { echo "incident smoke: bundle has no profile files; contents: $toc" >&2; exit 1; }
# -m: the bundle's header mtimes are the capture instant, which can sit
# fractionally ahead of this shell's clock — don't let tar warn on that.
tar -xzmf "$bundle" -C "$WORK" flight.json traces.json
grep -q '"trace_id"' "$WORK/flight.json" ||
    { echo "incident smoke: bundle flight.json has no events" >&2; exit 1; }
grep -q '"spans"' "$WORK/traces.json" ||
    { echo "incident smoke: bundle traces.json has no assembled trace" >&2; exit 1; }

kill "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
echo "incident smoke OK"
