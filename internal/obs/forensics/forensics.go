// Package forensics is the post-hoc layer of the observability stack:
// where internal/obs answers "what happened to this request" and
// internal/health answers "how has this cell been doing lately",
// forensics answers "what was the process doing when things went wrong —
// and can I have the evidence in one file".
//
// It has four parts:
//
//   - FlightRecorder: a bounded, lock-cheap ring of
//     per-request wide events (one compact Event per finished trace,
//     derived from the trace's spans) fed from the collector sink and
//     queryable at GET /debug/flight with the same validated query
//     parameters as /debug/traces. Sampling-independent: every request
//     lands here even at 1-in-N trace retention. It exists only where
//     there is a collector, so a process with tracing off has none.
//
//   - ProfileTrigger: SLO-triggered pprof capture. Wired to health state
//     transitions by the cmds, it writes CPU, heap, goroutine, and mutex
//     profiles under a capture directory per firing — rate-limited,
//     suppression-counted, with bounded on-disk retention (oldest capture
//     directories pruned).
//
//   - Runtime vitals: goroutines, live heap bytes, GC pause p99, and
//     scheduler latency p99 read from runtime/metrics, exported as
//     obs_runtime_* gauges and judged by the health layer's runtime
//     rules.
//
//   - IncidentHandler: GET /debug/incident assembles the flight-recorder
//     window, runtime vitals, the configured sections (alert ring, health
//     windows, convergence observatory, assembled slow traces), and the
//     retained profile captures into one downloadable tar.gz.
package forensics
