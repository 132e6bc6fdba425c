package main

import (
	"math"
	"sort"
	"time"
)

// metricDef describes one reported metric.
type metricDef struct {
	name  string
	unit  string
	lower bool // lower is better
	// bound is how much worse a value may get against a pinned baseline
	// before -compare fails: a share of the pinned value, or an absolute
	// difference when abs is set. 0 means never gated, and per-layer
	// metrics have none.
	bound float64
	abs   bool
	// gated metrics are the end-to-end metrics BENCHMARK.json lists: defined
	// on every workload, and within their bound between two sets of runs of
	// the same code. The rest fail one of these and only -compare checks
	// them.
	gated bool
}

// timeBound is the bound of every timing metric but setup_s. Timings are
// scaled by the host probe (hostprobe.go), which removes most of the shared
// host's speed swings. setupBound is set-up time's, the largest of the
// gated metrics' bounds: a few short set-ups per run are noisier than a
// 20 s window, and a gate on set-up time exists to show work moved out of
// the window into set-up, which a 25% bound still catches.
const (
	timeBound  = 0.10
	setupBound = 0.25
)

// e2eMetrics are the end-to-end metrics, in print order. latency_p50_ms and
// cpu_ms_per_op are not gated: on cluster-hot two sets of runs of the same
// code came up to 23% and 13% apart, past timeBound (README.md, "Noise").
var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s", lower: true, bound: setupBound, gated: true},
	{name: "throughput_rps", unit: "1/s", bound: timeBound, gated: true},
	{name: "latency_p50_ms", unit: "ms", lower: true, bound: timeBound},
	{name: "latency_p99_ms", unit: "ms", lower: true, bound: timeBound},
	// Host stalls set p999: 4.5 to 11.5 ms over eight runs of the same code.
	{name: "latency_p999_ms", unit: "ms", lower: true},
	{name: "slo_met_share", unit: "share", bound: 0.005, abs: true},
	{name: "fail_share", unit: "share", lower: true, bound: 0.005, abs: true},
	{name: "cpu_ms_per_op", unit: "ms", lower: true, bound: timeBound},
	{name: "retained_heap_mb", unit: "MB", lower: true, bound: 0.10, gated: true},
	{name: "objective_rel", unit: "ratio", lower: true, bound: 1e-4, abs: true, gated: true},
}

// layerMetrics are the per-layer metrics of a traced run, in print order.
// Each is reported on every workload; it reads 0 where the layer is not on
// the workload's path or a percentile lacks the samples to support it.
var layerMetrics = []metricDef{
	{name: "loadgen.lag_p99_ms", unit: "ms", lower: true},
	{name: "loadgen.gen_lag_p99_ms", unit: "ms", lower: true},
	{name: "loadgen.late_share", unit: "share", lower: true},
	{name: "loadgen.backlog_end", unit: "count", lower: true},
	{name: "http.server_p50_ms", unit: "ms", lower: true},
	{name: "http.server_p99_ms", unit: "ms", lower: true},
	{name: "http.client_overhead_p50_ms", unit: "ms", lower: true},
	{name: "http.decode_us", unit: "us", lower: true},
	{name: "http.encode_us", unit: "us", lower: true},
	{name: "serve.hit_share", unit: "share"},
	{name: "serve.warm_share", unit: "share"},
	{name: "serve.cold_share", unit: "share", lower: true},
	{name: "serve.dedup_share", unit: "share"},
	{name: "serve.rejected", unit: "count", lower: true},
	{name: "serve.queue_wait_p50_ms", unit: "ms", lower: true},
	{name: "serve.queue_wait_p99_ms", unit: "ms", lower: true},
	{name: "serve.hit_p50_us", unit: "us", lower: true},
	{name: "serve.fingerprint_us", unit: "us", lower: true},
	{name: "cluster.route_us", unit: "us", lower: true},
	{name: "cluster.routed_pinned", unit: "count", lower: true},
	{name: "cluster.routed_hashed", unit: "count", lower: true},
	{name: "cluster.handoff_p50_ms", unit: "ms", lower: true},
	{name: "cluster.handoff_p99_ms", unit: "ms", lower: true},
	{name: "cluster.migrated_results", unit: "count"},
	{name: "core.calls", unit: "count", lower: true},
	{name: "core.solve_p50_ms", unit: "ms", lower: true},
	{name: "core.solve_p99_ms", unit: "ms", lower: true},
	{name: "core.busy_share", unit: "share", lower: true},
	{name: "core.sp1_ms_mean", unit: "ms", lower: true},
	{name: "core.sp2_ms_mean", unit: "ms", lower: true},
	{name: "core.newton_per_call", unit: "count", lower: true},
	{name: "core.outer_per_call", unit: "count", lower: true},
	{name: "stream.deltas", unit: "count"},
	{name: "stream.coalesced_share", unit: "share", lower: true},
	{name: "stream.warm_share", unit: "share"},
	{name: "stream.backend_p50_ms", unit: "ms", lower: true},
	{name: "stream.self_ms_mean", unit: "ms", lower: true},
	{name: "runtime.allocs_per_op", unit: "count", lower: true},
	{name: "runtime.alloc_bytes_per_op", unit: "B", lower: true},
	{name: "runtime.gc_cpu_share", unit: "share", lower: true},
	{name: "overhead.latency_p50_share", unit: "share", lower: true},
	{name: "host.probe_ms", unit: "ms", lower: true},
}

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail read off fewer points is one or two outliers, not a
// percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted (ascending) and
// whether at least minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median is the 0.5-quantile of unsorted values (0 for none).
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	v, _ := percentile(s, 0.5)
	return v
}

// durationsMs converts durations to sorted milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// share returns num/den, or 0 for an empty denominator.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
