package serve

import (
	"fmt"
	"io"
)

// PromContentType is the Prometheus text exposition content type.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromWriter emits the Prometheus text exposition format. It writes each
// metric's # HELP/# TYPE header exactly once even when several labelsets
// of the same name are emitted (the per-cell series of a cluster), which
// the format requires.
type PromWriter struct {
	w    io.Writer
	seen map[string]bool
	err  error
}

// NewPromWriter wraps w. Write errors are sticky and reported by Err.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, seen: make(map[string]bool)}
}

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

// Counter emits one counter sample. labels is the raw label list without
// braces (e.g. `cell="3"`), empty for none.
func (p *PromWriter) Counter(name, help, labels string, v float64) {
	p.sample(name, help, "counter", labels, v)
}

// Gauge emits one gauge sample.
func (p *PromWriter) Gauge(name, help, labels string, v float64) {
	p.sample(name, help, "gauge", labels, v)
}

func (p *PromWriter) sample(name, help, kind, labels string, v float64) {
	if p.err != nil {
		return
	}
	if !p.seen[name] {
		p.seen[name] = true
		if _, err := fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind); err != nil {
			p.err = err
			return
		}
	}
	series := name
	if labels != "" {
		series = name + "{" + labels + "}"
	}
	if _, err := fmt.Fprintf(p.w, "%s %g\n", series, v); err != nil {
		p.err = err
	}
}

// Histogram emits one full histogram: cumulative _bucket series over the
// given bounds (the final +Inf bucket is appended when bounds omit it),
// plus _sum and _count. buckets holds raw per-bucket counts aligned with
// bounds; labels is the raw label list without braces.
func (p *PromWriter) Histogram(name, help, labels string, bounds []string, buckets []int64, sum float64, count int64) {
	if p.err != nil {
		return
	}
	if !p.seen[name] {
		p.seen[name] = true
		if _, err := fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
			p.err = err
			return
		}
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	sawInf := false
	for i, c := range buckets {
		cum += c
		le := "+Inf"
		if i < len(bounds) {
			le = bounds[i]
		}
		if le == "+Inf" {
			sawInf = true
		}
		if _, err := fmt.Fprintf(p.w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, cum); err != nil {
			p.err = err
			return
		}
	}
	if !sawInf {
		if _, err := fmt.Fprintf(p.w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum); err != nil {
			p.err = err
			return
		}
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	if _, err := fmt.Fprintf(p.w, "%s_sum%s %g\n%s_count%s %d\n", name, suffix, sum, name, suffix, count); err != nil {
		p.err = err
	}
}

// WritePrometheus emits the snapshot's counters, occupancy gauges and
// latency quantiles under the given metric prefix (e.g. "flserve") and
// label list (without braces; empty for none). Quantile series get a
// `quantile` label appended, summary-style.
func (s Snapshot) WritePrometheus(p *PromWriter, prefix, labels string) {
	counters := []struct {
		name, help string
		v          int64
	}{
		{"requests_total", "Solve requests received, whatever the outcome.", s.Requests},
		{"cache_hits_total", "Requests answered from the solution cache.", s.Hits},
		{"cache_misses_total", "Requests whose exact fingerprint was absent.", s.Misses},
		{"cold_solves_total", "Solves started from scratch.", s.ColdSolves},
		{"deduped_total", "Requests joined onto an identical in-flight solve.", s.Deduped},
		{"rejected_total", "Requests shed because the queue was full.", s.Rejected},
		{"errors_total", "Requests that ended in a solver or validation error.", s.Errors},
		{"batch_requests_total", "SolveBatch calls received.", s.BatchRequests},
		{"batch_items_total", "Instances carried by SolveBatch calls.", s.BatchItems},
	}
	for _, c := range counters {
		p.Counter(prefix+"_"+c.name, c.help, labels, float64(c.v))
	}
	p.Gauge(prefix+"_cache_entries", "Current solution-cache occupancy.", labels, float64(s.CacheEntries))
	p.Gauge(prefix+"_queue_len", "Instantaneous interactive-queue depth.", labels, float64(s.QueueLen))
	p.Gauge(prefix+"_bulk_queue_len", "Instantaneous bulk-queue depth.", labels, float64(s.BulkQueueLen))
	p.Gauge(prefix+"_tracked_buckets", "Topology buckets with per-bucket hit-rate counters.", labels, float64(s.TrackedBuckets))
	for _, b := range s.Buckets {
		bl := `bucket="` + b.Bucket + `"`
		if labels != "" {
			bl = labels + "," + bl
		}
		p.Counter(prefix+"_bucket_hits_total", "Cache hits in the busiest topology buckets.", bl, float64(b.Hits))
		p.Counter(prefix+"_bucket_misses_total", "Cache misses in the busiest topology buckets.", bl, float64(b.Misses))
		p.Gauge(prefix+"_bucket_hit_rate", "Cache hit rate in the busiest topology buckets.", bl, b.HitRate)
	}
	for _, qv := range []struct {
		q string
		v float64
	}{{"0.5", s.SolveP50}, {"0.99", s.SolveP99}} {
		ql := `quantile="` + qv.q + `"`
		if labels != "" {
			ql = labels + "," + ql
		}
		p.Gauge(prefix+"_solve_latency_seconds", "Recent solve latency quantiles (cache hits excluded).", ql, qv.v)
	}
	for _, qv := range []struct {
		q string
		v float64
	}{{"0.5", s.CacheHitP50}, {"0.99", s.CacheHitP99}} {
		ql := `quantile="` + qv.q + `"`
		if labels != "" {
			ql = labels + "," + ql
		}
		p.Gauge(prefix+"_cache_hit_latency_seconds", "Recent cache-hit path latency quantiles (fingerprint + lookup).", ql, qv.v)
	}
	for _, qv := range []struct {
		q string
		v float64
	}{{"0.5", s.QueueWaitP50}, {"0.99", s.QueueWaitP99}} {
		ql := `quantile="` + qv.q + `"`
		if labels != "" {
			ql = labels + "," + ql
		}
		p.Gauge(prefix+"_queue_wait_seconds", "Recent enqueue-to-dequeue wait quantiles.", ql, qv.v)
	}
	s.Convergence.writePrometheus(p, prefix, labels)
}
