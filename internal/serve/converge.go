package serve

import (
	"sort"
	"strconv"
	"sync"

	"repro/internal/core"
)

// IterBucketBounds are the upper bounds of the outer-iteration
// histograms; a final implicit +Inf bucket catches the overflow. Counts are
// small integers, so a handful of widening buckets separates "converged on
// the first confirmation" from "solver ground for dozens".
var IterBucketBounds = [...]int{0, 1, 2, 4, 8, 16, 32}

// iterHist is a fixed-bucket histogram over iteration counts.
type iterHist struct {
	buckets [len(IterBucketBounds) + 1]int64
	sum     int64
	count   int64
}

func (h *iterHist) record(n int) {
	b := len(IterBucketBounds) // +Inf
	for i, bound := range IterBucketBounds {
		if n <= bound {
			b = i
			break
		}
	}
	h.buckets[b]++
	h.sum += int64(n)
	h.count++
}

// IterHistJSON is the wire form of an iteration histogram: raw (non-
// cumulative) per-bucket counts in IterBucketBounds order with the +Inf
// bucket last, plus sum and count for mean derivation. The raw form sums
// bucket-wise, which is what the cluster rollup needs.
type IterHistJSON struct {
	Buckets []int64 `json:"buckets"`
	Sum     int64   `json:"sum"`
	Count   int64   `json:"count"`
}

func (h *iterHist) toJSON() IterHistJSON {
	return IterHistJSON{
		Buckets: append([]int64(nil), h.buckets[:]...),
		Sum:     h.sum,
		Count:   h.count,
	}
}

// merge adds another histogram's counts bucket-wise (layouts match by
// construction; a shorter operand is tolerated for forward compatibility).
func (j *IterHistJSON) merge(o IterHistJSON) {
	if len(j.Buckets) < len(o.Buckets) {
		grown := make([]int64, len(o.Buckets))
		copy(grown, j.Buckets)
		j.Buckets = grown
	}
	for i := range o.Buckets {
		j.Buckets[i] += o.Buckets[i]
	}
	j.Sum += o.Sum
	j.Count += o.Count
}

// ConvergenceJSON is the solver convergence observatory's /v1/stats
// section, aggregated over every solve the server ran and keyed by serving
// path.
type ConvergenceJSON struct {
	// Outer holds the Algorithm 2 outer-iteration histograms per serving
	// path; every solve is "cold".
	Outer map[string]IterHistJSON `json:"outer_iterations"`
}

// Merge folds another cell's convergence section into this one — the
// cluster-wide rollup.
func (j *ConvergenceJSON) Merge(o ConvergenceJSON) {
	for path, h := range o.Outer {
		if j.Outer == nil {
			j.Outer = make(map[string]IterHistJSON)
		}
		cur := j.Outer[path]
		cur.merge(h)
		j.Outer[path] = cur
	}
}

// convStats accumulates the observatory under one mutex; recording happens
// once per completed solve (not per request), so contention is negligible
// next to the solve itself.
type convStats struct {
	mu    sync.Mutex
	outer map[string]*iterHist
}

// recordSolve folds one solve's trace into the observatory. path is the
// serving path label.
func (c *convStats) recordSolve(path string, tr core.SolveTrace) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.outer == nil {
		c.outer = make(map[string]*iterHist)
	}
	h := c.outer[path]
	if h == nil {
		h = &iterHist{}
		c.outer[path] = h
	}
	h.record(tr.OuterIters)
}

func (c *convStats) snapshot() ConvergenceJSON {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out ConvergenceJSON
	if len(c.outer) > 0 {
		out.Outer = make(map[string]IterHistJSON, len(c.outer))
		for path, h := range c.outer {
			out.Outer[path] = h.toJSON()
		}
	}
	return out
}

// iterLE renders bucket i's le label for the iteration histograms.
func iterLE(i int) string {
	if i >= len(IterBucketBounds) {
		return "+Inf"
	}
	return strconv.Itoa(IterBucketBounds[i])
}

// writePrometheus emits the convergence series under prefix with the given
// label set (the per-cell cell="N" label in cluster mode).
func (j ConvergenceJSON) writePrometheus(p *PromWriter, prefix, labels string) {
	paths := make([]string, 0, len(j.Outer))
	for path := range j.Outer {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		ls := `path="` + path + `"`
		if labels != "" {
			ls = labels + "," + ls
		}
		h := j.Outer[path]
		bounds := make([]string, len(h.Buckets))
		for i := range h.Buckets {
			bounds[i] = iterLE(i)
		}
		p.Histogram(prefix+"_outer_iterations", "Algorithm 2 outer iterations per solve by serving path.",
			ls, bounds, h.Buckets, float64(h.Sum), h.Count)
	}
}
