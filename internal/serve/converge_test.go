package serve

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
)

// TestConvergenceObservatory drives a solve and four drifted re-solves and
// checks every one lands in the cold outer-iteration histogram.
func TestConvergenceObservatory(t *testing.T) {
	s := testSystem(t, 8, 5)
	srv := New(Config{Workers: 2})
	defer srv.Close()
	rng := rand.New(rand.NewSource(9))

	if _, err := srv.Solve(context.Background(), Request{System: s, Weights: balanced()}); err != nil {
		t.Fatal(err)
	}
	// Drifted requests each miss the cache.
	cur := s
	for i := 0; i < 4; i++ {
		cur = driftGains(cur, 0.05, rng)
		if _, err := srv.Solve(context.Background(), Request{System: cur, Weights: balanced()}); err != nil {
			t.Fatal(err)
		}
	}

	conv := srv.Stats().Convergence
	var total int64
	for path, h := range conv.Outer {
		if h.Count <= 0 || h.Sum <= 0 {
			t.Fatalf("outer histogram for %q degenerate: %+v", path, h)
		}
		if path != "cold" {
			t.Fatalf("unexpected serving path %q in convergence stats", path)
		}
		if len(h.Buckets) != len(IterBucketBounds)+1 {
			t.Fatalf("%s outer buckets %d, want %d (+Inf last)", path, len(h.Buckets), len(IterBucketBounds)+1)
		}
		total += h.Count
	}
	if total != 5 {
		t.Fatalf("outer histograms hold %d solves, want 5: %+v", total, conv.Outer)
	}
}

// TestConvergenceMergeAndPrometheus checks the cluster-rollup Merge keeps
// bucket-wise sums per path, and that the Prometheus emission carries the
// convergence series.
func TestConvergenceMergeAndPrometheus(t *testing.T) {
	a := ConvergenceJSON{
		Outer: map[string]IterHistJSON{"cold": {Buckets: []int64{1, 0, 2}, Sum: 9, Count: 3}},
	}
	b := ConvergenceJSON{
		Outer: map[string]IterHistJSON{
			"cold":  {Buckets: []int64{0, 1, 1}, Sum: 4, Count: 2},
			"other": {Buckets: []int64{1}, Sum: 0, Count: 1},
		},
	}
	a.Merge(b)
	if got := a.Outer["cold"]; got.Count != 5 || got.Sum != 13 || got.Buckets[0] != 1 || got.Buckets[1] != 1 || got.Buckets[2] != 3 {
		t.Fatalf("merged cold histogram %+v", got)
	}
	if a.Outer["other"].Count != 1 {
		t.Fatalf("merge dropped the second path's histogram: %+v", a.Outer)
	}

	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	a.writePrometheus(p, "flserve", "")
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`flserve_outer_iterations_bucket{path="cold",le="0"} 1`,
		`flserve_outer_iterations_count{path="cold"} 5`,
		`flserve_outer_iterations_sum{path="cold"} 13`,
		`flserve_outer_iterations_count{path="other"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	for _, gone := range []string{"newton_iterations", "dual_seed", "bracket", "sanitize"} {
		if strings.Contains(out, gone) {
			t.Fatalf("exposition still carries %q series:\n%s", gone, out)
		}
	}
}
