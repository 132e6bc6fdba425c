package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fl"
)

// driftSystem returns a copy of s with every gain multiplied by
// exp(sigma * z_i), the serving layer's channel-drift model.
func driftSystem(s *fl.System, sigma float64, rng *rand.Rand) *fl.System {
	out := *s
	out.Devices = append([]fl.Device(nil), s.Devices...)
	for i := range out.Devices {
		out.Devices[i].Gain *= math.Exp(sigma * rng.NormFloat64())
	}
	return &out
}

// TestWorkspaceReuseMatches solves different instances through one shared
// workspace and checks each against a fresh-memory solve: reuse must never
// leak state between solves.
func TestWorkspaceReuseMatches(t *testing.T) {
	w := fl.Weights{W1: 0.5, W2: 0.5}
	ws := NewWorkspace()
	for seed := int64(1); seed <= 3; seed++ {
		for _, n := range []int{5, 12, 8} { // shrink and grow the buffers
			s := newTestSystem(n, seed)
			shared, err := Optimize(s, w, Options{Work: ws})
			if err != nil {
				t.Fatalf("n=%d seed=%d shared: %v", n, seed, err)
			}
			fresh, err := Optimize(s, w, Options{Work: NewWorkspace()})
			if err != nil {
				t.Fatalf("n=%d seed=%d fresh: %v", n, seed, err)
			}
			if shared.Objective != fresh.Objective {
				t.Errorf("n=%d seed=%d: shared workspace objective %.17g != fresh %.17g",
					n, seed, shared.Objective, fresh.Objective)
			}
			if d := shared.Allocation.Distance(fresh.Allocation); d != 0 {
				t.Errorf("n=%d seed=%d: allocations differ by %g", n, seed, d)
			}
		}
	}
}

// TestPrevDiffZeroAlloc asserts the outer loop's previous-iterate diff —
// formerly a Clone + Distance per iteration — performs zero allocations.
func TestPrevDiffZeroAlloc(t *testing.T) {
	s := newTestSystem(50, 1)
	ws := NewWorkspace()
	ws.grow(s.N())
	a := s.MaxResourceAllocation()
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		ws.stashPrev(a)
		sink += ws.distPrev(a)
	})
	if allocs != 0 {
		t.Fatalf("prev-iterate stash+diff allocates %.1f times per run, want 0", allocs)
	}
	_ = sink
}

// TestOptimizeWorkspaceAllocs bounds the full weighted solve's allocations
// when the caller reuses a workspace. The seed repository ran ~80
// allocations per solve; the workspace path must stay under half that (the
// residue is the returned Result: allocation, metrics, trace).
func TestOptimizeWorkspaceAllocs(t *testing.T) {
	s := newTestSystem(50, 1)
	w := fl.Weights{W1: 0.5, W2: 0.5}
	ws := NewWorkspace()
	opts := Options{Work: ws}
	if _, err := Optimize(s, w, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Optimize(s, w, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Fatalf("Optimize with reused workspace allocates %.1f times per run, want <= 40", allocs)
	}
}
