package core

import (
	"errors"
	"testing"

	"repro/internal/fl"
)

func TestOptimizeWeightedBasic(t *testing.T) {
	for _, w := range []fl.Weights{
		{W1: 0.9, W2: 0.1}, {W1: 0.7, W2: 0.3}, {W1: 0.5, W2: 0.5},
		{W1: 0.3, W2: 0.7}, {W1: 0.1, W2: 0.9},
	} {
		s := newTestSystem(8, 11)
		res, err := Optimize(s, w, Options{})
		if err != nil {
			t.Fatalf("w=%v: %v", w, err)
		}
		if err := s.ValidateDeadline(res.Allocation, res.RoundDeadline, 1e-6); err != nil {
			t.Errorf("w=%v: final allocation infeasible: %v", w, err)
		}
		// The optimizer must beat its own starting point.
		start := s.Objective(w, s.MaxResourceAllocation())
		if res.Objective > start*(1+1e-9) {
			t.Errorf("w=%v: objective %g worse than start %g", w, res.Objective, start)
		}
		if len(res.Iterations) == 0 {
			t.Errorf("w=%v: no iteration trace", w)
		}
	}
}

// The weighted objective must be non-increasing across outer iterations
// (Section VI convergence argument).
func TestOptimizeMonotoneDescent(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		s := newTestSystem(7, seed)
		res, err := Optimize(s, fl.Weights{W1: 0.5, W2: 0.5}, Options{MaxOuter: 15})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prev := res.Iterations[0].Objective
		for k := 1; k < len(res.Iterations); k++ {
			cur := res.Iterations[k].Objective
			if cur > prev*(1+1e-7) {
				t.Errorf("seed %d: objective rose at iteration %d: %g -> %g", seed, k, prev, cur)
			}
			prev = cur
		}
	}
}

func TestOptimizeConverges(t *testing.T) {
	s := newTestSystem(6, 21)
	res, err := Optimize(s, fl.Weights{W1: 0.5, W2: 0.5}, Options{MaxOuter: 40})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		last := res.Iterations[len(res.Iterations)-1]
		t.Errorf("did not converge in 40 iterations (last distance %g)", last.Distance)
	}
}

// Higher w1 (energy emphasis) must not increase energy, and higher w2 must
// not increase delay — the Pareto sweep of Fig. 2.
func TestOptimizeWeightMonotonicity(t *testing.T) {
	s := newTestSystem(10, 5)
	weights := []fl.Weights{
		{W1: 0.9, W2: 0.1}, {W1: 0.7, W2: 0.3}, {W1: 0.5, W2: 0.5},
		{W1: 0.3, W2: 0.7}, {W1: 0.1, W2: 0.9},
	}
	var energies, times []float64
	for _, w := range weights {
		res, err := Optimize(s, w, Options{})
		if err != nil {
			t.Fatal(err)
		}
		energies = append(energies, res.Metrics.TotalEnergy)
		times = append(times, res.Metrics.TotalTime)
	}
	for k := 1; k < len(weights); k++ {
		// Decreasing w1: energy should weakly rise, time weakly fall.
		if energies[k] < energies[k-1]*(1-1e-6) {
			t.Errorf("energy not monotone in w1: %v", energies)
		}
		if times[k] > times[k-1]*(1+1e-6) {
			t.Errorf("time not monotone in w2: %v", times)
		}
	}
}

func TestOptimizePureDelayCorner(t *testing.T) {
	s := newTestSystem(5, 6)
	res, err := Optimize(s, fl.Weights{W1: 0, W2: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := SolveMinTime(s)
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(res.RoundDeadline, mt.RoundDeadline) > 1e-9 {
		t.Errorf("w1=0 deadline %g != min-time %g", res.RoundDeadline, mt.RoundDeadline)
	}
}

func TestOptimizePureEnergyCorner(t *testing.T) {
	s := newTestSystem(5, 7)
	res, err := Optimize(s, fl.Weights{W1: 1, W2: 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// All CPUs at the floor (computation energy is then minimal).
	for i, d := range s.Devices {
		if res.Allocation.Freq[i] != d.FMin {
			t.Errorf("f[%d] = %g, want FMin under pure energy", i, res.Allocation.Freq[i])
		}
	}
	// Energy no worse than any of the weighted runs.
	half, err := Optimize(s, fl.Weights{W1: 0.5, W2: 0.5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TotalEnergy > half.Metrics.TotalEnergy*(1+1e-6) {
		t.Errorf("pure-energy run (%g J) worse than w=0.5 run (%g J)",
			res.Metrics.TotalEnergy, half.Metrics.TotalEnergy)
	}
}

func TestOptimizeDeadlineMode(t *testing.T) {
	s := newTestSystem(8, 13)
	mt, err := SolveMinTime(s)
	if err != nil {
		t.Fatal(err)
	}
	// A deadline 3x the physical minimum: comfortably feasible.
	total := 3 * mt.RoundDeadline * s.GlobalRounds
	res, err := Optimize(s, fl.Weights{W1: 1, W2: 0}, Options{Mode: ModeDeadline, TotalDeadline: total})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ValidateDeadline(res.Allocation, total/s.GlobalRounds, 1e-6); err != nil {
		t.Errorf("deadline violated: %v", err)
	}
	// Looser deadline => no more energy.
	res2, err := Optimize(s, fl.Weights{W1: 1, W2: 0}, Options{Mode: ModeDeadline, TotalDeadline: 2 * total})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metrics.TotalEnergy > res.Metrics.TotalEnergy*(1+1e-6) {
		t.Errorf("energy rose when the deadline relaxed: %g -> %g",
			res.Metrics.TotalEnergy, res2.Metrics.TotalEnergy)
	}
}

func TestOptimizeDeadlineInfeasible(t *testing.T) {
	s := newTestSystem(5, 14)
	mt, err := SolveMinTime(s)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.5 * mt.RoundDeadline * s.GlobalRounds
	if _, err := Optimize(s, fl.Weights{W1: 1, W2: 0}, Options{Mode: ModeDeadline, TotalDeadline: total}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestOptimizeOptionValidation(t *testing.T) {
	s := newTestSystem(3, 15)
	w := fl.Weights{W1: 0.5, W2: 0.5}
	if _, err := Optimize(s, fl.Weights{W1: 0.9, W2: 0.3}, Options{}); err == nil {
		t.Error("bad weights accepted")
	}
	if _, err := Optimize(s, w, Options{Mode: ModeDeadline}); !errors.Is(err, ErrBadInput) {
		t.Errorf("missing deadline: want ErrBadInput, got %v", err)
	}
}

func TestOptimizeWithPaperPathways(t *testing.T) {
	s := newTestSystem(6, 16)
	w := fl.Weights{W1: 0.5, W2: 0.5}
	std, err := Optimize(s, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	paper, err := OptimizePaper(s, w, Paper{SP1Dual: true, SP2Dual: true})
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(std.Objective, paper.Objective) > 1e-2 {
		t.Errorf("pathway disagreement: %g vs %g", std.Objective, paper.Objective)
	}
}

// TestOptimizeCustomStart starts Algorithm 2's alternation away from the
// default point and checks that it settles near the default answer.
func TestOptimizeCustomStart(t *testing.T) {
	s := newTestSystem(5, 17)
	w := fl.Weights{W1: 0.5, W2: 0.5}
	start := s.EqualSplitAllocation(0.5/float64(s.N()), s.Devices[0].PMax, s.Devices[0].FMax)
	res, err := alternate(s, w, Options{}.withDefaults(), nil, start)
	if err != nil {
		t.Fatal(err)
	}
	def, err := Optimize(s, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(res.Objective, def.Objective) > 5e-2 {
		t.Errorf("start sensitivity too high: %g vs %g", res.Objective, def.Objective)
	}
}
