package core

import (
	"errors"
	"testing"

	"repro/internal/fl"
)

func TestSolveSubproblem2ReducesEnergy(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		s := newTestSystem(6, seed)
		a := s.MaxResourceAllocation()
		w1Rg := 0.5 * s.GlobalRounds
		rmin := make([]float64, s.N())
		for i := range s.Devices {
			rmin[i] = s.Rate(i, a.Power[i], a.Bandwidth[i]) * 0.5
		}
		startEnergy := CommEnergyWeighted(s, w1Rg, a.Power, a.Bandwidth)
		for _, method := range []SP2Method{SP2DirectOnly, SP2NewtonOnly} {
			res, err := SolveSubproblem2(s, w1Rg, rmin, a.Power, a.Bandwidth, Options{SP2Solver: method})
			if err != nil {
				t.Fatalf("seed %d method %d: %v", seed, method, err)
			}
			checkSP2Feasible(t, s, rmin, res.Power, res.Bandwidth)
			if res.CommEnergy > startEnergy*(1+1e-9) {
				t.Errorf("seed %d method %d: energy rose from %g to %g", seed, method, startEnergy, res.CommEnergy)
			}
			if res.CommEnergy <= 0 {
				t.Errorf("seed %d method %d: non-positive energy %g", seed, method, res.CommEnergy)
			}
		}
	}
}

// At Algorithm 1's fixed point, (22)-(23) hold: nu_n = w1Rg/G_n and
// beta_n = p_n d_n/G_n, i.e. phi ~ 0.
func TestSolveSubproblem2FixedPoint(t *testing.T) {
	s := newTestSystem(5, 3)
	a := s.MaxResourceAllocation()
	w1Rg := 0.7 * s.GlobalRounds
	rmin := make([]float64, s.N())
	for i := range s.Devices {
		rmin[i] = s.Rate(i, a.Power[i], a.Bandwidth[i]) * 0.4
	}
	res, err := SolveSubproblem2(s, w1Rg, rmin, a.Power, a.Bandwidth, Options{SP2Solver: SP2NewtonOnly, MaxNewton: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Residual must have collapsed by many orders of magnitude relative to
	// the objective scale.
	if res.PhiResidual > 1e-5*(1+res.CommEnergy) {
		t.Errorf("phi residual %g too large (energy %g, iters %d)",
			res.PhiResidual, res.CommEnergy, res.Iterations)
	}
}

// Subproblem 2 answers do not depend on the feasible start they are handed
// (the default direct solver reaches the global optimum of the fractional
// program), and Algorithm 1 from either start never beats that optimum: its
// damped Newton iteration can stall short of it, which is why it is not the
// serving solver.
func TestSolveSubproblem2StartInvariance(t *testing.T) {
	s := newTestSystem(5, 8)
	w1Rg := 0.5 * s.GlobalRounds
	a1 := s.MaxResourceAllocation()
	rmin := make([]float64, s.N())
	for i := range s.Devices {
		rmin[i] = s.Rate(i, a1.Power[i], a1.Bandwidth[i]) * 0.3
	}
	// Second start: equal split with smaller bandwidth, power at 60% of max.
	a2 := s.EqualSplitAllocation(0.5/float64(s.N()), 0, 0)
	for i, d := range s.Devices {
		a2.Power[i] = d.PMin + 0.6*(d.PMax-d.PMin)
	}
	// Its rates must still clear rmin for a fair comparison; verify.
	for i := range s.Devices {
		if s.Rate(i, a2.Power[i], a2.Bandwidth[i]) < rmin[i] {
			t.Skip("alternate start infeasible for this draw")
		}
	}
	var direct [2]float64
	for k, a := range []fl.Allocation{a1, a2} {
		r, err := SolveSubproblem2(s, w1Rg, rmin, a.Power, a.Bandwidth, Options{})
		if err != nil {
			t.Fatal(err)
		}
		direct[k] = r.CommEnergy
		newton, err := SolveSubproblem2(s, w1Rg, rmin, a.Power, a.Bandwidth, Options{SP2Solver: SP2NewtonOnly, MaxNewton: 100})
		if err != nil {
			t.Fatal(err)
		}
		if newton.CommEnergy < r.CommEnergy*(1-1e-9) {
			t.Errorf("start %d: Algorithm 1 energy %g below the direct optimum %g", k, newton.CommEnergy, r.CommEnergy)
		}
	}
	if relDiff(direct[0], direct[1]) > 1e-4 {
		t.Errorf("start dependence: %g vs %g", direct[0], direct[1])
	}
}

func TestSolveSubproblem2BadInput(t *testing.T) {
	s := newTestSystem(3, 1)
	a := s.MaxResourceAllocation()
	rmin := []float64{1, 1, 1}
	if _, err := SolveSubproblem2(s, 0, rmin, a.Power, a.Bandwidth, Options{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("w1Rg=0: want ErrBadInput, got %v", err)
	}
	if _, err := SolveSubproblem2(s, 1, rmin[:2], a.Power, a.Bandwidth, Options{}); !errors.Is(err, ErrBadInput) {
		t.Errorf("short rmin: want ErrBadInput, got %v", err)
	}
}

func TestSolveSubproblem2PaperDualPath(t *testing.T) {
	s := newTestSystem(5, 4)
	a := s.MaxResourceAllocation()
	w1Rg := 0.5 * s.GlobalRounds
	rmin := make([]float64, s.N())
	for i := range s.Devices {
		rmin[i] = s.Rate(i, a.Power[i], a.Bandwidth[i]) * 0.5
	}
	wf, err := SolveSubproblem2(s, w1Rg, rmin, a.Power, a.Bandwidth, Options{SP2Solver: SP2NewtonOnly})
	if err != nil {
		t.Fatal(err)
	}
	pd, err := SolveSubproblem2(s, w1Rg, rmin, a.Power, a.Bandwidth, Options{SP2Solver: SP2NewtonOnly, UsePaperSP2Dual: true})
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(wf.CommEnergy, pd.CommEnergy) > 1e-3 {
		t.Errorf("inner-solver disagreement: %g vs %g", wf.CommEnergy, pd.CommEnergy)
	}
}
