package core

import (
	"fmt"
	"math"

	"repro/internal/fl"
	"repro/internal/wireless"
)

// MinTimeResult is the solution of the pure delay-minimization problem.
type MinTimeResult struct {
	// Allocation runs every CPU and amplifier at its ceiling and
	// waterfills bandwidth to equalize round times.
	Allocation fl.Allocation
	// RoundDeadline is the minimal achievable per-round time.
	RoundDeadline float64
}

// SolveMinTime computes the minimum achievable per-round completion time
//
//	min_B max_n ( T_cmp_n(FMax) + d_n / G_n(PMax, B_n) )  s.t. sum B_n <= B,
//
// by bisecting the deadline: a candidate T is feasible iff the total
// bandwidth needed to give every device rate d_n/(T - T_cmp_n) at full power
// fits in B (bandNeeded). It serves the w1 = 0 corner of the weighted
// problem, the lower end of SolveWeightedJoint's deadline search, and
// baseline setup. ModeDeadline does not call it: its feasibility screen is
// one bandNeeded pass at the requested deadline.
func SolveMinTime(s *fl.System) (MinTimeResult, error) {
	if err := s.Check(); err != nil {
		return MinTimeResult{}, err
	}
	n := s.N()
	maxCmp := 0.0
	for _, d := range s.Devices {
		maxCmp = max(maxCmp, s.LocalIters*d.CyclesPerIteration()/d.FMax)
	}

	// Bracket: grow t from just above the computation bound until feasible.
	lo := maxCmp
	hi := maxCmp + 1e-6
	for iter := 0; bandNeeded(s, hi, nil) > s.Bandwidth; iter++ {
		hi = maxCmp + (hi-maxCmp)*4
		if iter > 400 {
			return MinTimeResult{}, fmt.Errorf("core: SolveMinTime cannot find a feasible deadline: %w", ErrInfeasible)
		}
	}
	for iter := 0; iter < 200 && hi-lo > 1e-12*hi; iter++ {
		mid := lo + 0.5*(hi-lo)
		if bandNeeded(s, mid, nil) <= s.Bandwidth {
			hi = mid
		} else {
			lo = mid
		}
	}

	alloc := fl.NewAllocation(n)
	bands := make([]float64, n)
	sum := bandNeeded(s, hi, bands)
	if math.IsInf(sum, 1) {
		return MinTimeResult{}, fmt.Errorf("core: SolveMinTime final evaluation infeasible: %w", ErrInfeasible)
	}
	// Hand unused band out proportionally: it can only reduce upload times.
	if slack := s.Bandwidth - sum; slack > 0 && sum > 0 {
		scale := s.Bandwidth / sum
		for i := range bands {
			bands[i] *= scale
		}
	}
	for i, d := range s.Devices {
		alloc.Power[i] = d.PMax
		alloc.Freq[i] = d.FMax
		alloc.Bandwidth[i] = bands[i]
	}
	m := s.Evaluate(alloc)
	return MinTimeResult{Allocation: alloc, RoundDeadline: m.RoundTime}, nil
}

// bandNeeded returns the total bandwidth that lets every device finish a
// round in time t at full frequency and full power, or +Inf when some
// device cannot: its computation alone takes t, or its required rate is
// out of reach at PMax. A non-nil out receives the per-device bands.
func bandNeeded(s *fl.System, t float64, out []float64) float64 {
	var sum float64
	for i, d := range s.Devices {
		residual := t - s.LocalIters*d.CyclesPerIteration()/d.FMax
		if residual <= 0 {
			return math.Inf(1)
		}
		b, err := wireless.BandwidthForRate(d.UploadBits/residual, d.PMax, d.Gain, s.N0)
		if err != nil {
			return math.Inf(1)
		}
		if out != nil {
			out[i] = b
		}
		sum += b
	}
	return sum
}
