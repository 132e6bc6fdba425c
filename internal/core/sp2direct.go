package core

import (
	"fmt"
	"math"

	"repro/internal/fl"
	"repro/internal/numeric"
	"repro/internal/wireless"
)

// SolveSubproblem2Direct solves Subproblem 2 (eq. (11)) to global optimality
// by a reduction the sum-of-ratios machinery does not need but that the
// problem's monotonicity admits:
//
// The per-device transmission energy p*d/G(p,B) is strictly increasing in p
// at fixed B (G > p*dG/dp everywhere), so the optimal power is the smallest
// feasible one: p_n(B) = max(PMin, PowerForRate(rmin_n, B)). Substituting
// p_n(B) leaves a separable convex program in the bandwidths alone,
//
//	min sum_n E_n(B_n)   s.t.  B_n >= bForced_n,  sum_n B_n <= B,
//
// where E_n is convex and decreasing (rate-pinned branch: the classical
// power-for-rate function is convex in B; free branch: pmin*d/G(pmin, B) is
// convex since 1/G is; the branches meet with increasing slopes). A
// waterfilling bisection on the common marginal value -E_n'(B_n) solves it
// exactly.
//
// It is Optimize's Subproblem 2 solver. The paper's Algorithm 1
// (SolveSubproblem2Paper, run by OptimizePaper) reaches the same optimum
// when it converges, but its damped Newton iteration can stall on
// instances where the inner SP2_v2 solution is bang-bang in the
// multipliers.
func SolveSubproblem2Direct(s *fl.System, w1Rg float64, rmin []float64) (SP2Result, error) {
	n := s.N()
	outP := make([]float64, n)
	outB := make([]float64, n)
	ws := wsPool.Get().(*Workspace)
	defer wsPool.Put(ws)
	ws.grow(n)
	return solveSubproblem2DirectInto(s, w1Rg, rmin, ws, outP, outB)
}

// solveSubproblem2DirectInto is SolveSubproblem2Direct writing powers and
// bandwidths into caller-provided slices, with the reduced-device table
// drawn from ws, which must be sized by grow. Its waterfill starts from
// the band inversions and the clearing level ws holds from the solve's
// last one and leaves its own there.
func solveSubproblem2DirectInto(s *fl.System, w1Rg float64, rmin []float64, ws *Workspace, outP, outB []float64) (SP2Result, error) {
	n := s.N()
	if len(rmin) != n {
		return SP2Result{}, fmt.Errorf("core: SolveSubproblem2Direct rmin length: %w", ErrBadInput)
	}
	if !(w1Rg > 0) {
		return SP2Result{}, fmt.Errorf("core: SolveSubproblem2Direct needs w1*Rg > 0: %w", ErrBadInput)
	}

	devs := ws.rdevs
	var sumForced float64
	for i, d := range s.Devices {
		rd, err := newReducedDevice(d, s.N0, rmin[i], &ws.starts[i])
		if err != nil {
			return SP2Result{}, fmt.Errorf("core: device %d: %w", i, err)
		}
		devs[i] = rd
		sumForced += rd.bForced
	}
	if sumForced > s.Bandwidth*(1+budgetSlack) {
		return SP2Result{}, fmt.Errorf("core: minimum bandwidths %g exceed B=%g: %w", sumForced, s.Bandwidth, ErrInfeasible)
	}

	level, bands, err := waterfillReducedInto(devs, ws.starts, s.N0, s.Bandwidth, ws.level, outB, nil)
	if err != nil {
		return SP2Result{}, err
	}
	ws.level = level

	res := SP2Result{
		Power:     outP,
		Bandwidth: bands,
	}
	for i, rd := range devs {
		p := rd.power(s.N0, bands[i])
		res.Power[i] = p
		g := wireless.Rate(p, bands[i], rd.g, s.N0)
		res.CommEnergy += w1Rg * p * rd.d / g
	}
	return res, nil
}

// waterfillReducedInto equalizes the marginal energy saving across reduced
// devices within the bandwidth budget and returns the clearing water level
// and the bandwidths (rescaled onto the exact budget, floors re-applied),
// written into bands when non-nil (workspace reuse). Every band inversion
// of every sweep starts from the device's last answer in starts (bandFrom),
// which the waterfill carries from sweep to sweep and leaves at its final
// band sweep's answers, the starts of the caller's next waterfill over the
// same devices.
//
// With hint = 0 the level search walks down x1/16 from the largest floor
// marginal until demand exceeds the budget. A caller that already knows a
// level near the answer, its last waterfill's, passes it as hint: the walk
// then starts there, capped at the largest floor marginal, and brackets
// outward in log steps growing x16 from 1e-6, so a hint within 1e-7 in
// ln(level) costs one extra sweep. Either way Brent's method closes the
// bracket from the end values the walk computed. A non-nil tr counts every
// demand sweep, the final band sweep included, in LevelEvals.
func waterfillReducedInto(devs []reducedDevice, starts []bandStart, n0, budget, hint float64, bands []float64, tr *SolveTrace) (float64, []float64, error) {
	band := func(i int, lambda float64) float64 {
		var free freeBranch
		b, _, _, _ := devs[i].bandFrom(n0, lambda, &free, &starts[i])
		return b
	}
	sweeps := 1 // the final band sweep
	demand := func(lambda float64) float64 {
		sweeps++
		var sum float64
		for i := range devs {
			sum += band(i, lambda)
		}
		return sum
	}
	var lamHi float64
	for _, rd := range devs {
		if m := rd.marginal(n0, rd.bForced); m > lamHi {
			lamHi = m
		}
	}
	if lamHi <= 0 {
		lamHi = 1
	}
	lambda := lamHi
	target := budget * (1 + budgetSlack)
	excess := func(l float64) float64 { return demand(l) - target }
	// Bracket [lamLo, hi] with excess dLo > 0 at lamLo and dHi <= 0 at hi.
	lamLo := lamHi
	if hint > 0 {
		lamLo = min(hint, lamHi)
	}
	hi, dLo := lamLo, excess(lamLo)
	dHi := dLo
	if hint > 0 {
		for step := 1e-6; dLo <= 0 && lamLo > 1e-300 || dHi > 0 && hi < lamHi; step *= 16 {
			if dLo <= 0 {
				hi, dHi = lamLo, dLo
				lamLo = max(lamLo*math.Exp(-step), 1e-300)
				dLo = excess(lamLo)
			} else {
				lamLo, dLo = hi, dHi
				hi = min(hi*math.Exp(step), lamHi)
				dHi = excess(hi)
			}
		}
	} else {
		for dLo <= 0 && lamLo > 1e-300 {
			lamLo /= 16
			dLo = excess(lamLo)
		}
	}
	if dLo > 0 {
		// Demand is continuous and strictly decreasing in the level, so
		// Brent's method finds it to full precision in a few sweeps.
		var err error
		lambda, err = numeric.BrentBracketed(excess, lamLo, hi, dLo, dHi, 0)
		if err != nil {
			return 0, nil, fmt.Errorf("core: reduced waterfilling: %w", err)
		}
	}
	// Otherwise the floors fill the whole budget at any price: keep lamHi.

	if bands == nil {
		bands = make([]float64, len(devs))
	}
	var sumB float64
	for i := range devs {
		bands[i] = band(i, lambda)
		sumB += bands[i]
	}
	if tr != nil {
		tr.LevelEvals += sweeps
	}
	if sumB > 0 {
		scale := budget / sumB
		for i := range bands {
			bands[i] *= scale
		}
	}
	for i, rd := range devs {
		if bands[i] < rd.bForced {
			bands[i] = rd.bForced
		}
	}
	return lambda, bands, nil
}
