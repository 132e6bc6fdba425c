package core

import (
	"fmt"
	"math"

	"repro/internal/fl"
	"repro/internal/numeric"
	"repro/internal/wireless"
)

// solveDeadlineJoint solves the fixed-deadline energy minimization (the
// w1 = 1, w2 = 0, fixed-T setting of Figs. 7-8) by dual decomposition on the
// single coupling constraint sum B_n <= B. It returns the allocation and a
// lower bound on the optimal per-round energy: the dual function at the
// final price bracket, for the budget B*(1+budgetSlack) the polish may
// fill. A non-nil tr receives the ModeDeadline counters.
//
// At a bandwidth price lambda, each device independently chooses its upload
// time share t (hence frequency f = clamp(Rl*c*D/(T-t), FMin, FMax) and rate
// floor d/t) and bandwidth B, minimizing
//
//	kappa*Rl*c*D*f(t)^2 + E_tr(d/t, B) + lambda*B,
//
// where E_tr is the reduced transmission energy (power eliminated, see
// reducedDevice). The inner bandwidth choice is the reduced waterfilling
// condition; the outer time split is a grid scan refined by parabolic
// interpolation (numeric.GridBrentMin), the cost being smooth within a
// basin. A dearer band buys a longer upload, so the best split is
// nondecreasing in lambda: once a price bracket is known, each device
// searches only between its splits at the two bracket ends.
//
// From lambda = 1e-12, where demand exceeds the budget by
// e0 = ln(demand/B) > 0, the first step raises ln(lambda) by 2.1*e0: demand
// falls as lambda^(-1/2) in the rate-pinned branch at large band, so 2*e0
// is exact for that power law and the margin lands past it; less elastic
// demand (band floors) leaves the step short and the x16 walk goes on. A
// safeguarded Illinois secant on ln(demand/B) in ln(lambda)
// (numeric.IllinoisDecreasing) then closes the bracket to 1e-7 in
// ln(lambda), possibly on a jump in demand where a device's best split
// switches basins. At the under-demand end hi the band floors sum to at
// most demand(hi) <= B, so the hi splits are always feasible; only where
// some split differs between the ends by more than a few split tolerances
// (a basin jump) are the over-demand end's splits a second candidate, used
// if their floors fit. Each candidate is polished by alternating an exact
// bandwidth waterfill at fixed splits with per-device re-splits at fixed
// bands, and the lower energy wins. At a fixed band b a re-split has one
// basin. Its cost, compEnergy(t) + max(t*P(d/t, b), pmin*d/Rate(pmin, b))
// on t >= d/Rate(pmax, b) and +Inf below, is convex: t*P(d/t, b) =
// (N0*b/g)*t*(2^(d/(t*b)) - 1) is the perspective of a convex function
// (Boyd & Vandenberghe, Convex Optimization, 3.2.6), and a max of convex
// functions is convex; kappa*cycles*max(FMin, cycles/(T-t))^2 is convex
// too, FMax never binding on [tLo, tHi]. So each re-split is one root find
// on the cost's closed-form slope (bestResplit), started from the
// device's current split, which the price search's split at the
// candidate's price nearly always leaves within the tolerance of the
// answer. A re-split is taken only when it is strictly cheaper, so energy
// never rises. A re-split at fixed bands needs no new waterfill to stay
// feasible: it still reaches its rate at pmax on its band. So the polish
// keeps every cheaper re-split, but runs another waterfill only after a
// pass that moved some split by more than the 1e-9*T split tolerance, and
// at most three more; each waterfill is exact for the splits it is given,
// and a move within the tolerance would not change the bands beyond
// rounding. Each waterfill starts its level search from a level this
// solve already holds: the candidate's bracket-end price, which the price
// search has pinned to 1e-7 in ln(lambda), then the previous pass's
// level.
//
// A split evaluation costs one water-level inversion (bandAt) and little
// else. Its device is built with the band floor unknown (newSplitDevice):
// the floor is a Lambert W solve, and bandAt computes it only when the
// water-level band would need power pmax or more, which is rare. The
// free-branch band (power at pmin) and its rate do not depend on the
// split, so each device's search computes them at most once per price; on
// the rate-pinned branch the energy reuses the power bandAt found.
//
// The split scans are pruned by a free lower bound. The Shannon rate never
// exceeds its wideband limit p*g/(N0*ln2), so the transmission energy is at
// least d*N0*ln2/g at any power and band, and lambda*B >= 0: a split's cost
// is at least its compute energy plus that floor (costFloor), which needs
// no transcendental function. The grid scans of bestSplit skip every grid
// point whose floor is already at or above the best cost found, evaluating
// a skipped point only if it ends the best cell (numeric.GridBrentMin's
// lb). Compute energy rises with the split, so at the first, low prices
// nearly every point after the first is skipped. A skipped point cannot
// beat or tie the point the full scan keeps, so every answer is
// bit-identical to the unpruned scan's; on the corpus the split
// evaluations fall from 6,190 to 4,091 per solve.
//
// Unlike alternating f/(p,B) updates — which ratchet every device's rate
// floor at its incoming upload time — the price decomposition explores the
// full compute/communicate tradeoff and is what makes the proposed scheme
// dominate the block-coordinate Scheme 1 baseline.
func solveDeadlineJoint(s *fl.System, roundDeadline float64, tr *SolveTrace) (fl.Allocation, float64, error) {
	if tr == nil {
		tr = new(SolveTrace)
	}
	n := s.N()
	ds, err := newDeadlineSolve(s, roundDeadline)
	if err != nil {
		return fl.Allocation{}, 0, err
	}
	plans := ds.plans

	// bestSplit returns device i's cheapest split t in [lo, hi] at price
	// lambda, with its bandwidth and cost. The grid keeps the spacing of a
	// 24-point scan of the device's full range.
	splitTol := 1e-8 * roundDeadline
	bestSplit := func(i int, lambda, lo, hi float64) (t, b, cost float64) {
		cost = math.Inf(1)
		var free freeBranch // shared by every split at lambda
		eval := func(x float64) float64 {
			tr.SplitEvals++
			c, bx := ds.splitCost(i, lambda, x, &free)
			if c < cost {
				t, b, cost = x, bx, c
			}
			return c
		}
		if hi-lo <= splitTol {
			eval(0.5 * (lo + hi))
		} else {
			grid := 1 + int(math.Ceil(23*(hi-lo)/(plans[i].tHi-plans[i].tLo)))
			_, _ = numeric.GridBrentMin(eval, func(x float64) float64 { return ds.costFloor(i, x) }, lo, hi, grid, splitTol)
		}
		return t, b, cost
	}

	// A bracket end of the price search: log price, log excess demand
	// ln(demand/B), dual function value and every device's split there.
	type priceEnd struct {
		x, excess, dual float64
		t               []float64
		ok              bool
	}
	lo := priceEnd{t: make([]float64, n)}
	hi := priceEnd{t: make([]float64, n)}
	for i, pl := range plans {
		lo.t[i], hi.t[i] = pl.tLo, pl.tHi
	}
	cur := make([]float64, n)
	excess := func(x float64) float64 {
		tr.PriceEvals++
		lambda := math.Exp(x)
		demand, dual := 0.0, -lambda*s.Bandwidth*(1+budgetSlack)
		for i := range plans {
			t, b, c := bestSplit(i, lambda, lo.t[i], hi.t[i])
			cur[i] = t
			demand += b
			dual += c
		}
		end := &hi
		if demand > s.Bandwidth {
			end = &lo
		}
		end.x, end.excess, end.dual, end.ok = x, math.Log(demand/s.Bandwidth), dual, true
		copy(end.t, cur)
		return end.excess
	}

	// Bracket the price, then close the bracket. High prices push every
	// device to its tightest bandwidth; if demand still exceeds the budget
	// the instance is infeasible.
	x := math.Log(1e-12)
	if e0 := excess(x); e0 > 0 {
		x += max(0, 2.1*e0-math.Log(16)) // first step: max(ln 16, 2.1*e0)
		for k := 0; !hi.ok; k++ {
			if k == 200 {
				return fl.Allocation{}, 0, fmt.Errorf("core: no bandwidth price clears the deadline instance: %w", ErrInfeasible)
			}
			x += math.Log(16)
			excess(x)
		}
	} else {
		for !lo.ok && x > math.Log(1e-300) {
			x -= math.Log(256)
			excess(x)
		}
	}
	if lo.ok {
		if _, _, err := numeric.IllinoisDecreasing(excess, lo.x, hi.x, lo.excess, hi.excess, 1e-7); err != nil {
			return fl.Allocation{}, 0, fmt.Errorf("core: deadline price search: %w", err)
		}
	}

	// polish turns splits into an allocation and its per-round energy.
	reduced := make([]reducedDevice, n)
	bands := make([]float64, n)
	polish := func(start []float64, level float64) (fl.Allocation, float64, error) {
		tr.Polishes++
		splits := append([]float64(nil), start...)
		// derive re-derives device i's reduction at its split; the band
		// floors of all devices must then still fit the budget.
		derive := func(i int) (err error) {
			reduced[i], err = newReducedDevice(s.Devices[i], s.N0, s.Devices[i].UploadBits/splits[i])
			return err
		}
		floorsFit := func() error {
			var floors float64
			for _, rd := range reduced {
				floors += rd.bForced
			}
			if floors > s.Bandwidth*(1+budgetSlack) {
				return fmt.Errorf("core: deadline splits need %g > %g Hz: %w", floors, s.Bandwidth, ErrInfeasible)
			}
			return nil
		}
		for i := range s.Devices {
			if err := derive(i); err != nil {
				return fl.Allocation{}, 0, err
			}
		}
		if err := floorsFit(); err != nil {
			return fl.Allocation{}, 0, err
		}
		for pass := 0; ; pass++ {
			var err error
			if level, _, err = waterfillReducedInto(reduced, s.N0, s.Bandwidth, level, bands, tr); err != nil {
				return fl.Allocation{}, 0, err
			}
			// Re-split each device at its fixed bandwidth; only a device
			// that moves needs its reduction re-derived. Only a move by
			// more than the split tolerance earns another waterfill.
			moved := false
			for i := range s.Devices {
				t, ok := ds.bestResplit(i, bands[i], splits[i], tr)
				if !ok {
					continue
				}
				tr.ResplitEvals += 2
				if ds.resplitCost(i, bands[i], t) < ds.resplitCost(i, bands[i], splits[i]) {
					moved = moved || math.Abs(t-splits[i]) > 1e-9*roundDeadline
					splits[i] = t
					if err := derive(i); err != nil {
						return fl.Allocation{}, 0, err
					}
				}
			}
			if !moved || pass == 3 {
				break
			}
			if err := floorsFit(); err != nil {
				return fl.Allocation{}, 0, err
			}
		}
		alloc := fl.NewAllocation(n)
		var energy float64
		for i, d := range s.Devices {
			rd := reduced[i]
			alloc.Bandwidth[i] = math.Max(bands[i], rd.bForced)
			alloc.Power[i] = rd.power(s.N0, alloc.Bandwidth[i])
			alloc.Freq[i] = numeric.Clamp(plans[i].cycles/(roundDeadline-splits[i]), d.FMin, d.FMax)
			energy += ds.compEnergy(i, splits[i]) + rd.energy(s.N0, alloc.Bandwidth[i])
		}
		return alloc, energy, nil
	}

	alloc, energy, err := polish(hi.t, math.Exp(hi.x))
	if err != nil {
		return fl.Allocation{}, 0, err
	}
	bound := hi.dual
	if lo.ok {
		bound = math.Max(bound, lo.dual)
		jump := false // some split differs between the ends: a basin jump
		for i := range lo.t {
			jump = jump || math.Abs(lo.t[i]-hi.t[i]) > 4*splitTol
		}
		if jump {
			if a, e, err := polish(lo.t, math.Exp(lo.x)); err == nil && e < energy {
				alloc = a
			}
		}
	}
	return alloc, bound, nil
}

// deadlineSolve is what every split evaluation of one fixed-deadline solve
// reads: the system, the round deadline and each device's plan.
type deadlineSolve struct {
	s             *fl.System
	roundDeadline float64
	plans         []devPlan
}

// devPlan is one device's split range [tLo, tHi] and what its split costs
// share.
type devPlan struct {
	tLo, tHi float64
	cycles   float64 // Rl * c_n * D_n
	limit    float64 // RateLimit(PMax): a split's rate floor must stay below it
	eFloor   float64 // lower bound on the reduced transmission energy
	tFloor   float64 // T - cycles/FMin: below it the frequency sits at FMin
}

// newDeadlineSolve plans every device's split range at roundDeadline, or
// reports the instance infeasible.
//
// eFloor is d*N0*ln2/g, shaded by 1e-6 relative. The Shannon rate never
// exceeds the wideband limit p*g/(N0*ln2), so p*d/G(p, B) is at least
// d*N0*ln2/g at every power and band; with lambda*B >= 0, compute energy
// plus eFloor bounds every split and re-split cost from below (costFloor).
// The shade covers rounding in the computed energies: Rate loses a few
// ulps, and PowerForRate's 2^(r/B)-1 loses about ulp/(r/B) relative, under
// 1e-6 while r/B stays above 1e-10. The searches' bands keep r/B orders of
// magnitude above that (TestSplitCostBound sweeps prices and gains far
// past the served ones).
func newDeadlineSolve(s *fl.System, roundDeadline float64) (deadlineSolve, error) {
	plans := make([]devPlan, s.N())
	for i, d := range s.Devices {
		cycles := s.LocalIters * d.CyclesPerIteration()
		tHi := roundDeadline - cycles/d.FMax
		if tHi <= 0 {
			return deadlineSolve{}, fmt.Errorf("core: device %d compute floor %g exceeds round deadline %g: %w",
				i, cycles/d.FMax, roundDeadline, ErrInfeasible)
		}
		// Fastest conceivable upload: full power over the whole band.
		rTop := wireless.Rate(d.PMax, s.Bandwidth, d.Gain, s.N0)
		if rTop <= 0 {
			return deadlineSolve{}, fmt.Errorf("core: device %d has zero rate: %w", i, ErrInfeasible)
		}
		tLo := d.UploadBits / rTop * (1 + 1e-9)
		if tLo >= tHi {
			return deadlineSolve{}, fmt.Errorf("core: device %d cannot fit upload %gs before deadline: %w", i, tLo, ErrInfeasible)
		}
		plans[i] = devPlan{
			tLo: tLo, tHi: tHi, cycles: cycles,
			limit:  wireless.RateLimit(d.PMax, d.Gain, s.N0),
			eFloor: (1 - 1e-6) * d.UploadBits * s.N0 * math.Ln2 / d.Gain,
			tFloor: roundDeadline - cycles/d.FMin,
		}
	}
	return deadlineSolve{s: s, roundDeadline: roundDeadline, plans: plans}, nil
}

// compEnergy is device i's per-round compute energy at upload time t: the
// frequency that finishes its cycles in the rest of the round, clamped to
// its box.
func (ds *deadlineSolve) compEnergy(i int, t float64) float64 {
	pl, d := &ds.plans[i], &ds.s.Devices[i]
	f := numeric.Clamp(pl.cycles/(ds.roundDeadline-t), d.FMin, d.FMax)
	return ds.s.Kappa * pl.cycles * f * f
}

// costFloor bounds splitCost and resplitCost at split t from below without
// a transcendental function (see newDeadlineSolve).
func (ds *deadlineSolve) costFloor(i int, t float64) float64 {
	return ds.compEnergy(i, t) + ds.plans[i].eFloor
}

// splitCost returns device i's cost at split t and price lambda, compute
// energy plus reduced transmission energy plus lambda*B, and its band B.
// free holds the free-branch band at lambda across the device's splits.
func (ds *deadlineSolve) splitCost(i int, lambda, t float64, free *freeBranch) (cost, b float64) {
	d, n0 := ds.s.Devices[i], ds.s.N0
	rd, ok := newSplitDevice(d, d.UploadBits/t, ds.plans[i].limit)
	if !ok {
		return math.Inf(1), 0
	}
	b, p := rd.bandAtFree(n0, lambda, free)
	if math.IsInf(b, 1) {
		return b, b
	}
	return ds.compEnergy(i, t) + rd.energyAt(n0, b, p) + lambda*b, b
}

// resplitCost is the polish's cost of split t at device i's fixed band b:
// compute energy plus transmission energy at the least power in the box
// that reaches the split's rate, +Inf when pmax cannot.
func (ds *deadlineSolve) resplitCost(i int, b, t float64) float64 {
	d, n0 := ds.s.Devices[i], ds.s.N0
	r := d.UploadBits / t
	p := numeric.Clamp(wireless.PowerForRate(r, b, d.Gain, n0), d.PMin, d.PMax)
	g := wireless.Rate(p, b, d.Gain, n0)
	if g < r*(1-1e-12) {
		return math.Inf(1) // cannot reach this rate at pmax on band b
	}
	return ds.compEnergy(i, t) + p*d.UploadBits/g
}

// junction is device i's split where the power that reaches its rate on
// band b falls to pmin, d/Rate(pmin, b); past it the power stays at pmin
// and the transmission energy no longer changes. +Inf when pmin is 0.
func (ds *deadlineSolve) junction(i int, b float64) float64 {
	d := &ds.s.Devices[i]
	return d.UploadBits / wireless.Rate(d.PMin, b, d.Gain, ds.s.N0)
}

// resplitSlope is the derivative of resplitCost in t at band b, where
// tJ = junction(i, b): the compute term 2*kappa*cycles*f^2/(T-t) from the
// FMin floor split on (0 below it, where f stays at FMin), plus the
// rate-pinned transmission term p - r*ln2*(N0/g + p/b), r = d/t and
// p = PowerForRate(r, b), up to the junction (0 past it). At the two kinks
// it is the one-sided derivative from inside the smooth stretch. With
// x = r*ln2/b the transmission term is (N0*b/g)*(expm1(x)*(1-x) - x), the
// form reducedDevice.marginal uses against cancellation at small x.
func (ds *deadlineSolve) resplitSlope(i int, b, tJ, t float64) float64 {
	pl, d, n0 := &ds.plans[i], &ds.s.Devices[i], ds.s.N0
	var slope float64
	if t >= pl.tFloor {
		rest := ds.roundDeadline - t
		f := pl.cycles / rest
		slope = 2 * ds.s.Kappa * pl.cycles * f * f / rest
	}
	if t <= tJ {
		x := d.UploadBits / t * math.Ln2 / b
		slope += n0 * b / d.Gain * (math.Expm1(x)*(1-x) - x)
	}
	return slope
}

// bestResplit returns the split in device i's range that minimizes
// resplitCost at band b, to 1e-9*T, or false when no split in the range
// reaches its rate at pmax on b. The cost is convex where it is finite
// (see solveDeadlineJoint), so its minimum is where the slope changes
// sign. The range is clipped to where the cost is finite, at the pmax
// wall d/Rate(pmax, b) shaded by 1e-9 as tLo is, then to the smooth
// stretch between the FMin floor split (below it the cost never rises)
// and the junction (past it the cost never falls). Where the floor split
// lies past the junction the cost is flat between the two, and the split
// from, clamped there, is returned as it is. From the split from, clamped
// into the stretch, steps growing x16 from the tolerance walk toward the
// root until the slope changes sign, or return the end they reach, whose
// slope then already shows the minimum; the Illinois secant on the
// negated slope (numeric.IllinoisDecreasing) closes the bracket they
// leave. A start within the tolerance of the root is returned as it is,
// so a split that needs no move gets none. tr counts the slope
// evaluations.
func (ds *deadlineSolve) bestResplit(i int, b, from float64, tr *SolveTrace) (float64, bool) {
	pl, d := &ds.plans[i], &ds.s.Devices[i]
	wall := max(pl.tLo, d.UploadBits/wireless.Rate(d.PMax, b, d.Gain, ds.s.N0)*(1+1e-9))
	if !(wall < pl.tHi) {
		return 0, false
	}
	tJ := ds.junction(i, b)
	hi := numeric.Clamp(tJ, wall, pl.tHi)
	lo := max(wall, pl.tFloor)
	if lo >= hi {
		return numeric.Clamp(from, hi, min(lo, pl.tHi)), true // flat from the junction to the floor split
	}
	slope := func(t float64) float64 {
		tr.ResplitEvals++
		return ds.resplitSlope(i, b, tJ, t)
	}
	tol := 1e-9 * ds.roundDeadline
	x := numeric.Clamp(from, lo, hi)
	a, c := x, x // slope(a) < 0 <= slope(c) once the walk has bracketed the root
	sa := slope(x)
	sc := sa
	for step := tol; !(sa < 0 && sc >= 0); step *= 16 {
		if sa >= 0 { // the root lies at or left of a
			if a == lo {
				return lo, true
			}
			c, sc = a, sa
			a = max(a-step, lo)
			sa = slope(a)
		} else { // the root lies right of c
			if c == hi {
				return hi, true
			}
			a, sa = c, sc
			c = min(c+step, hi)
			sc = slope(c)
		}
	}
	a, c, err := numeric.IllinoisDecreasing(func(t float64) float64 { return -slope(t) }, a, c, -sa, -sc, tol)
	if a <= x && x <= c {
		return x, err == nil // the start is already within the tolerance
	}
	return 0.5 * (a + c), err == nil
}
