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
// single coupling constraint sum B_n <= B. It returns the allocation, a
// lower bound on the optimal per-round energy (the dual function at the
// final price bracket, for the budget B*(1+budgetSlack) the polish may
// fill), and that energy's derivative in the round deadline (the dual
// function's at the under-demand end's price; see deadlineSlope). A
// non-nil tr receives the ModeDeadline counters.
//
// At a bandwidth price lambda, each device independently chooses its upload
// time share t (hence frequency f = clamp(Rl*c*D/(T-t), FMin, FMax) and rate
// floor d/t) and bandwidth B, minimizing
//
//	kappa*Rl*c*D*f(t)^2 + E_tr(d/t, B) + lambda*B,
//
// where E_tr is the reduced transmission energy (power eliminated, see
// reducedDevice). The inner bandwidth choice is the reduced waterfilling
// condition (bandFrom). The outer time split is one convex search.
// With s = t*B the rate-pinned transmission energy t*P(d/t, B) is
// (N0/g)*h(t*B), h(s) = s*(2^(d/s) - 1), convex and decreasing in s, and
// h(t*B) is jointly convex in (t, B): its Hessian has determinant
// -h'*(2*s*h” + h') >= 0, since with x = d*ln2/s, 2*s*h” + h' =
// e^x*(2x^2 - x + 1) - 1, which is 0 at x = 0 and rises with x. The pmin
// floor makes the energy max(that, pmin*d/Rate(pmin, B)), and d/Rate is
// convex in B because Rate is concave; the pmax wall t >= d/Rate(pmax, B)
// is a convex set for the same reason; lambda*B is linear; and the compute
// energy kappa*cycles*max(FMin, cycles/(T-t))^2 is convex in t, FMax never
// binding on [tLo, tHi]. Minimizing a jointly convex function over B
// leaves a convex function of t (Boyd & Vandenberghe, Convex Optimization,
// 3.2.5), so each device's cost at a price, splitCost, is convex in its
// split, and so is the polish's cost at a fixed band, resplitCost. Both
// searches find the root of the cost's closed-form slope
// (numeric.MinimizeConvex); TestResplitConvex checks the convexity and the
// slopes numerically. A dearer band buys a longer upload, so the best
// split is nondecreasing in lambda: once a price bracket is known, each
// device searches only between its splits at the two bracket ends,
// starting at the point of that window that lies where the price lies
// between the ends.
//
// From lambda = 1e-12, where demand exceeds the budget by
// e0 = ln(demand/B) > 0, the first step raises ln(lambda) by 2.1*e0: demand
// falls as lambda^(-1/2) in the rate-pinned branch at large band, so 2*e0
// is exact for that power law and the margin lands past it; less elastic
// demand (band floors) leaves the step short and the x16 walk goes on. A
// safeguarded Illinois secant on ln(demand/B) in ln(lambda)
// (numeric.IllinoisDecreasing) then closes the bracket to 1e-7 in
// ln(lambda). At the under-demand end hi the band floors sum to at most
// demand(hi) <= B, so the hi splits are always feasible. On a flat bottom
// the ends keep different best splits, but those cost the same, so the
// over-demand end's splits would win only by rounding: the hi splits are
// the one candidate. It is polished by alternating an exact bandwidth
// waterfill at fixed splits with per-device re-splits at fixed bands. A
// re-split is one root find on resplitCost's slope (bestResplit), started
// from the device's current split, which the price search's split at the
// hi price nearly always leaves within the tolerance of the answer. A
// re-split is taken only when it is strictly cheaper, so energy never
// rises. A re-split at fixed bands needs no new waterfill to stay
// feasible: it still reaches its rate at pmax on its band. So the polish
// keeps every cheaper re-split, but runs another waterfill only after a
// pass that moved some split by more than twice the 1e-9*T split
// tolerance, and at most three more; each waterfill is exact for the
// splits it is given. The price search's split and the re-split each lie
// within the tolerance of their own minimum, so a move of up to twice it
// does not show that the minimum moved; such moves, which rounding in
// either search decides, would not change the bands beyond rounding
// either. Each waterfill starts its level search
// from a level this solve already holds: the hi price, which the price
// search has pinned to 1e-7 in ln(lambda), then the previous pass's level.
//
// A split evaluation costs one water-level inversion and, where the band
// leaves the water level, one more: about 3,550 inversions per corpus
// solve, of which 920 solve for the pmax floor or the pmin junction band
// (the band where pmax or pmin reaches the rate floor; its device is
// built with the floor unknown, newSplitDevice) and 104 for the
// free-branch band (power at pmin), which does not depend on the split, so
// each device's search computes it at most once per price. The polish asks
// about 640 more: its waterfills' sweeps, about 7.5 per solve, and the
// pmax floors of the devices it re-derives. Two evaluations in a row of one
// device differ by a small step in split or price, and a polish waterfill
// sweeps levels near the hi price and one another, so every inversion
// starts from the device's last answer, kept in ds.starts from the first
// split evaluation to the last waterfill sweep, and takes a Newton or
// Halley step or two there (bandFrom), where the cold path runs a Lambert
// W solve. About 281 per solve run cold: 148 with no start yet, the first
// of each kind per device, and 133 from a start too far off to use, at the
// price search's first jump and the polish's first re-derived floors. On
// the water level the power and the slope reuse the expm1(x) the inversion
// ends with.
//
// Unlike alternating f/(p,B) updates — which ratchet every device's rate
// floor at its incoming upload time — the price decomposition explores the
// full compute/communicate tradeoff and is what makes the proposed scheme
// dominate the block-coordinate Scheme 1 baseline.
func solveDeadlineJoint(s *fl.System, roundDeadline float64, tr *SolveTrace) (fl.Allocation, float64, float64, error) {
	if tr == nil {
		tr = new(SolveTrace)
	}
	n := s.N()
	ds, err := newDeadlineSolve(s, roundDeadline)
	if err != nil {
		return fl.Allocation{}, 0, 0, err
	}
	plans := ds.plans

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
	reached := make([]float64, n)
	excess := func(x float64) float64 {
		tr.PriceEvals++
		lambda := math.Exp(x)
		// Each search starts at the point of the window that lies where x
		// lies between the bracket ends, at the one end known so far, or at
		// tLo before the first.
		w := 0.0
		if hi.ok && lo.ok {
			w = (x - lo.x) / (hi.x - lo.x)
		} else if hi.ok {
			w = 1
		}
		demand, dual := 0.0, -lambda*s.Bandwidth*(1+budgetSlack)
		for i := range plans {
			var b, c float64
			reached[i], b, c = ds.bestSplit(i, lambda, lo.t[i]+w*(hi.t[i]-lo.t[i]), lo.t[i], hi.t[i], tr)
			demand += b
			dual += c
		}
		end := &hi
		if demand > s.Bandwidth {
			end = &lo
		}
		end.x, end.excess, end.dual, end.ok = x, math.Log(demand/s.Bandwidth), dual, true
		copy(end.t, reached)
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
				return fl.Allocation{}, 0, 0, fmt.Errorf("core: no bandwidth price clears the deadline instance: %w", ErrInfeasible)
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
			return fl.Allocation{}, 0, 0, fmt.Errorf("core: deadline price search: %w", err)
		}
	}

	var slope float64
	for i, t := range hi.t {
		slope += ds.deadlineSlope(i, math.Exp(hi.x), t)
	}

	// Polish the under-demand end's splits into an allocation.
	splits, level := hi.t, math.Exp(hi.x)
	reduced := make([]reducedDevice, n)
	bands := make([]float64, n)
	// derive re-derives device i's reduction at its split; the band floors
	// of all devices must then still fit the budget.
	derive := func(i int) (err error) {
		reduced[i], err = newReducedDevice(s.Devices[i], s.N0, s.Devices[i].UploadBits/splits[i], &ds.starts[i])
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
			return fl.Allocation{}, 0, 0, err
		}
	}
	if err := floorsFit(); err != nil {
		return fl.Allocation{}, 0, 0, err
	}
	for pass := 0; ; pass++ {
		var err error
		if level, _, err = waterfillReducedInto(reduced, ds.starts, s.N0, s.Bandwidth, level, bands, tr); err != nil {
			return fl.Allocation{}, 0, 0, err
		}
		// Re-split each device at its fixed bandwidth; only a device that
		// moves needs its reduction re-derived. Only a move by more than
		// twice the split tolerance earns another waterfill.
		moved := false
		for i := range s.Devices {
			t, ok := ds.bestResplit(i, bands[i], splits[i], tr)
			if !ok {
				continue
			}
			tr.ResplitEvals += 2
			if ds.resplitCost(i, bands[i], t) < ds.resplitCost(i, bands[i], splits[i]) {
				moved = moved || math.Abs(t-splits[i]) > 2*ds.tol
				splits[i] = t
				if err := derive(i); err != nil {
					return fl.Allocation{}, 0, 0, err
				}
			}
		}
		if !moved || pass == 3 {
			break
		}
		if err := floorsFit(); err != nil {
			return fl.Allocation{}, 0, 0, err
		}
	}
	for _, st := range ds.starts {
		tr.ColdInversions += st.colds
	}
	alloc := fl.NewAllocation(n)
	for i, d := range s.Devices {
		rd := reduced[i]
		alloc.Bandwidth[i] = math.Max(bands[i], rd.bForced)
		alloc.Power[i] = rd.power(s.N0, alloc.Bandwidth[i])
		alloc.Freq[i] = numeric.Clamp(plans[i].cycles/(roundDeadline-splits[i]), d.FMin, d.FMax)
	}
	bound := hi.dual
	if lo.ok {
		bound = math.Max(bound, lo.dual)
	}
	return alloc, bound, slope, nil
}

// deadlineSolve is what every split evaluation of one fixed-deadline solve
// reads: the system, the round deadline and each device's plan, with the
// split tolerance of both searches and the price search's scratch, and
// each device's last band inversions, which start its next (bandFrom)
// across every price of the solve.
type deadlineSolve struct {
	s             *fl.System
	roundDeadline float64
	plans         []devPlan
	tol           float64     // 1e-9*T
	seen          []splitEval // the current bestSplit's evaluations
	starts        []bandStart // each device's last band inversions
}

// splitEval is one evaluation of splitCost.
type splitEval struct{ t, b, cost float64 }

// devPlan is one device's split range [tLo, tHi] and what its split costs
// share.
type devPlan struct {
	tLo, tHi float64
	cycles   float64 // Rl * c_n * D_n
	limit    float64 // RateLimit(PMax): a split's rate floor must stay below it
	tFloor   float64 // T - cycles/FMin: below it the frequency sits at FMin
}

// newDeadlineSolve plans every device's split range at roundDeadline, or
// reports the instance infeasible.
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
			tFloor: roundDeadline - cycles/d.FMin,
		}
	}
	return deadlineSolve{s: s, roundDeadline: roundDeadline, plans: plans, tol: 1e-9 * roundDeadline, starts: make([]bandStart, len(plans))}, nil
}

// compEnergy is device i's per-round compute energy at upload time t: the
// frequency that finishes its cycles in the rest of the round, clamped to
// its box.
func (ds *deadlineSolve) compEnergy(i int, t float64) float64 {
	pl, d := &ds.plans[i], &ds.s.Devices[i]
	f := numeric.Clamp(pl.cycles/(ds.roundDeadline-t), d.FMin, d.FMax)
	return ds.s.Kappa * pl.cycles * f * f
}

// compSlope is the derivative of compEnergy in t: 2*kappa*cycles*f^2/(T-t)
// from the FMin floor split on, 0 below it, where f stays at FMin. At the
// floor split itself it is the derivative from the right.
func (ds *deadlineSolve) compSlope(i int, t float64) float64 {
	pl := &ds.plans[i]
	if t < pl.tFloor {
		return 0
	}
	rest := ds.roundDeadline - t
	f := pl.cycles / rest
	return 2 * ds.s.Kappa * pl.cycles * f * f / rest
}

// pinnedSlope is the derivative in t of device i's transmission energy
// t*p at fixed band b while its rate is pinned at r = d/t:
// p - r*ln2*(N0/g + p/b), p = PowerForRate(r, b). With x = r*ln2/b it is
// (N0*b/g)*(expm1(x)*(1-x) - x), the form reducedDevice.marginal uses
// against cancellation at small x.
func (ds *deadlineSolve) pinnedSlope(i int, b, t float64) float64 {
	x := ds.s.Devices[i].UploadBits / t * math.Ln2 / b
	return ds.pinnedSlopeAt(i, b, x, math.Expm1(x))
}

// pinnedSlopeAt is pinnedSlope given x and em1 = expm1(x).
func (ds *deadlineSolve) pinnedSlopeAt(i int, b, x, em1 float64) float64 {
	return ds.s.N0 * b / ds.s.Devices[i].Gain * (em1*(1-x) - x)
}

// splitCost returns device i's cost at split t and price lambda, compute
// energy plus reduced transmission energy plus lambda*B, its slope in t
// and its band B. free holds the free-branch band at lambda across the
// device's splits; the band inversions start from the device's last ones
// (bandFrom). A split whose rate pmax cannot reach costs +Inf with slope
// -Inf.
//
// The cost is the least over bands of a cost jointly convex in split and
// band (see solveDeadlineJoint), and its slope follows the band that
// bandFrom picks. At a water-level band the envelope theorem gives the
// fixed-band slope, compSlope plus pinnedSlope. On the free branch the
// band and the transmission energy do not depend on t: compSlope alone.
// On the pmax floor bForced(t), and at the pmin junction band, the power
// p sits at a bound and the rate at exactly r = d/t, so the band moves
// with t along that curve: the transmission energy is p*t and
// dB/dt = -r/(t*dRate/dB), which gives compSlope + p - lambda*r/(t*G_B)
// with G_B = log2(1+theta) - theta/((1+theta)*ln2), theta = p*g/(N0*B).
// At the water level, lambda equals the marginal and this is the fixed-band
// slope again, so the slope is continuous where the floor starts to bind.
func (ds *deadlineSolve) splitCost(i int, lambda, t float64, free *freeBranch) (cost, slope, b float64) {
	d, n0 := ds.s.Devices[i], ds.s.N0
	rd, ok := newSplitDevice(d, d.UploadBits/t, ds.plans[i].limit)
	if !ok {
		return math.Inf(1), math.Inf(-1), 0
	}
	b, p, x, em1 := rd.bandFrom(n0, lambda, free, &ds.starts[i])
	if math.IsInf(b, 1) {
		return b, math.Inf(-1), b
	}
	slope = ds.compSlope(i, t)
	var energy float64
	switch {
	case em1 != 0: // a water-level band
		energy = rd.energyAt(n0, b, p)
		slope += ds.pinnedSlopeAt(i, b, x, em1)
	case p == 0: // the free branch
		energy = rd.pmin * rd.d / free.rate
	default: // the pmax floor or the pmin junction: rate rmin at power p
		energy = p * rd.d / rd.rmin
		theta := p * d.Gain / (n0 * b)
		gb := numeric.Log2p1(theta) - theta/((1+theta)*math.Ln2)
		slope += p - lambda*rd.rmin/(t*gb)
	}
	return ds.compEnergy(i, t) + energy + lambda*b, slope, b
}

// bestSplit returns device i's best split t at price lambda in the window
// between lo and hi, to the split tolerance, searching from the split
// from, with its band and cost. The search returns a split it evaluated,
// whose band and cost it then already has, except in a window within the
// tolerance. tr counts the split evaluations.
func (ds *deadlineSolve) bestSplit(i int, lambda, from, lo, hi float64, tr *SolveTrace) (t, b, cost float64) {
	var free freeBranch // shared by every split at lambda
	ds.seen = ds.seen[:0]
	slope := func(t float64) float64 {
		tr.SplitEvals++
		c, sl, b := ds.splitCost(i, lambda, t, &free)
		ds.seen = append(ds.seen, splitEval{t, b, c})
		return sl
	}
	lo, hi = min(lo, hi), max(lo, hi)
	t, _ = numeric.MinimizeConvex(slope, from, lo, hi, ds.tol)
	var e splitEval
	for _, ev := range ds.seen {
		if ev.t == t {
			e = ev
		}
	}
	if e.t != t {
		slope(t)
		e = ds.seen[len(ds.seen)-1]
	}
	return t, e.b, e.cost
}

// deadlineSlope is device i's share of the derivative in the round
// deadline T of the dual function at price lambda, where t is the
// device's best split. By Danskin's theorem that is the derivative of its
// least cost at the best split: kept at t, its frequency cycles/(T - t)
// falls as T grows, so the compute energy changes at -compSlope; and a
// split at its end tHi = T - cycles/FMax, whose cost still falls there,
// moves with T and adds that slope. At the optimal price the dual function
// equals the least energy E*(T), so the sum over devices is dE*/dT, the
// envelope slope -2*kappa*sum f^3 over devices above FMin where no split
// sits at its end.
func (ds *deadlineSolve) deadlineSlope(i int, lambda, t float64) float64 {
	slope := -ds.compSlope(i, t)
	if t >= ds.plans[i].tHi {
		var free freeBranch
		_, sl, _ := ds.splitCost(i, lambda, t, &free)
		slope += min(0, sl)
	}
	return slope
}

// resplitCost is the polish's cost of split t at device i's fixed band b:
// compute energy plus transmission energy at the least power in the box
// that reaches the split's rate, +Inf when pmax cannot. Only a power
// clamped to pmax is checked against the rate: below it PowerForRate
// reaches the rate by construction, up to the rounding of its 2^(r/B) - 1,
// which at low spectral efficiency exceeds 1e-12 of the rate.
func (ds *deadlineSolve) resplitCost(i int, b, t float64) float64 {
	d, n0 := ds.s.Devices[i], ds.s.N0
	r := d.UploadBits / t
	p := numeric.Clamp(wireless.PowerForRate(r, b, d.Gain, n0), d.PMin, d.PMax)
	g := wireless.Rate(p, b, d.Gain, n0)
	if p == d.PMax && g < r*(1-1e-12) {
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
// tJ = junction(i, b): compSlope plus, up to the junction, pinnedSlope (0
// past it). At the two kinks it is the one-sided derivative from inside
// the smooth stretch.
func (ds *deadlineSolve) resplitSlope(i int, b, tJ, t float64) float64 {
	slope := ds.compSlope(i, t)
	if t <= tJ {
		slope += ds.pinnedSlope(i, b, t)
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
// from, clamped there, is returned as it is. Otherwise the slope's root
// is found from the split from (numeric.MinimizeConvex), so a split that
// needs no move gets none. tr counts the slope evaluations.
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
	t, _ := numeric.MinimizeConvex(func(t float64) float64 {
		tr.ResplitEvals++
		return ds.resplitSlope(i, b, tJ, t)
	}, from, lo, hi, ds.tol)
	return t, true
}
