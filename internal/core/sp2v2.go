package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fl"
	"repro/internal/numeric"
	"repro/internal/wireless"
)

// SP2v2Result is the solution of the inner convex program SP2_v2 (eq. (21)).
type SP2v2Result struct {
	// Power and Bandwidth are the optimal p_n and B_n.
	Power, Bandwidth []float64
	// Mu is the bandwidth price (the multiplier of sum B_n <= B).
	Mu float64
	// Objective is sum_n nu_n*(p_n*d_n - beta_n*G_n(p_n, B_n)).
	Objective float64
}

// sp2Device carries the per-device constants of one SP2_v2 solve.
type sp2Device struct {
	nu, beta   float64 // multipliers fixed by Algorithm 1's outer loop
	d, g       float64 // upload bits, channel gain
	rmin       float64 // minimum rate from the deadline constraint
	pmin, pmax float64
	j          float64 // nu*d*N0/g (paper's j_n)
	a0         float64 // nu*beta
	snr0       float64 // Lambda0 - 1: the unconstrained optimal SNR
	mu0        float64 // reservation price where the p box transitions
	bFromPmin  float64 // bandwidth putting p exactly at pmin at snr0
	bFromPmax  float64 // bandwidth putting p exactly at pmax at snr0
	bForced    float64 // min bandwidth meeting rmin at pmax (feasibility floor)
}

// sp2Alloc is one device's allocation at a given price.
type sp2Alloc struct {
	b, p     float64
	marginal bool // device sits on its flat interior segment at this price
}

// buildSP2Devices validates inputs and precomputes per-device constants.
func buildSP2Devices(s *fl.System, nu, beta, rmin []float64) ([]sp2Device, error) {
	return buildSP2DevicesInto(nil, s, nu, beta, rmin)
}

// buildSP2DevicesInto is buildSP2Devices writing into devs when it has the
// capacity (workspace reuse).
func buildSP2DevicesInto(devs []sp2Device, s *fl.System, nu, beta, rmin []float64) ([]sp2Device, error) {
	n := s.N()
	if len(nu) != n || len(beta) != n || len(rmin) != n {
		return nil, fmt.Errorf("core: SP2v2 slice lengths: %w", ErrBadInput)
	}
	if cap(devs) < n {
		devs = make([]sp2Device, n)
	} else {
		devs = devs[:n]
	}
	var sumForced float64
	for i, d := range s.Devices {
		if !(nu[i] > 0) || !(beta[i] > 0) {
			return nil, fmt.Errorf("core: SP2v2 device %d nu=%g beta=%g must be positive: %w", i, nu[i], beta[i], ErrBadInput)
		}
		if !(rmin[i] > 0) {
			return nil, fmt.Errorf("core: SP2v2 device %d rmin=%g must be positive: %w", i, rmin[i], ErrBadInput)
		}
		sd := sp2Device{
			nu: nu[i], beta: beta[i],
			d: d.UploadBits, g: d.Gain,
			rmin: rmin[i], pmin: d.PMin, pmax: d.PMax,
		}
		sd.j = sd.nu * sd.d * s.N0 / sd.g
		sd.a0 = sd.nu * sd.beta
		lambda0 := sd.a0 / (sd.j * math.Ln2) // beta*g/(N0*d*ln2)
		bf, err := wireless.BandwidthForRate(sd.rmin, sd.pmax, sd.g, s.N0)
		if err != nil {
			return nil, fmt.Errorf("core: SP2v2 device %d cannot meet rate %g even at pmax: %w (%v)", i, sd.rmin, ErrInfeasible, err)
		}
		sd.bForced = bf
		sumForced += bf
		if lambda0 <= 1+1e-12 {
			// Degenerate multipliers (possible in early Algorithm 1 iterates):
			// the unconstrained SNR target collapses; mark by snr0 = 0 and
			// treat the device as always rate-bound.
			sd.snr0 = 0
		} else {
			sd.snr0 = lambda0 - 1
			sd.mu0 = sd.a0*math.Log2(lambda0) + sd.j - sd.a0/math.Ln2
			sd.bFromPmin = sd.pmin * sd.g / (s.N0 * sd.snr0)
			sd.bFromPmax = sd.pmax * sd.g / (s.N0 * sd.snr0)
		}
		devs[i] = sd
	}
	if sumForced > s.Bandwidth*(1+budgetSlack) {
		return nil, fmt.Errorf("core: SP2v2 minimum bandwidths %g exceed B=%g: %w", sumForced, s.Bandwidth, ErrInfeasible)
	}
	return devs, nil
}

// budgetSlack is the relative slack applied to the bandwidth budget during
// the price search. Algorithm 2 routinely produces rate floors that equal
// the current rates exactly (Subproblem 1 fills each device's time budget),
// putting the instance on the feasibility boundary where the aggregate
// demand plateaus within a few ulps of B; the slack absorbs that, and the
// final allocation is rescaled back inside the true budget.
const budgetSlack = 1e-9

// snrForPrice solves the fixed-a bandwidth stationarity
//
//	a * [log2(1+theta) - theta/((1+theta)*ln2)] = mu
//
// for the SNR theta in closed form via Lambert W: with x = 1+theta and
// c = 1 + mu*ln2/a, the solution is x = -1/W0(-exp(-c)). When mu*ln2/a is
// too small to move c off 1 in float64, W0 returns its branch point and
// x rounds to 1; there the leading term of x - 1 - ln(x) = mu*ln2/a,
// theta = sqrt(2*mu*ln2/a), keeps theta positive, so a device's demand
// keeps growing as the price falls instead of dropping to its forced
// floor, where the price search's downward walk would find no bracket
// (TestAlgorithm1FixedPowerBracket).
func snrForPrice(a, mu float64) float64 {
	if mu <= 0 {
		return 0
	}
	c := 1 + mu*math.Ln2/a
	arg := -math.Exp(-c)
	w, err := numeric.LambertW0(arg)
	if err != nil || w >= 0 {
		// arg in (-1/e, 0) guarantees w in (-1, 0); failures mean c
		// overflowed, i.e. an astronomically high price: SNR -> infinity.
		return math.Inf(1)
	}
	x := -1 / w
	if x <= 1 {
		return math.Sqrt(2 * mu * math.Ln2 / a)
	}
	return x - 1
}

// bindingSNR solves the joint (p, B) stationarity on the rate-constraint
// surface (paper eq. (A.4) territory): a(mu) = (mu-j)*ln2 / W((mu-j)/(e*j)),
// Lambda = a/(j*ln2), returning Lambda-1.
func bindingSNR(j, mu float64) float64 {
	diff := mu - j
	if math.Abs(diff) <= 1e-300 || math.Abs(diff) <= 1e-14*j {
		return math.E - 1 // limit: a = e*j*ln2 => Lambda = e
	}
	w, err := numeric.LambertW0(diff / (math.E * j))
	if err != nil || w == 0 {
		return math.E - 1
	}
	a := diff * math.Ln2 / w
	lambda := a / (j * math.Ln2)
	if lambda <= 1 {
		return 0
	}
	return lambda - 1
}

// allocAtPrice computes the optimal (B, p) of one device at bandwidth price
// mu, folding in the power box and the rate constraint.
func (sd sp2Device) allocAtPrice(n0, mu float64) sp2Alloc {
	if sd.snr0 > 0 {
		// Unconstrained-by-rate optimum: SNR set by the price, power clipped
		// by regime.
		theta := snrForPrice(sd.a0, mu)
		var al sp2Alloc
		switch {
		case math.IsInf(theta, 1):
			al = sp2Alloc{b: 0, p: sd.pmin}
		case theta < sd.snr0: // cheap bandwidth: pmax regime
			al = sp2Alloc{b: sd.pmax * sd.g / (n0 * theta), p: sd.pmax}
		case theta > sd.snr0: // expensive bandwidth: pmin regime
			al = sp2Alloc{b: sd.pmin * sd.g / (n0 * theta), p: sd.pmin}
		default: // exactly marginal: park at the low end of the flat segment
			al = sp2Alloc{b: sd.bFromPmin, p: sd.pmin, marginal: true}
		}
		if al.b > 0 && wireless.Rate(al.p, al.b, sd.g, n0) >= sd.rmin {
			return al
		}
	}
	// Rate constraint binds: joint stationarity on the constraint surface.
	theta := bindingSNR(sd.j, mu)
	if theta > 0 {
		b := sd.rmin / numeric.Log2p1(theta)
		p := theta * n0 * b / sd.g
		switch {
		case p > sd.pmax:
			// Price pushes the SNR beyond what pmax affords: forced corner.
			return sp2Alloc{b: sd.bForced, p: sd.pmax}
		case p < sd.pmin:
			// Cheapest rate-rmin point with the power floor.
			bb, err := wireless.BandwidthForRate(sd.rmin, sd.pmin, sd.g, n0)
			if err != nil {
				// rmin unreachable at pmin: stay on the unclipped surface.
				return sp2Alloc{b: b, p: sd.pmin}
			}
			return sp2Alloc{b: bb, p: sd.pmin}
		default:
			return sp2Alloc{b: b, p: p}
		}
	}
	return sp2Alloc{b: sd.bForced, p: sd.pmax}
}

// SolveSP2v2 solves SP2_v2 (eq. (21)) by clamp-aware waterfilling on the
// bandwidth price mu. Per device and price, the optimal SNR has a Lambert-W
// closed form (Theorem 2 / Appendix B, extended with exact handling of the
// power box and the tau_n >= 0 projection); the aggregate bandwidth demand
// S(mu) is non-increasing, and bisection clears S(mu) = B. Devices whose
// reservation price mu0 equals the clearing price split the residual band
// along their flat segments.
func SolveSP2v2(s *fl.System, nu, beta, rmin []float64) (SP2v2Result, error) {
	n := s.N()
	res := SP2v2Result{Power: make([]float64, n), Bandwidth: make([]float64, n)}
	ws := wsPool.Get().(*Workspace)
	defer wsPool.Put(ws)
	ws.grow(n)
	ws.growPaper(n)
	ws.lastMu = 0
	mu, obj, err := solveSP2v2Into(s, nu, beta, rmin, ws, res.Power, res.Bandwidth)
	if err != nil {
		return SP2v2Result{}, err
	}
	res.Mu, res.Objective = mu, obj
	return res, nil
}

// solveSP2v2Into is SolveSP2v2 writing powers and bandwidths into
// caller-provided slices and drawing scratch (device table, per-price
// allocations) from ws. A positive ws.lastMu seeds the price bracket: the
// clearing price of the previous inner solve is verified with two demand
// probes and, when it still brackets, replaces the from-scratch bracket
// discovery.
func solveSP2v2Into(s *fl.System, nu, beta, rmin []float64, ws *Workspace, outP, outB []float64) (float64, float64, error) {
	devs, err := buildSP2DevicesInto(ws.devs[:0], s, nu, beta, rmin)
	if err != nil {
		return 0, 0, err
	}
	ws.devs = devs
	total := s.Bandwidth * (1 + budgetSlack)

	demand := func(mu float64) float64 {
		var sum float64
		for _, sd := range devs {
			sum += sd.allocAtPrice(s.N0, mu).b
		}
		return sum
	}

	// Bracket the clearing price. Demand diverges as mu -> 0+ (bandwidth is
	// always valuable) and falls to the forced floor as mu -> infinity. A
	// seeded price shortcuts the discovery when it still brackets.
	var muLo, muHi float64
	if seed := ws.lastMu; seed > 0 && !math.IsInf(seed, 1) {
		lo, hi := seed/16, seed*16
		if demand(lo) > total && demand(hi) <= total {
			muLo, muHi = lo, hi
		}
	}
	if muHi == 0 {
		muLo = math.Inf(1)
		for _, sd := range devs {
			if sd.mu0 > 0 && sd.mu0 < muLo {
				muLo = sd.mu0
			}
			if sd.j < muLo {
				muLo = sd.j
			}
		}
		if math.IsInf(muLo, 1) || muLo <= 0 {
			muLo = 1
		}
		muLo *= 1e-9
		for demand(muLo) <= total && muLo > 1e-300 {
			muLo /= 16
		}
		muHi, err = numeric.BracketUp(func(mu float64) bool { return demand(mu) <= total }, muLo*2, 600)
		if err != nil {
			return 0, 0, fmt.Errorf("core: SP2v2 price bracket: %w", ErrInfeasible)
		}
	}
	mu, err := numeric.BisectDecreasing(func(mu float64) float64 { return demand(mu) - total }, muLo, muHi, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("core: SP2v2 price bisection: %w", err)
	}
	ws.lastMu = mu

	// Evaluate on the feasible (low-demand) side of the clearing price and
	// hand the residual band to marginal devices along their flat segments.
	side := mu
	if demand(side) > total {
		side = math.Nextafter(mu, math.Inf(1))
		for k := 0; k < 64 && demand(side) > total; k++ {
			side *= 1 + 1e-12
		}
	}
	var used float64
	allocs := ws.allocs[:len(devs)]
	for i, sd := range devs {
		allocs[i] = sd.allocAtPrice(s.N0, side)
		used += allocs[i].b
	}
	leftover := total - used
	if leftover > 0 {
		// Marginal devices absorb the residual up to their pmax end, SNR
		// pinned at snr0 (power scales with bandwidth along the segment).
		for i := range devs {
			sd := devs[i]
			if !allocs[i].marginal && !(sd.snr0 > 0 && math.Abs(sd.mu0-mu) <= 1e-6*math.Max(sd.mu0, mu)) {
				continue
			}
			if sd.snr0 <= 0 {
				continue
			}
			room := sd.bFromPmax - allocs[i].b
			if room <= 0 {
				continue
			}
			add := math.Min(room, leftover)
			allocs[i].b += add
			allocs[i].p = sd.snr0 * s.N0 * allocs[i].b / sd.g
			leftover -= add
			if leftover <= 0 {
				break
			}
		}
	}

	var finalSum float64
	for i, sd := range devs {
		al := allocs[i]
		// Final safety: honour the power box and the rate floor exactly.
		al.p = numeric.Clamp(al.p, sd.pmin, sd.pmax)
		if al.b <= 0 || wireless.Rate(al.p, al.b, sd.g, s.N0) < sd.rmin*(1-1e-9) {
			al.b = math.Max(al.b, sd.bForced)
			al.p = sd.pmax
		}
		allocs[i] = al
		finalSum += al.b
	}
	// Rescale the budget slack away: a uniform shrink of at most a few
	// parts in 1e9 keeps rates within the 1e-6 validation tolerance.
	if finalSum > s.Bandwidth {
		scale := s.Bandwidth / finalSum
		for i := range allocs {
			allocs[i].b *= scale
		}
	}
	var obj float64
	for i, sd := range devs {
		al := allocs[i]
		outP[i] = al.p
		outB[i] = al.b
		obj += sd.nu * (al.p*sd.d - sd.beta*wireless.Rate(al.p, al.b, sd.g, s.N0))
	}
	return mu, obj, nil
}

// SolveSP2v2PaperDual solves SP2_v2 along the paper's literal Appendix-B
// pathway: first bisect g'(mu) = sum_n rmin_n*ln2/(W_n+1) - B = 0 (derived
// assuming every tau_n > 0), then clamp tau_n = max(., 0); devices with
// tau_n > 0 bind their rate constraints with the closed-form bandwidth, and
// the remaining devices split the residual band through the linear program
// (A.6) solved greedily. Power follows eq. (38) with clipping.
//
// The pathway is kept for fidelity and comparison; SolveSP2v2 folds the
// clamping into the price search and is never worse (property-tested).
func SolveSP2v2PaperDual(s *fl.System, nu, beta, rmin []float64) (SP2v2Result, error) {
	devs, err := buildSP2Devices(s, nu, beta, rmin)
	if err != nil {
		return SP2v2Result{}, err
	}
	total := s.Bandwidth

	// g'(mu): all-binding bandwidth demand minus B. W_n+1 -> 0+ as mu -> 0
	// (demand diverges) and grows with mu (demand -> 0), so a root exists.
	gPrime := func(mu float64) float64 {
		var sum float64
		for _, sd := range devs {
			w, werr := numeric.LambertW0((mu - sd.j) / (math.E * sd.j))
			if werr != nil || w <= -1 {
				return math.Inf(1)
			}
			sum += sd.rmin * math.Ln2 / (w + 1)
		}
		return sum - total
	}
	muLo := devs[0].j * 1e-9
	for gPrime(muLo) <= 0 && muLo > 1e-300 {
		muLo /= 16
	}
	muHi, err := numeric.BracketUp(func(mu float64) bool { return gPrime(mu) <= 0 }, muLo*2, 600)
	if err != nil {
		return SP2v2Result{}, fmt.Errorf("core: paper dual bracket: %w", ErrInfeasible)
	}
	mu, err := numeric.BisectDecreasing(gPrime, muLo, muHi, 0)
	if err != nil {
		return SP2v2Result{}, fmt.Errorf("core: paper dual bisection: %w", err)
	}

	n := len(devs)
	res := SP2v2Result{Power: make([]float64, n), Bandwidth: make([]float64, n), Mu: mu}
	slack := make([]int, 0, n)
	var bandLeft = total
	for i, sd := range devs {
		// tau_n per (A.4), clamped at zero.
		theta := bindingSNR(sd.j, mu)
		a := sd.j * math.Ln2 * (1 + theta)
		tau := a - sd.a0
		if tau > 0 || sd.snr0 <= 0 {
			al := sd.allocAtPrice(s.N0, mu) // binding path incl. power clip
			res.Power[i] = al.p
			res.Bandwidth[i] = al.b
			bandLeft -= al.b
		} else {
			slack = append(slack, i)
		}
	}
	if len(slack) > 0 {
		cost := make([]float64, len(slack))
		lo := make([]float64, len(slack))
		hi := make([]float64, len(slack))
		for k, i := range slack {
			sd := devs[i]
			cost[k] = -sd.mu0 // (A.6) objective coefficient
			bRate := sd.rmin / numeric.Log2p1(sd.snr0)
			lo[k] = math.Max(sd.bFromPmin, bRate)
			hi[k] = math.Max(sd.bFromPmax, lo[k])
		}
		bs, lpErr := greedyLP(cost, lo, hi, math.Max(bandLeft, 0))
		if lpErr != nil {
			// The all-binding price overcommitted the band; fall back to the
			// clamp-aware solver, which cannot.
			return SolveSP2v2(s, nu, beta, rmin)
		}
		for k, i := range slack {
			sd := devs[i]
			res.Bandwidth[i] = bs[k]
			res.Power[i] = numeric.Clamp(sd.snr0*s.N0*bs[k]/sd.g, sd.pmin, sd.pmax) // eq. (38)
		}
	}
	for i, sd := range devs {
		if res.Bandwidth[i] <= 0 || wireless.Rate(res.Power[i], res.Bandwidth[i], sd.g, s.N0) < sd.rmin*(1-1e-9) {
			res.Bandwidth[i] = math.Max(res.Bandwidth[i], sd.bForced)
			res.Power[i] = sd.pmax
		}
		res.Objective += sd.nu * (res.Power[i]*sd.d - sd.beta*wireless.Rate(res.Power[i], res.Bandwidth[i], sd.g, s.N0))
	}
	var sumB float64
	for _, b := range res.Bandwidth {
		sumB += b
	}
	if sumB > total*(1+1e-9) {
		return SolveSP2v2(s, nu, beta, rmin)
	}
	return res, nil
}

// greedyLP solves the separable linear program
//
//	min  sum_i c_i x_i
//	s.t. lo_i <= x_i <= hi_i,  sum_i x_i <= budget
//
// exactly: every variable starts at its lower bound; variables with negative
// cost are raised toward their upper bound in order of increasing cost until
// the budget is exhausted. This is the structure of the paper's problem
// (A.6) (residual bandwidth allocation across devices whose rate constraint
// is slack).
//
// It returns ErrInfeasible when sum lo_i > budget or a box is reversed.
func greedyLP(c, lo, hi []float64, budget float64) ([]float64, error) {
	n := len(c)
	if len(lo) != n || len(hi) != n {
		return nil, fmt.Errorf("core: greedyLP length mismatch (%d,%d,%d): %w", n, len(lo), len(hi), ErrBadInput)
	}
	x := make([]float64, n)
	used := 0.0
	for i := 0; i < n; i++ {
		if lo[i] > hi[i] {
			return nil, fmt.Errorf("core: greedyLP box %d reversed [%g,%g]: %w", i, lo[i], hi[i], ErrInfeasible)
		}
		x[i] = lo[i]
		used += lo[i]
	}
	if used > budget*(1+1e-12)+1e-18 {
		return nil, fmt.Errorf("core: greedyLP lower bounds %g exceed budget %g: %w", used, budget, ErrInfeasible)
	}
	remaining := budget - used

	// Raise the cheapest (most negative cost) variables first.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return c[order[a]] < c[order[b]] })
	for _, i := range order {
		if c[i] >= 0 || remaining <= 0 {
			break
		}
		room := hi[i] - x[i]
		if room > remaining {
			room = remaining
		}
		x[i] += room
		remaining -= room
	}
	return x, nil
}
