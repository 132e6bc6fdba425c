package core

import (
	"fmt"
	"math"

	"repro/internal/fl"
	"repro/internal/numeric"
	"repro/internal/wireless"
)

// reducedDevice models one device's transmission energy after eliminating
// the power variable: since p*d/G(p,B) is strictly increasing in p at fixed
// B, the optimal power is always p(B) = clamp(PowerForRate(rmin, B), PMin,
// PMax), leaving energy as a convex decreasing function of bandwidth alone.
type reducedDevice struct {
	d, g       float64
	pmin, pmax float64
	rmin       float64
	// bForced is the bandwidth where p(B) = pmax: the feasibility floor.
	// Zero means not yet computed (see newSplitDevice); bandAt then
	// computes it only when the water level would need pmax or more.
	bForced float64
}

// newReducedDevice validates and precomputes the reduction for one device.
func newReducedDevice(dev fl.Device, n0, rmin float64) (reducedDevice, error) {
	rd := reducedDevice{d: dev.UploadBits, g: dev.Gain, pmin: dev.PMin, pmax: dev.PMax, rmin: rmin}
	if !(rmin > 0) {
		return rd, fmt.Errorf("core: rmin=%g must be positive: %w", rmin, ErrBadInput)
	}
	bf, err := wireless.BandwidthForRate(rmin, dev.PMax, dev.Gain, n0)
	if err != nil {
		return rd, fmt.Errorf("core: rate %g unreachable at pmax: %w (%v)", rmin, ErrInfeasible, err)
	}
	rd.bForced = bf
	return rd, nil
}

// newSplitDevice is newReducedDevice with the floor left unknown, for the
// deadline solver's split search: each split evaluation asks bandAt once,
// and only there does the floor (a Lambert W solve) matter, and only when
// it binds. limit is the device's RateLimit at pmax, which its search
// computes once; it reports false when rmin is out of that reach.
func newSplitDevice(dev fl.Device, rmin, limit float64) (reducedDevice, bool) {
	rd := reducedDevice{d: dev.UploadBits, g: dev.Gain, pmin: dev.PMin, pmax: dev.PMax, rmin: rmin}
	return rd, rmin > 0 && rmin < limit
}

// power returns the reduced optimal power at bandwidth b.
func (rd reducedDevice) power(n0, b float64) float64 {
	return numeric.Clamp(wireless.PowerForRate(rd.rmin, b, rd.g, n0), rd.pmin, rd.pmax)
}

// energy returns the per-round transmission energy at bandwidth b under the
// reduced power rule. While the power for rmin lies inside [pmin, pmax] the
// rate is rmin exactly, and the energy is p*d/rmin.
func (rd reducedDevice) energy(n0, b float64) float64 {
	return rd.energyAt(n0, b, 0)
}

// energyAt is energy given p = PowerForRate(rmin, b), as bandAtFree hands
// it back, or p = 0 when the caller does not have it.
func (rd reducedDevice) energyAt(n0, b, p float64) float64 {
	if p == 0 {
		p = wireless.PowerForRate(rd.rmin, b, rd.g, n0)
	}
	if p >= rd.pmin && p <= rd.pmax {
		return p * rd.d / rd.rmin
	}
	p = numeric.Clamp(p, rd.pmin, rd.pmax)
	g := wireless.Rate(p, b, rd.g, n0)
	if g <= 0 {
		return math.Inf(1)
	}
	return p * rd.d / g
}

// marginal returns -dE/dB at bandwidth b: the energy saved per extra hertz,
// a positive quantity decreasing in b.
func (rd reducedDevice) marginal(n0, b float64) float64 {
	// Rate-pinned while the power for rmin, (2^(rmin/B)-1)*N0*B/g, exceeds
	// pmin: E = (d/rmin)*p(B), so dp/dB = (N0/g)*(e^x*(1-x) - 1) with
	// x = rmin*ln2/B. The expm1 form avoids catastrophic cancellation for
	// small x: e^x*(1-x) - 1 = expm1(x)*(1-x) - x = -x^2/2 - x^3/3 - ...
	x := rd.rmin * math.Ln2 / b
	em1 := math.Expm1(x)
	if em1*n0*b/rd.g > rd.pmin {
		return rd.d * n0 / (rd.rmin * rd.g) * (x - em1*(1-x))
	}
	// Free branch: E = pmin*d/G(pmin, B).
	gRate := wireless.Rate(rd.pmin, b, rd.g, n0)
	theta := rd.pmin * rd.g / (n0 * b)
	gb := numeric.Log2p1(theta) - theta/((1+theta)*math.Ln2)
	return rd.pmin * rd.d * gb / (gRate * gRate)
}

// bandAt returns the bandwidth at water level lambda: the b >= bForced with
// marginal(b) = lambda, or bForced when even there the marginal is below
// lambda. Both branches of the marginal are inverted directly. A device
// whose floor is unknown computes it only when the pinned-branch root needs
// power pmax or more; below pmax the root lies above the floor.
//
// Rate-pinned branch: with x = rmin*ln2/b the marginal is
// (d*N0/(rmin*g))*phi(x), phi(x) = 1 + (x-1)*e^x, and phi(x) = c reads
// (x-1)*e^(x-1) = (c-1)/e, so x = 1 + W0((c-1)/e). From (c-1)/e = -1/4 up,
// W0 is Winitzki's guess plus two Halley steps (numeric.LambertW0Winitzki);
// nearer the branch point it is LambertW0. One Newton step
// (phi'(x) = x*e^x) then restores the digits either loses, W0 next to its
// branch point (c -> 0) and the two-step form everywhere.
//
// Free branch, past the junction where p(B) reaches pmin: see freeBand. The
// marginal drops at the junction itself, so levels inside that drop return
// the junction bandwidth.
func (rd reducedDevice) bandAt(n0, lambda float64) float64 {
	b, _ := rd.bandAtFree(n0, lambda, new(freeBranch))
	return b
}

// freeBranch is a device's free-branch band at one price and its rate at
// pmin there; the zero value means not yet computed.
type freeBranch struct{ b, rate float64 }

// bandAtFree is bandAt with the free-branch band and its rate kept in
// *free. Neither depends on rmin, so the deadline solver's split search,
// which asks one level of devices that differ only in rmin, computes them
// once per device and price. On the rate-pinned branch it also returns the
// power PowerForRate(rmin, b) it computed, for energyAt; elsewhere 0.
func (rd reducedDevice) bandAtFree(n0, lambda float64, free *freeBranch) (float64, float64) {
	c := lambda * rd.rmin * rd.g / (rd.d * n0)
	z := (c - 1) / math.E
	var w float64
	var err error
	if z >= -0.25 && z < math.MaxFloat64 {
		w = numeric.LambertW0Winitzki(z)
	} else {
		w, err = numeric.LambertW0(z)
	}
	x := 1 + w
	if err != nil || !(x > 0) {
		x = math.Sqrt(2 * c) // phi(x) ~ x^2/2 near 0
	}
	em1 := math.Expm1(x)
	x -= (x - em1*(1-x) - c) / (x * (em1 + 1))
	b := rd.rmin * math.Ln2 / x
	p := wireless.PowerForRate(rd.rmin, b, rd.g, n0)
	if rd.bForced == 0 && !(p < rd.pmax) {
		bf, err := wireless.BandwidthForRate(rd.rmin, rd.pmax, rd.g, n0)
		if err != nil {
			return math.Inf(1), 0 // rmin/RateLimit(pmax) rounded to 1
		}
		rd.bForced = bf
	}
	if !(b > rd.bForced) {
		return rd.bForced, 0
	}
	if p >= rd.pmin {
		return b, p
	}

	if !(free.b > 0) {
		free.b = rd.freeBand(n0, lambda)
		free.rate = wireless.Rate(rd.pmin, free.b, rd.g, n0)
	}
	if free.rate >= rd.rmin {
		return free.b, 0
	}
	// The error is nil: the pinned level needing less than pmin shows that
	// pmin reaches rmin.
	bj, _ := wireless.BandwidthForRate(rd.rmin, rd.pmin, rd.g, n0)
	return bj, 0
}

// freeBand returns the bandwidth where the free branch's marginal, power
// at pmin, equals lambda. With y = K/b, K = pmin*g/N0 and L = ln(1+y), that
// marginal is (pmin*d*ln2/K^2)*h(y), h(y) = y^2*(L - y/(1+y))/L^2. The
// slope of ln h in ln y stays between 1.7 and 2, so Newton's method in ln y
// converges in a few steps from the small-y root sqrt(2*c).
func (rd reducedDevice) freeBand(n0, lambda float64) float64 {
	k := rd.pmin * rd.g / n0
	c := lambda * k * k / (rd.pmin * rd.d * math.Ln2)
	y := math.Sqrt(2 * c)
	for i := 0; i < 30; i++ {
		l := math.Log1p(y)
		a := l - y/(1+y)
		slope := 2 + y*y/((1+y)*(1+y)*a) - 2*y/((1+y)*l)
		step := math.Log(y*y*a/(l*l*c)) / slope
		y *= math.Exp(-step)
		if !(math.Abs(step) > 1e-13) {
			break
		}
	}
	return k / y
}
