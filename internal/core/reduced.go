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
	// Zero means not yet computed (see newSplitDevice); bandFrom then
	// computes it only when the water level would need pmax or more.
	bForced float64
}

// newReducedDevice validates and precomputes the reduction for one device,
// its floor solved from the last floor band in st (bandForRate).
func newReducedDevice(dev fl.Device, n0, rmin float64, st *bandStart) (reducedDevice, error) {
	rd := reducedDevice{d: dev.UploadBits, g: dev.Gain, pmin: dev.PMin, pmax: dev.PMax, rmin: rmin}
	if !(rmin > 0) {
		return rd, fmt.Errorf("core: rmin=%g must be positive: %w", rmin, ErrBadInput)
	}
	rd.bForced = rd.bandForRate(n0, dev.PMax, &st.floor, &st.colds)
	if math.IsInf(rd.bForced, 1) {
		return rd, fmt.Errorf("core: rate %g unreachable at pmax %g: %w", rmin, dev.PMax, ErrInfeasible)
	}
	return rd, nil
}

// newSplitDevice is newReducedDevice with the floor left unknown, for the
// deadline solver's split search: each split evaluation asks bandFrom
// once, and only there does the floor matter, and only when it binds.
// limit is the device's RateLimit at pmax, which its search computes once;
// it reports false when rmin is out of that reach.
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

// energyAt is energy given p = PowerForRate(rmin, b), as bandFrom hands it
// back on the water level, or p = 0 when the caller does not have it.
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

// freeBranch is a device's free-branch band at one price and its rate at
// pmin there; the zero value means not yet computed. Neither depends on
// rmin, so the deadline solver's split search, which asks one level of
// devices that differ only in rmin, keeps one per device and price and
// computes it at most once (bandFrom).
type freeBranch struct{ b, rate float64 }

// level returns the water level x > 0 with phi(x) = 1 + (x-1)*e^x = c,
// cold: the rate-pinned branch's marginal at band b is
// (d*N0/(rmin*g))*phi(x) with x = rmin*ln2/b, and phi(x) = c reads
// (x-1)*e^(x-1) = (c-1)/e, so x = 1 + W0((c-1)/e). From (c-1)/e = -1/4 up,
// W0 is Winitzki's guess plus two Halley steps (numeric.LambertW0Winitzki);
// nearer the branch point it is LambertW0. One Newton step
// (phi'(x) = x*e^x) then restores the digits either loses, W0 next to its
// branch point (c -> 0) and the two-step form everywhere.
func level(c float64) float64 {
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
	return x - (x-em1*(1-x)-c)/(x*(em1+1))
}

// levelFrom solves phi(x) = c from x0 and returns x with expm1(x). Each
// step is Halley's: Newton's step n = (phi(x)-c)/phi'(x) divided by
// 1 - n*h, where h = (x+1)/(2x) is phi's second derivative (x+1)*e^x over
// twice its first, so the curvature costs nothing beyond the exponential
// Newton's step takes. The error after a step s is about C*|s|^3 with
// C = (x^2+2x+3)/(12x^2) <= h^2, so once h^2*|s|^3 is below x's rounding,
// x is done and expm1 moves by (expm1+1)*expm1(-s), where
// expm1(-s) = -s*(1-s/2*(1-s/3)) to rounding at such s. From far below
// the root a Newton step overshoots to where its descent back takes
// hundreds of steps; Halley's step is bounded there by 1/h. It reports
// false when x0 is no start (not positive), when phi(x0) lies more than a
// factor 50 from c, or when a step leaves x > 0 or fails to shrink, where
// the caller solves cold (level). Starts that far off are the deadline
// price search's first jump, about e^6 in c, where 19 in 20 fail after two
// steps and the rest take six: the cold solve is cheaper.
func levelFrom(x0, c float64) (x, em1 float64, ok bool) {
	x, last := x0, math.Inf(1)
	for x > 0 {
		em1 = math.Expm1(x)
		phi := x - em1*(1-x)
		if math.IsInf(last, 1) && !(phi < 50*c && phi > c/50) {
			break
		}
		h := (x + 1) / (2 * x)
		n := (phi - c) / (x * (em1 + 1))
		s := n / (1 - n*h)
		if !(math.Abs(s) < last) {
			break
		}
		x -= s
		if h*h*s*s*math.Abs(s) <= 0x1p-53*x {
			return x, em1 - (em1+1)*s*(1-s/2*(1-s/3)), x > 0
		}
		last = math.Abs(s)
	}
	return 0, 0, false
}

// bandStart is one device's last band inversions, the starts of its next:
// the water level x and the last pmax floor, pmin junction and free-branch
// bands. A zero field has no start yet. colds counts the inversions that
// ran the cold path. A fixed-deadline solve keeps one per device from its
// first split evaluation to its last polish waterfill; the weighted
// alternation keeps one per device in its Workspace across its outer
// iterations.
type bandStart struct {
	x, floor, junction, free float64
	colds                    int
}

// bandFrom returns device rd's band at water level lambda: the b >= its
// pmax floor with marginal(b) = lambda, the floor when even there the
// marginal is below lambda, or, past the junction where p(B) reaches pmin,
// the free branch's root (freeBand), or the junction band itself when
// lambda lies inside the marginal's drop there. It is the one band
// inversion of the split search and of every waterfill, whose successive
// asks of one device move its split and price little. Each inversion (the
// water level, and the floor, junction and free-branch bands where they
// are needed) runs Newton's method, or Halley's for the water level, from
// the device's last answer in st, which it updates (levelFrom,
// bandForRate, freeBand), and falls back to the cold inversion (level,
// wireless.BandwidthForRate) when there is no start or the iteration
// cannot use it. A device whose floor is known (newReducedDevice) uses it;
// one whose floor is unknown (newSplitDevice) solves it only when the
// water-level root needs power pmax or more, since below pmax the root
// lies above the floor.
//
// It returns the band and the power there: PowerForRate(rmin, b) on the
// water level, taken from expm1(x) rather than a second exponential, pmax
// on the floor, pmin at the junction and 0 on the free branch; and on the
// water level x = rmin*ln2/b and expm1(x), else 0. The floor band is +Inf
// when rmin/RateLimit(pmax) rounds to 1.
func (rd reducedDevice) bandFrom(n0, lambda float64, free *freeBranch, st *bandStart) (b, p, x, em1 float64) {
	c := lambda * rd.rmin * rd.g / (rd.d * n0)
	x, em1, ok := levelFrom(st.x, c)
	if !ok {
		st.colds++
		x = level(c)
		em1 = math.Expm1(x)
	}
	st.x = x
	b = rd.rmin * math.Ln2 / x
	p = em1 * n0 * b / rd.g
	bf := rd.bForced
	if bf == 0 && !(p < rd.pmax) {
		bf = rd.bandForRate(n0, rd.pmax, &st.floor, &st.colds)
	}
	if !(b > bf) {
		return bf, rd.pmax, 0, 0
	}
	if p >= rd.pmin {
		return b, p, x, em1
	}

	if !(free.b > 0) {
		var warm bool
		if free.b, warm = rd.freeBand(n0, lambda, st.free); !warm {
			st.colds++
		}
		free.rate = wireless.Rate(rd.pmin, free.b, rd.g, n0)
		st.free = free.b
	}
	if free.rate >= rd.rmin {
		return free.b, 0, 0, 0
	}
	return rd.bandForRate(n0, rd.pmin, &st.junction, &st.colds), rd.pmin, 0, 0
}

// bandForRate is wireless.BandwidthForRate(rmin, p, g, N0), the band where
// power p reaches the rate rmin, solved by Newton's method (snrFrom) from
// the band *b when it can and cold otherwise, counted in *colds. *b takes
// the answer. It is +Inf when rmin/RateLimit(p) rounds to 1.
func (rd reducedDevice) bandForRate(n0, p float64, b *float64, colds *int) float64 {
	k := p * rd.g / n0
	if e, ok := snrFrom(k / *b, rd.rmin*math.Ln2/k); ok {
		*b = k / e
		return *b
	}
	*colds++
	bf, err := wireless.BandwidthForRate(rd.rmin, p, rd.g, n0)
	if err != nil {
		return math.Inf(1)
	}
	*b = bf
	return bf
}

// snrFrom solves q(e) = log1p(e)/e = a for the SNR e = K/b of the band
// where power p reaches rate r (K = p*g/N0, a = r*ln2/K), by Newton's
// method from e0. q is convex and decreasing from 1 at e = 0, so a root
// exists for 0 < a < 1 and the iterates rise to it after the first step.
// q's second derivative is -2q'/e - 1/(e*(1+e)^2), at most -2q'/e, so
// the error after a step s, about s^2 times that over 2|q'|, is at most
// s^2/e, and once that is below e's rounding e is done. It reports false
// when e0 is no start (not positive and finite), when q(e0) lies more than
// a factor e from a, or when a step leaves e > 0 or fails to shrink, as it
// does when a >= 1, where the caller solves cold. From that far no start
// in the deadline corpus finishes: from above the root the first step
// leaves e > 0, from below the steps grow.
func snrFrom(e0, a float64) (float64, bool) {
	e, last := e0, math.Inf(1)
	for e > 0 && e < math.Inf(1) {
		l := math.Log1p(e)
		if q := l / e; math.IsInf(last, 1) && !(q < a*math.E && q > a/math.E) {
			break
		}
		s := (l/e - a) * e * e / (e/(1+e) - l)
		if !(math.Abs(s) < last) {
			break
		}
		e -= s
		if s*s <= 0x1p-52*e*e {
			return e, e > 0
		}
		last = math.Abs(s)
	}
	return 0, false
}

// freeBand returns the bandwidth where the free branch's marginal, power
// at pmin, equals lambda. With y = K/b, K = pmin*g/N0 and L = ln(1+y), that
// marginal is (pmin*d*ln2/K^2)*h(y), h(y) = y^2*(L - y/(1+y))/L^2. The
// slope of ln h in ln y stays between 1.7 and 2, so Newton's method in ln y
// converges in a few steps from anywhere: from the band b0, the answer at
// a nearby price, when its y is positive and finite (it reports whether it
// was), or else from the small-y root sqrt(2*c).
func (rd reducedDevice) freeBand(n0, lambda, b0 float64) (float64, bool) {
	k := rd.pmin * rd.g / n0
	c := lambda * k * k / (rd.pmin * rd.d * math.Ln2)
	y := math.Sqrt(2 * c)
	y0 := k / b0
	warm := y0 > 0 && y0 < math.Inf(1)
	if warm {
		y = y0
	}
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
	return k / y, warm
}
