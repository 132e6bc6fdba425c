package wireless

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/numeric"
)

// ErrRateUnreachable is returned when a requested rate exceeds the wideband
// capacity limit p*g/(N0*ln2) and therefore cannot be met with any bandwidth.
var ErrRateUnreachable = errors.New("wireless: rate exceeds wideband capacity limit")

// Rate evaluates the exact Shannon rate (paper eq. (1)):
//
//	G(p, B) = B * log2(1 + p*g / (N0*B))   [bit/s]
//
// with the continuous extensions G(p, 0) = 0 and G(0, B) = 0. It never
// simplifies the noise term (the simplification in ref. [3] is exactly what
// the paper criticizes).
func Rate(p, bandwidth, gain, n0 float64) float64 {
	if bandwidth <= 0 || p <= 0 || gain <= 0 {
		return 0
	}
	snr := p * gain / (n0 * bandwidth)
	return bandwidth * numeric.Log2p1(snr)
}

// RateLimit returns lim_{B->inf} G(p, B) = p*g/(N0*ln2), the wideband
// capacity ceiling for a given power.
func RateLimit(p, gain, n0 float64) float64 {
	if p <= 0 || gain <= 0 {
		return 0
	}
	return p * gain / (n0 * math.Ln2)
}

// PowerForRate returns the transmit power that achieves exactly rate r on
// bandwidth B (the inverse of Rate in p, closed form):
//
//	p = (2^(r/B) - 1) * N0 * B / g
func PowerForRate(r, bandwidth, gain, n0 float64) float64 {
	if r <= 0 {
		return 0
	}
	if bandwidth <= 0 || gain <= 0 {
		return math.Inf(1)
	}
	return (math.Exp2(r/bandwidth) - 1) * n0 * bandwidth / gain
}

// BandwidthForRate returns the bandwidth B solving G(p, B) = r for fixed
// power p. G is strictly increasing and concave in B with limit
// RateLimit(p), so the solution exists iff r < RateLimit(p); otherwise
// ErrRateUnreachable is returned.
//
// Closed form: with K = p*g/N0, y = 1 + K/B and a = r*ln2/K = r/RateLimit
// in (0, 1), G = r reads ln(y)/(y-1) = a, whose root y > 1 is
// y = -W_{-1}(-a*e^(-a))/a, so B = K/(y-1). Next to the limit (a -> 1) the
// Lambert argument sits on the branch point and loses digits, so one Newton
// step on log1p(eps)/eps = a, eps = y-1, restores them.
func BandwidthForRate(r, p, gain, n0 float64) (float64, error) {
	if r <= 0 {
		return 0, nil
	}
	limit := RateLimit(p, gain, n0)
	if r >= limit {
		return 0, fmt.Errorf("wireless: rate %g >= limit %g: %w", r, limit, ErrRateUnreachable)
	}
	a := r / limit
	w, err := numeric.LambertWm1(-a * math.Exp(-a))
	if err != nil {
		return 0, fmt.Errorf("wireless: BandwidthForRate: %w", err)
	}
	eps := -w/a - 1
	l := math.Log1p(eps)
	if slope := (eps/(1+eps) - l) / (eps * eps); slope < 0 {
		if next := eps - (l/eps-a)/slope; next > 0 {
			eps = next
		}
	}
	if !(eps > 0) { // r/limit rounded to 1
		return 0, fmt.Errorf("wireless: rate %g at limit %g: %w", r, limit, ErrRateUnreachable)
	}
	return p * gain / n0 / eps, nil
}
