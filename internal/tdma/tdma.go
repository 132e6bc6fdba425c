// Package tdma models the alternative uplink access scheme the paper
// contrasts with in related work ([8], Dinh et al.): time-division multiple
// access, where each device transmits over the *whole* band B for its own
// time slice instead of owning a frequency slice for the whole round.
//
// Per global round, device n computes for T_cmp_n = Rl*c_n*D_n/f_n and then
// uploads d_n bits at rate G_n(p_n, B) during a dedicated slot
// tau_n = d_n / G_n(p_n, B). All computation can overlap other devices'
// slots (devices compute from the round start), so the round time is
//
//	T_round = max( max_n T_cmp_n + tau_(last), sum_n tau_n )  >=  sum tau_n
//
// We adopt the standard simplification used by the TDMA FL literature: the
// slot schedule packs uploads back-to-back after the slowest computation,
// i.e. T_round = max_n T_cmp_n + sum_n tau_n is an upper bound and
// sum_n tau_n a lower bound; we charge the pessimistic bound (computation
// cannot always hide behind other devices' slots when it finishes late).
//
// The package exists for the access-scheme ablation: it lets the
// experiments compare the paper's FDMA allocation against a TDMA allocation
// optimized with the same machinery (per-device 1-D power/frequency
// optimization under the weighted objective).
package tdma

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fl"
	"repro/internal/numeric"
	"repro/internal/wireless"
)

// ErrInfeasible is returned when no TDMA schedule can satisfy a deadline.
var ErrInfeasible = errors.New("tdma: infeasible configuration")

// Allocation is a TDMA uplink plan: per-device power, frequency and the
// implied slot lengths (everyone uses the full band during its slot).
type Allocation struct {
	// Power is p_n during the device's slot, in watts.
	Power []float64
	// Freq is the CPU frequency f_n in Hz.
	Freq []float64
	// Slots is tau_n = d_n/G_n(p_n, B) in seconds.
	Slots []float64
}

// Metrics aggregates a TDMA allocation, mirroring fl.Metrics.
type Metrics struct {
	// RoundTime is max_n T_cmp_n + sum_n tau_n.
	RoundTime float64
	// TotalTime is Rg * RoundTime.
	TotalTime float64
	// TransEnergy and CompEnergy sum over devices and rounds.
	TransEnergy, CompEnergy float64
	// TotalEnergy is their sum.
	TotalEnergy float64
}

// Evaluate computes the TDMA accounting for an allocation on the system.
func Evaluate(s *fl.System, a Allocation) Metrics {
	var m Metrics
	maxCmp := 0.0
	for i := range s.Devices {
		cmp := s.CompTimeRound(i, a.Freq[i])
		if cmp > maxCmp {
			maxCmp = cmp
		}
		m.TransEnergy += a.Power[i] * a.Slots[i]
		m.CompEnergy += s.CompEnergyRound(i, a.Freq[i])
		m.RoundTime += a.Slots[i]
	}
	m.RoundTime += maxCmp
	m.TransEnergy *= s.GlobalRounds
	m.CompEnergy *= s.GlobalRounds
	m.TotalEnergy = m.TransEnergy + m.CompEnergy
	m.TotalTime = s.GlobalRounds * m.RoundTime
	return m
}

// Optimize chooses per-device powers and frequencies minimizing the
// weighted objective w1*E + w2*T under TDMA.
//
// Unlike FDMA there is no bandwidth coupling: the only coupling is the sum
// of slot lengths inside the round time. The objective decomposes as
//
//	sum_n [ w1*Rg*(p_n*tau_n(p_n) + E_cmp(f_n)) + w2*Rg*tau_n(p_n) ] +
//	w2*Rg*max_n T_cmp_n(f_n)
//
// Powers therefore separate per device (1-D search); frequencies couple
// only through the max term, handled exactly by a 1-D search over the
// compute deadline (same structure as Subproblem 1).
func Optimize(s *fl.System, w fl.Weights) (Allocation, Metrics, error) {
	if err := s.Check(); err != nil {
		return Allocation{}, Metrics{}, err
	}
	if err := w.Check(); err != nil {
		return Allocation{}, Metrics{}, err
	}
	n := s.N()
	a := Allocation{
		Power: make([]float64, n),
		Freq:  make([]float64, n),
		Slots: make([]float64, n),
	}

	// Per-device power: minimize rg*d*(w1*p + w2)/G(p), the energy
	// w1*p*tau(p) plus the slot time w2*tau(p) with tau(p) = d/G(p, B).
	// Its slope has the sign of phi(p) = w1*G(p) - (w1*p + w2)*G'(p), with
	// G' = g/(N0*ln2*(1 + p*g/(N0*B))), and G is concave, so
	// phi' = -(w1*p + w2)*G'' >= 0: phi is nondecreasing, and the cost is
	// least where phi changes sign (numeric.MinimizeConvex).
	rg := s.GlobalRounds
	for i, d := range s.Devices {
		phi := func(p float64) float64 {
			dg := d.Gain / (s.N0 * math.Ln2 * (1 + p*d.Gain/(s.N0*s.Bandwidth)))
			return w.W1*wireless.Rate(p, s.Bandwidth, d.Gain, s.N0) - (w.W1*p+w.W2)*dg
		}
		p, err := numeric.MinimizeConvex(phi, d.PMin, d.PMin, d.PMax, 1e-9*d.PMax)
		if err != nil {
			return Allocation{}, Metrics{}, fmt.Errorf("tdma: device %d power search: %w", i, err)
		}
		a.Power[i] = p
		a.Slots[i] = d.UploadBits / wireless.Rate(p, s.Bandwidth, d.Gain, s.N0)
	}

	// Frequencies: minimize w1*Rg*sum E_cmp(f_n) + w2*Rg*max_n T_cmp(f_n).
	// For a candidate compute deadline tc, the cheapest feasible frequency
	// is clamp(Rl*c*D/tc, FMin, FMax); the objective is convex in tc.
	var tcLo, tcHi float64
	for _, d := range s.Devices {
		fast := s.LocalIters * d.CyclesPerIteration() / d.FMax
		slow := s.LocalIters * d.CyclesPerIteration() / d.FMin
		if fast > tcLo {
			tcLo = fast
		}
		if slow > tcHi {
			tcHi = slow
		}
	}
	freqObj := func(tc float64) float64 {
		var e float64
		for i, d := range s.Devices {
			f := numeric.Clamp(s.LocalIters*d.CyclesPerIteration()/tc, d.FMin, d.FMax)
			e += s.CompEnergyRound(i, f)
		}
		return w.W1*rg*e + w.W2*rg*tc
	}
	var tc float64
	switch {
	case w.W2 == 0:
		tc = tcHi
	case w.W1 == 0:
		tc = tcLo
	default:
		var err error
		tc, err = numeric.GoldenSection(freqObj, tcLo, tcHi, 1e-10*math.Max(tcHi, 1))
		if err != nil {
			return Allocation{}, Metrics{}, fmt.Errorf("tdma: deadline search: %w", err)
		}
	}
	for i, d := range s.Devices {
		a.Freq[i] = numeric.Clamp(s.LocalIters*d.CyclesPerIteration()/tc, d.FMin, d.FMax)
	}

	return a, Evaluate(s, a), nil
}

// Objective evaluates the weighted objective for a TDMA allocation.
func Objective(s *fl.System, w fl.Weights, a Allocation) float64 {
	m := Evaluate(s, a)
	return w.W1*m.TotalEnergy + w.W2*m.TotalTime
}
