package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/wireless"
)

func TestSolveSubproblem2DirectFeasible(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		s := newTestSystem(6, seed)
		a := s.MaxResourceAllocation()
		w1Rg := 0.5 * s.GlobalRounds
		rmin := make([]float64, s.N())
		for i := range s.Devices {
			rmin[i] = s.Rate(i, a.Power[i], a.Bandwidth[i]) * 0.4
		}
		res, err := SolveSubproblem2Direct(s, w1Rg, rmin)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkSP2Feasible(t, s, rmin, res.Power, res.Bandwidth)
	}
}

// The direct solver must never be worse than Algorithm 1 (it is provably
// globally optimal), and Algorithm 1 should land within a few percent.
func TestDirectDominatesNewton(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		s := newTestSystem(6, seed)
		a := s.MaxResourceAllocation()
		w1Rg := 0.5 * s.GlobalRounds
		rmin := make([]float64, s.N())
		for i := range s.Devices {
			rmin[i] = s.Rate(i, a.Power[i], a.Bandwidth[i]) * 0.4
		}
		newton, err := SolveSubproblem2Paper(s, w1Rg, rmin, a.Power, a.Bandwidth, Paper{MaxNewton: 100})
		if err != nil {
			t.Fatalf("seed %d newton: %v", seed, err)
		}
		direct, err := SolveSubproblem2Direct(s, w1Rg, rmin)
		if err != nil {
			t.Fatalf("seed %d direct: %v", seed, err)
		}
		if direct.CommEnergy > newton.CommEnergy*(1+1e-9) {
			t.Errorf("seed %d: direct %g worse than newton %g", seed, direct.CommEnergy, newton.CommEnergy)
		}
		if newton.CommEnergy > direct.CommEnergy*1.10 {
			t.Errorf("seed %d: Algorithm 1 landed %g, more than 10%% above the optimum %g",
				seed, newton.CommEnergy, direct.CommEnergy)
		}
	}
}

// The direct solver must satisfy the fractional program's KKT structure:
// every device is either rate-pinned, at pmin, or at a forced corner; no
// device sits strictly inside (pmin, pmax) with a slack rate.
func TestDirectPowerStructure(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		s := newTestSystem(7, seed)
		a := s.MaxResourceAllocation()
		rmin := make([]float64, s.N())
		for i := range s.Devices {
			rmin[i] = s.Rate(i, a.Power[i], a.Bandwidth[i]) * 0.5
		}
		res, err := SolveSubproblem2Direct(s, s.GlobalRounds, rmin)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range s.Devices {
			p := res.Power[i]
			rate := s.Rate(i, p, res.Bandwidth[i])
			atPMin := p <= d.PMin*(1+1e-9)
			ratePinned := rate <= rmin[i]*(1+1e-6)
			if !atPMin && !ratePinned {
				t.Errorf("seed %d device %d: p=%g interior with slack rate %g > rmin %g",
					seed, i, p, rate, rmin[i])
			}
		}
	}
}

// Waterfilling equalizes marginal energy savings: all devices strictly above
// their forced floor share a common -dE/dB (spot check via finite
// differences on the reduced energy function).
func TestDirectEqualMarginals(t *testing.T) {
	s := newTestSystem(6, 4)
	a := s.MaxResourceAllocation()
	rmin := make([]float64, s.N())
	for i := range s.Devices {
		rmin[i] = s.Rate(i, a.Power[i], a.Bandwidth[i]) * 0.3
	}
	res, err := SolveSubproblem2Direct(s, s.GlobalRounds, rmin)
	if err != nil {
		t.Fatal(err)
	}
	reducedEnergy := func(i int, b float64) float64 {
		d := s.Devices[i]
		p := wireless.PowerForRate(rmin[i], b, d.Gain, s.N0)
		if p < d.PMin {
			p = d.PMin
		}
		return p * d.UploadBits / s.Rate(i, p, b)
	}
	var first float64
	count := 0
	for i, d := range s.Devices {
		b := res.Bandwidth[i]
		bf, _ := wireless.BandwidthForRate(rmin[i], d.PMax, d.Gain, s.N0)
		if b <= bf*(1+1e-6) {
			continue // at the forced floor: marginal may exceed the price
		}
		h := b * 1e-6
		// The reduced energy has a kink where the power hits PMin; a device
		// parked exactly at its junction satisfies a subgradient condition
		// rather than marginal equality, so skip it.
		if bj, err := wireless.BandwidthForRate(rmin[i], d.PMin, d.Gain, s.N0); err == nil && relDiff(b, bj) < 1e-3 {
			continue
		}
		m := -(reducedEnergy(i, b+h) - reducedEnergy(i, b-h)) / (2 * h)
		if count == 0 {
			first = m
		} else if relDiff(m, first) > 1e-2 {
			t.Errorf("device %d marginal %g != %g", i, m, first)
		}
		count++
	}
	if count < 2 {
		t.Skip("fewer than two interior devices in this draw")
	}
}

func TestSolveSubproblem2DirectErrors(t *testing.T) {
	s := newTestSystem(3, 2)
	if _, err := SolveSubproblem2Direct(s, 0, []float64{1, 1, 1}); !errors.Is(err, ErrBadInput) {
		t.Errorf("w1Rg=0: want ErrBadInput, got %v", err)
	}
	if _, err := SolveSubproblem2Direct(s, 1, []float64{1, 1}); !errors.Is(err, ErrBadInput) {
		t.Errorf("short rmin: want ErrBadInput, got %v", err)
	}
	if _, err := SolveSubproblem2Direct(s, 1, []float64{1, 0, 1}); !errors.Is(err, ErrBadInput) {
		t.Errorf("zero rmin: want ErrBadInput, got %v", err)
	}
	huge := make([]float64, 3)
	for i, d := range s.Devices {
		huge[i] = wireless.RateLimit(d.PMax, d.Gain, s.N0) * 2
	}
	if _, err := SolveSubproblem2Direct(s, 1, huge); !errors.Is(err, ErrInfeasible) {
		t.Errorf("unreachable rates: want ErrInfeasible, got %v", err)
	}
}

// TestSeededWaterfillMatchesCold runs the reduced waterfill over the
// deadline corpus's polished devices (rate floors read off each served
// allocation) from seeded levels: the cold level itself, 1e-7 and factors
// 1e6 and 1e30 to either side, and above the largest floor marginal. Each
// must return the cold walk's level and bands to 1e-12, with every floor
// respected and the bands summing to the budget. Two more budgets take
// the edge branches: one the floors fill to within the budget slack (the
// level sits just under the largest floor marginal), and one no level
// down to 1e-300 clears (the level stays at that marginal).
func TestSeededWaterfillMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("48 N=50 deadline solves")
	}
	for k, s := range deadlineCorpus(t) {
		alloc, _, _, err := solveDeadlineJoint(s, corpusDeadline/s.GlobalRounds, nil)
		if err != nil {
			t.Fatalf("instance %d: %v", k, err)
		}
		devs := make([]reducedDevice, s.N())
		var floors, topMarginal float64
		for i, d := range s.Devices {
			rate := wireless.Rate(alloc.Power[i], alloc.Bandwidth[i], d.Gain, s.N0)
			if devs[i], err = newReducedDevice(d, s.N0, rate); err != nil {
				t.Fatalf("instance %d device %d: %v", k, i, err)
			}
			floors += devs[i].bForced
			topMarginal = max(topMarginal, devs[i].marginal(s.N0, devs[i].bForced))
		}
		for _, budget := range []float64{s.Bandwidth, floors, 1e200} {
			level, cold, err := waterfillReducedInto(devs, s.N0, budget, 0, nil, nil)
			if err != nil {
				t.Fatalf("instance %d budget %g: cold: %v", k, budget, err)
			}
			if budget == floors && !(level < topMarginal && level > topMarginal*(1-1e-4)) {
				t.Errorf("instance %d: budget of the floors cleared at %g, not just under the largest floor marginal %g", k, level, topMarginal)
			}
			if budget == 1e200 && level != topMarginal {
				t.Errorf("instance %d: unclearable budget kept level %g, want the largest floor marginal %g", k, level, topMarginal)
			}
			for _, hint := range []float64{level, level * (1 + 1e-7), level * (1 - 1e-7),
				level * 1e6, level * 1e-6, level * 1e30, level * 1e-30, 16 * topMarginal} {
				var tr SolveTrace
				got, bands, err := waterfillReducedInto(devs, s.N0, budget, hint, nil, &tr)
				if err != nil {
					t.Errorf("instance %d budget %g hint %g: %v", k, budget, hint, err)
					continue
				}
				if math.Abs(got-level) > 1e-12*level {
					t.Errorf("instance %d budget %g hint %g: level %.17g, cold %.17g", k, budget, hint, got, level)
				}
				var sum float64
				for i, b := range bands {
					sum += b
					if b < devs[i].bForced {
						t.Errorf("instance %d budget %g hint %g: device %d band %g below its floor %g", k, budget, hint, i, b, devs[i].bForced)
					}
					if math.Abs(b-cold[i]) > 1e-12*cold[i] {
						t.Errorf("instance %d budget %g hint %g: device %d band %.17g, cold %.17g", k, budget, hint, i, b, cold[i])
					}
				}
				if math.Abs(sum-budget) > budgetSlack*budget {
					t.Errorf("instance %d budget %g hint %g: bands sum to %.17g", k, budget, hint, sum)
				}
				if tr.LevelEvals < 2 {
					t.Errorf("instance %d budget %g hint %g: %d level evaluations counted, want at least 2", k, budget, hint, tr.LevelEvals)
				}
			}
		}
	}
}
