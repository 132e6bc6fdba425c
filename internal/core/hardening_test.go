package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fl"
	"repro/internal/wireless"
)

// Failure-injection and edge-case hardening for the full optimizer stack.

func TestOptimizeSingleDevice(t *testing.T) {
	s := newTestSystem(1, 1)
	for _, w := range []fl.Weights{{W1: 1, W2: 0}, {W1: 0.5, W2: 0.5}, {W1: 0, W2: 1}} {
		res, err := Optimize(s, w, Options{})
		if err != nil {
			t.Fatalf("w=%v: %v", w, err)
		}
		if err := s.ValidateDeadline(res.Allocation, res.RoundDeadline, 1e-6); err != nil {
			t.Errorf("w=%v: %v", w, err)
		}
		// A single device gets the whole band.
		if res.Allocation.Bandwidth[0] < s.Bandwidth*0.999 {
			t.Errorf("w=%v: single device got only %g of %g Hz", w, res.Allocation.Bandwidth[0], s.Bandwidth)
		}
	}
}

func TestOptimizeDeepFadeDevice(t *testing.T) {
	// One device 60 dB below the rest: the optimizer must still produce a
	// feasible allocation (the weak device simply absorbs bandwidth/time).
	s := newTestSystem(6, 2)
	s.Devices[3].Gain *= 1e-6
	res, err := Optimize(s, fl.Weights{W1: 0.5, W2: 0.5}, Options{})
	if err != nil {
		t.Fatalf("deep fade: %v", err)
	}
	if err := s.ValidateDeadline(res.Allocation, res.RoundDeadline, 1e-6); err != nil {
		t.Errorf("deep fade: %v", err)
	}
	// The weak device should hold more bandwidth than the median device.
	var sum float64
	for _, b := range res.Allocation.Bandwidth {
		sum += b
	}
	if res.Allocation.Bandwidth[3] < sum/float64(s.N())/2 {
		t.Errorf("deep-fade device starved: %g of %g total", res.Allocation.Bandwidth[3], sum)
	}
}

func TestOptimizeDegenerateBoxes(t *testing.T) {
	// Pinned power and frequency boxes (pmin == pmax, fmin == fmax): the
	// only remaining freedom is bandwidth.
	s := newTestSystem(5, 3)
	for i := range s.Devices {
		s.Devices[i].PMin = s.Devices[i].PMax
		s.Devices[i].FMin = s.Devices[i].FMax
	}
	res, err := Optimize(s, fl.Weights{W1: 0.5, W2: 0.5}, Options{})
	if err != nil {
		t.Fatalf("degenerate boxes: %v", err)
	}
	for i, d := range s.Devices {
		if res.Allocation.Power[i] != d.PMax || res.Allocation.Freq[i] != d.FMax {
			t.Errorf("device %d moved a pinned variable", i)
		}
	}
	if err := s.ValidateDeadline(res.Allocation, res.RoundDeadline, 1e-6); err != nil {
		t.Errorf("degenerate boxes: %v", err)
	}
}

func TestOptimizeHeterogeneousUploadSizes(t *testing.T) {
	// 100x spread in d_n.
	s := newTestSystem(6, 4)
	for i := range s.Devices {
		s.Devices[i].UploadBits = 28.1e3 * float64(1+10*i)
	}
	res, err := Optimize(s, fl.Weights{W1: 0.5, W2: 0.5}, Options{})
	if err != nil {
		t.Fatalf("heterogeneous uploads: %v", err)
	}
	if err := s.ValidateDeadline(res.Allocation, res.RoundDeadline, 1e-6); err != nil {
		t.Errorf("heterogeneous uploads: %v", err)
	}
}

func TestOptimizeManyDevicesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-N smoke test")
	}
	s := newTestSystem(200, 5)
	res, err := Optimize(s, fl.Weights{W1: 0.5, W2: 0.5}, Options{})
	if err != nil {
		t.Fatalf("N=200: %v", err)
	}
	if err := s.ValidateDeadline(res.Allocation, res.RoundDeadline, 1e-6); err != nil {
		t.Errorf("N=200: %v", err)
	}
}

// Property: for random feasible systems and weights, the optimizer output
// is always feasible and never worse than the max-resource start.
func TestOptimizeAlwaysFeasibleProperty(t *testing.T) {
	check := func(seed int64, rawW float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		s := newTestSystem(n, seed)
		if math.IsNaN(rawW) || math.IsInf(rawW, 0) {
			return true
		}
		w1 := 0.05 + 0.9*math.Abs(math.Mod(rawW, 1))
		w := fl.Weights{W1: w1, W2: 1 - w1}
		res, err := Optimize(s, w, Options{})
		if err != nil {
			return false
		}
		if err := s.ValidateDeadline(res.Allocation, res.RoundDeadline, 1e-5); err != nil {
			return false
		}
		return res.Objective <= s.Objective(w, s.MaxResourceAllocation())*(1+1e-9)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSolveMinTimeSingleWeakDevice(t *testing.T) {
	s := newTestSystem(4, 6)
	s.Devices[0].Gain = 1e-16 // extremely weak but nonzero
	res, err := SolveMinTime(s)
	if err != nil {
		t.Fatalf("weak device: %v", err)
	}
	if err := s.Validate(res.Allocation, 1e-6); err != nil {
		t.Errorf("weak device: %v", err)
	}
}

func TestDeadlineModeAtExactMinimum(t *testing.T) {
	// A deadline exactly at the physical minimum (within slack) must either
	// solve or fail cleanly — never panic or return an invalid allocation.
	s := newTestSystem(5, 7)
	mt, err := SolveMinTime(s)
	if err != nil {
		t.Fatal(err)
	}
	total := mt.RoundDeadline * s.GlobalRounds * (1 + 1e-7)
	res, err := Optimize(s, fl.Weights{W1: 1, W2: 0}, Options{Mode: ModeDeadline, TotalDeadline: total})
	if err != nil {
		t.Logf("tight deadline rejected cleanly: %v", err)
		return
	}
	if err := s.ValidateDeadline(res.Allocation, total/s.GlobalRounds, 1e-4); err != nil {
		t.Errorf("tight deadline: %v", err)
	}
}

func TestRateLimitGuardsPropagate(t *testing.T) {
	// rmin above the wideband limit must surface ErrInfeasible through the
	// whole stack, not NaNs.
	s := newTestSystem(3, 8)
	rmin := make([]float64, 3)
	for i, d := range s.Devices {
		rmin[i] = wireless.RateLimit(d.PMax, d.Gain, s.N0) * 1.5
	}
	if _, err := SolveSubproblem2Direct(s, 1, rmin); err == nil {
		t.Error("expected error for super-capacity rate floors")
	}
	a := s.MaxResourceAllocation()
	if _, err := SolveSubproblem2(s, 1, rmin, a.Power, a.Bandwidth, Options{SP2Solver: SP2NewtonOnly}); err == nil {
		t.Error("expected error through Algorithm 1 as well")
	}
}
