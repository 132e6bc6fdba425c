package fl

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/wireless"
)

// testSystem builds a small deterministic system resembling the paper's
// parameter scales.
func testSystem(n int) *System {
	devs := make([]Device, n)
	for i := range devs {
		devs[i] = Device{
			Samples:         500,
			CyclesPerSample: 2e4,
			UploadBits:      28.1e3,
			Gain:            1e-11 * float64(i+1),
			FMin:            1e7,
			FMax:            2e9,
			PMin:            1e-3,
			PMax:            15.8e-3,
		}
	}
	return &System{
		Devices:      devs,
		Bandwidth:    20e6,
		N0:           wireless.NoisePSDWattPerHz(-174),
		Kappa:        1e-28,
		LocalIters:   10,
		GlobalRounds: 400,
	}
}

func TestSystemCheck(t *testing.T) {
	s := testSystem(3)
	if err := s.Check(); err != nil {
		t.Fatalf("valid system rejected: %v", err)
	}
	bad := testSystem(3)
	bad.Devices[1].Gain = 0
	if err := bad.Check(); !errors.Is(err, ErrInvalidSystem) {
		t.Errorf("zero gain: want ErrInvalidSystem, got %v", err)
	}
	bad2 := testSystem(3)
	bad2.Devices[0].FMin = 3e9 // above FMax
	if err := bad2.Check(); !errors.Is(err, ErrInvalidSystem) {
		t.Errorf("reversed box: want ErrInvalidSystem, got %v", err)
	}
	empty := &System{Bandwidth: 1, N0: 1, Kappa: 1, LocalIters: 1, GlobalRounds: 1}
	if err := empty.Check(); !errors.Is(err, ErrInvalidSystem) {
		t.Errorf("empty system: want ErrInvalidSystem, got %v", err)
	}
	noBand := testSystem(2)
	noBand.Bandwidth = 0
	if err := noBand.Check(); !errors.Is(err, ErrInvalidSystem) {
		t.Errorf("zero bandwidth: want ErrInvalidSystem, got %v", err)
	}
}

func TestWeightsCheck(t *testing.T) {
	for _, tc := range []struct {
		w  Weights
		ok bool
	}{
		{Weights{0.5, 0.5}, true},
		{Weights{1, 0}, true},
		{Weights{0, 1}, true},
		{Weights{0.6, 0.6}, false},
		{Weights{-0.1, 1.1}, false},
		{Weights{math.NaN(), math.NaN()}, false},
		{Weights{math.NaN(), 1}, false},
		{Weights{0.5, math.NaN()}, false},
		{Weights{math.Inf(1), math.Inf(-1)}, false},
	} {
		err := tc.w.Check()
		if tc.ok && err != nil {
			t.Errorf("Weights%v: unexpected error %v", tc.w, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("Weights%v: expected error", tc.w)
		}
	}
}

func TestEnergyTimeFormulas(t *testing.T) {
	s := testSystem(2)
	// Hand-computed against equations (2), (3), (5), (7).
	const f = 1e9
	d := s.Devices[0]
	wantCompTime := 10 * 2e4 * 500 / f
	if got := s.CompTimeRound(0, f); !almostEq(got, wantCompTime, 1e-12) {
		t.Errorf("CompTimeRound = %g, want %g", got, wantCompTime)
	}
	wantCompEnergy := 1e-28 * 10 * 2e4 * 500 * f * f
	if got := s.CompEnergyRound(0, f); !almostEq(got, wantCompEnergy, 1e-12) {
		t.Errorf("CompEnergyRound = %g, want %g", got, wantCompEnergy)
	}
	p, b := 0.01, 4e5
	r := wireless.Rate(p, b, d.Gain, s.N0)
	if got := s.Rate(0, p, b); !almostEq(got, r, 1e-12) {
		t.Errorf("Rate = %g, want %g", got, r)
	}
	if got := s.UploadTimeRound(0, p, b); !almostEq(got, d.UploadBits/r, 1e-12) {
		t.Errorf("UploadTimeRound = %g", got)
	}
	if got := s.TransEnergyRound(0, p, b); !almostEq(got, p*d.UploadBits/r, 1e-12) {
		t.Errorf("TransEnergyRound = %g", got)
	}
	if got := s.CompTimeRound(0, 0); !math.IsInf(got, 1) {
		t.Errorf("CompTimeRound(f=0) = %g, want +Inf", got)
	}
	if got := s.UploadTimeRound(0, 0, b); !math.IsInf(got, 1) {
		t.Errorf("UploadTimeRound(p=0) = %g, want +Inf", got)
	}
}

func TestEvaluateAggregation(t *testing.T) {
	s := testSystem(3)
	a := s.MaxResourceAllocation()
	m := s.Evaluate(a)
	// Round time must be the max of the per-device sums.
	want := 0.0
	var wantTrans, wantComp float64
	for i := range s.Devices {
		rt := m.CompTimes[i] + m.UploadTimes[i]
		if rt > want {
			want = rt
		}
		wantTrans += a.Power[i] * m.UploadTimes[i]
		wantComp += s.CompEnergyRound(i, a.Freq[i])
	}
	if !almostEq(m.RoundTime, want, 1e-12) {
		t.Errorf("RoundTime = %g, want %g", m.RoundTime, want)
	}
	if !almostEq(m.TotalTime, 400*want, 1e-12) {
		t.Errorf("TotalTime = %g", m.TotalTime)
	}
	if !almostEq(m.TransEnergy, 400*wantTrans, 1e-12) {
		t.Errorf("TransEnergy = %g", m.TransEnergy)
	}
	if !almostEq(m.CompEnergy, 400*wantComp, 1e-12) {
		t.Errorf("CompEnergy = %g", m.CompEnergy)
	}
	if !almostEq(m.TotalEnergy, m.TransEnergy+m.CompEnergy, 1e-12) {
		t.Errorf("TotalEnergy = %g", m.TotalEnergy)
	}
}

func TestObjectiveWeighting(t *testing.T) {
	s := testSystem(2)
	a := s.MaxResourceAllocation()
	m := s.Evaluate(a)
	if got := s.Objective(Weights{1, 0}, a); !almostEq(got, m.TotalEnergy, 1e-12) {
		t.Errorf("w1=1 objective = %g, want %g", got, m.TotalEnergy)
	}
	if got := s.Objective(Weights{0, 1}, a); !almostEq(got, m.TotalTime, 1e-12) {
		t.Errorf("w2=1 objective = %g, want %g", got, m.TotalTime)
	}
	half := s.Objective(Weights{0.5, 0.5}, a)
	if !almostEq(half, 0.5*m.TotalEnergy+0.5*m.TotalTime, 1e-12) {
		t.Errorf("w=0.5 objective = %g", half)
	}
}

func TestValidate(t *testing.T) {
	s := testSystem(3)
	a := s.MaxResourceAllocation()
	if err := s.Validate(a, 1e-9); err != nil {
		t.Fatalf("valid allocation rejected: %v", err)
	}
	over := a.Clone()
	over.Power[0] = s.Devices[0].PMax * 2
	if err := s.Validate(over, 1e-9); !errors.Is(err, ErrInfeasibleAllocation) {
		t.Errorf("power violation: got %v", err)
	}
	under := a.Clone()
	under.Freq[1] = s.Devices[1].FMin / 2
	if err := s.Validate(under, 1e-9); !errors.Is(err, ErrInfeasibleAllocation) {
		t.Errorf("frequency violation: got %v", err)
	}
	tooMuchBand := a.Clone()
	for i := range tooMuchBand.Bandwidth {
		tooMuchBand.Bandwidth[i] = s.Bandwidth
	}
	if err := s.Validate(tooMuchBand, 1e-9); !errors.Is(err, ErrInfeasibleAllocation) {
		t.Errorf("bandwidth violation: got %v", err)
	}
	nan := a.Clone()
	nan.Power[2] = math.NaN()
	if err := s.Validate(nan, 1e-9); !errors.Is(err, ErrInfeasibleAllocation) {
		t.Errorf("NaN: got %v", err)
	}
	short := NewAllocation(2)
	if err := s.Validate(short, 1e-9); !errors.Is(err, ErrInfeasibleAllocation) {
		t.Errorf("size mismatch: got %v", err)
	}
}

func TestValidateDeadline(t *testing.T) {
	s := testSystem(2)
	a := s.MaxResourceAllocation()
	m := s.Evaluate(a)
	if err := s.ValidateDeadline(a, m.RoundTime*1.01, 1e-9); err != nil {
		t.Errorf("deadline met but rejected: %v", err)
	}
	if err := s.ValidateDeadline(a, m.RoundTime*0.5, 1e-9); !errors.Is(err, ErrInfeasibleAllocation) {
		t.Errorf("deadline broken but accepted")
	}
}

func TestEqualSplitAllocationClamps(t *testing.T) {
	s := testSystem(4)
	a := s.EqualSplitAllocation(1.0/8, 100 /* above PMax */, 1 /* below FMin */)
	for i, d := range s.Devices {
		if a.Power[i] != d.PMax {
			t.Errorf("power[%d] = %g, want clamped to %g", i, a.Power[i], d.PMax)
		}
		if a.Freq[i] != d.FMin {
			t.Errorf("freq[%d] = %g, want clamped to %g", i, a.Freq[i], d.FMin)
		}
		if !almostEq(a.Bandwidth[i], s.Bandwidth/8, 1e-12) {
			t.Errorf("bandwidth[%d] = %g", i, a.Bandwidth[i])
		}
	}
}

func TestAllocationCloneAndDistance(t *testing.T) {
	s := testSystem(2)
	a := s.MaxResourceAllocation()
	b := a.Clone()
	if a.Distance(b) != 0 {
		t.Errorf("distance to clone = %g", a.Distance(b))
	}
	b.Power[0] *= 2
	if d := a.Distance(b); !almostEq(d, 0.5, 1e-12) {
		t.Errorf("distance after doubling power = %g, want 0.5", d)
	}
	b.Power[0] = a.Power[0]
	b.Freq[1] *= 1.1
	if d := a.Distance(b); d <= 0 {
		t.Error("distance should detect frequency change")
	}
}

// Property: evaluation is scale-consistent — doubling GlobalRounds doubles
// energies and total time but leaves RoundTime unchanged.
func TestEvaluateRoundScaling(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := testSystem(1 + rng.Intn(5))
		a := s.MaxResourceAllocation()
		for i := range a.Power {
			a.Power[i] = s.Devices[i].PMin + rng.Float64()*(s.Devices[i].PMax-s.Devices[i].PMin)
			a.Freq[i] = s.Devices[i].FMin + rng.Float64()*(s.Devices[i].FMax-s.Devices[i].FMin)
		}
		m1 := s.Evaluate(a)
		s2 := *s
		s2.GlobalRounds *= 2
		m2 := (&s2).Evaluate(a)
		return almostEq(m2.TotalEnergy, 2*m1.TotalEnergy, 1e-9) &&
			almostEq(m2.TotalTime, 2*m1.TotalTime, 1e-9) &&
			almostEq(m2.RoundTime, m1.RoundTime, 1e-12)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: computation energy grows as f^2 and computation time as 1/f.
func TestCompScalingLaws(t *testing.T) {
	s := testSystem(1)
	check := func(raw float64) bool {
		f := 1e8 + math.Abs(math.Mod(raw, 1.9e9))
		e1, e2 := s.CompEnergyRound(0, f), s.CompEnergyRound(0, 2*f)
		t1, t2 := s.CompTimeRound(0, f), s.CompTimeRound(0, 2*f)
		return almostEq(e2, 4*e1, 1e-9) && almostEq(t2, t1/2, 1e-9)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}
