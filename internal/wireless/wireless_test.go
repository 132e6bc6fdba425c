package wireless

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

func TestUnitConversions(t *testing.T) {
	tests := []struct {
		dbm  float64
		watt float64
	}{
		{0, 1e-3},
		{30, 1},
		{10, 10e-3},
		{-174, 3.9810717055349565e-21},
		{12, 15.848931924611133e-3},
	}
	for _, tc := range tests {
		if got := DBmToWatt(tc.dbm); !almostEq(got, tc.watt, 1e-12) {
			t.Errorf("DBmToWatt(%g) = %g, want %g", tc.dbm, got, tc.watt)
		}
		if got := WattToDBm(tc.watt); !almostEq(got, tc.dbm, 1e-9) {
			t.Errorf("WattToDBm(%g) = %g, want %g", tc.watt, got, tc.dbm)
		}
	}
	if !math.IsInf(WattToDBm(0), -1) {
		t.Error("WattToDBm(0) should be -Inf")
	}
	if !math.IsInf(LinearToDB(-1), -1) {
		t.Error("LinearToDB(-1) should be -Inf")
	}
	if got := DBToLinear(3); !almostEq(got, 1.9952623149688795, 1e-12) {
		t.Errorf("DBToLinear(3) = %g", got)
	}
}

func TestUnitRoundTripProperty(t *testing.T) {
	check := func(dbm float64) bool {
		dbm = math.Mod(dbm, 200)
		if math.IsNaN(dbm) {
			return true
		}
		return almostEq(WattToDBm(DBmToWatt(dbm)), dbm, 1e-9)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPathLoss(t *testing.T) {
	m := DefaultPathLoss()
	if got := m.LossDB(1); got != 128.1 {
		t.Errorf("LossDB(1km) = %g, want 128.1", got)
	}
	if got := m.LossDB(10); !almostEq(got, 128.1+37.6, 1e-12) {
		t.Errorf("LossDB(10km) = %g", got)
	}
	// Distance floor keeps gains finite.
	if got := m.LossDB(0); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("LossDB(0) = %g, want finite", got)
	}
	if m.LossDB(0) != m.LossDB(1e-3) {
		t.Error("distances below the floor should clip to the floor")
	}
	// Mean gain decreases with distance.
	if m.MeanGain(0.1) <= m.MeanGain(1) {
		t.Error("gain should decrease with distance")
	}
}

func TestSampleGainStatistics(t *testing.T) {
	m := DefaultPathLoss()
	rng := rand.New(rand.NewSource(42))
	const n = 20000
	var sumDB, sumSqDB float64
	for i := 0; i < n; i++ {
		g := m.SampleGain(rng, 0.5)
		db := -LinearToDB(g) // path loss + shadowing in dB
		sumDB += db
		sumSqDB += db * db
	}
	mean := sumDB / n
	std := math.Sqrt(sumSqDB/n - mean*mean)
	wantMean := m.LossDB(0.5)
	if math.Abs(mean-wantMean) > 0.2 {
		t.Errorf("mean loss = %g dB, want ~%g", mean, wantMean)
	}
	if math.Abs(std-8) > 0.2 {
		t.Errorf("shadowing std = %g dB, want ~8", std)
	}
}

func TestUniformDiskDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 50000
	radius := 2.0
	var inside float64
	for i := 0; i < n; i++ {
		d := UniformDiskDistanceKm(rng, radius)
		if d < 0 || d > radius {
			t.Fatalf("distance %g outside [0, %g]", d, radius)
		}
		if d <= radius/2 {
			inside++
		}
	}
	// P(d <= R/2) = 1/4 for uniform area density.
	if frac := inside / n; math.Abs(frac-0.25) > 0.01 {
		t.Errorf("P(d<=R/2) = %g, want 0.25", frac)
	}
}

func TestSampleGains(t *testing.T) {
	m := DefaultPathLoss()
	rng := rand.New(rand.NewSource(3))
	gains := m.SampleGains(rng, 50, 0.5)
	if len(gains) != 50 {
		t.Fatalf("len = %d", len(gains))
	}
	for i, g := range gains {
		if g <= 0 || math.IsInf(g, 0) || math.IsNaN(g) {
			t.Errorf("gain[%d] = %g not a valid linear gain", i, g)
		}
	}
}

func TestRate(t *testing.T) {
	const n0 = 3.9810717055349565e-21 // -174 dBm/Hz
	g := 1e-11
	p := 0.01 // 10 dBm
	b := 4e5
	snr := p * g / (n0 * b)
	want := b * math.Log2(1+snr)
	if got := Rate(p, b, g, n0); !almostEq(got, want, 1e-12) {
		t.Errorf("Rate = %g, want %g", got, want)
	}
	// Continuous extensions.
	if Rate(p, 0, g, n0) != 0 {
		t.Error("Rate with B=0 should be 0")
	}
	if Rate(0, b, g, n0) != 0 {
		t.Error("Rate with p=0 should be 0")
	}
	if Rate(p, b, 0, n0) != 0 {
		t.Error("Rate with g=0 should be 0")
	}
}

func TestRateMonotoneAndConcaveInB(t *testing.T) {
	const n0 = 4e-21
	g, p := 1e-11, 0.01
	prev := 0.0
	prevDelta := math.Inf(1)
	for b := 1e4; b < 1e8; b *= 1.3 {
		r := Rate(p, b, g, n0)
		if r <= prev {
			t.Fatalf("rate not increasing in B at %g", b)
		}
		delta := r - prev
		_ = prevDelta
		prev = r
		prevDelta = delta
	}
	// Approaches but never exceeds the wideband limit.
	limit := RateLimit(p, g, n0)
	if prev >= limit {
		t.Errorf("rate %g exceeded limit %g", prev, limit)
	}
	if Rate(p, 1e15, g, n0) < 0.999*limit {
		t.Errorf("rate at huge B should approach limit")
	}
}

func TestPowerForRateRoundTrip(t *testing.T) {
	const n0 = 4e-21
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := math.Pow(10, -9-4*rng.Float64()) // 1e-13..1e-9
		b := 1e4 + rng.Float64()*1e7
		p := 1e-4 + rng.Float64()*0.02
		r := Rate(p, b, g, n0)
		back := PowerForRate(r, b, g, n0)
		return almostEq(back, p, 1e-9)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if PowerForRate(0, 1e6, 1e-11, n0) != 0 {
		t.Error("zero rate needs zero power")
	}
	if !math.IsInf(PowerForRate(1, 0, 1e-11, n0), 1) {
		t.Error("zero bandwidth with positive rate needs infinite power")
	}
}

func TestBandwidthForRateRoundTrip(t *testing.T) {
	const n0 = 4e-21
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := math.Pow(10, -9-4*rng.Float64())
		b := 1e4 + rng.Float64()*1e7
		p := 1e-4 + rng.Float64()*0.02
		r := Rate(p, b, g, n0)
		back, err := BandwidthForRate(r, p, g, n0)
		if err != nil {
			return false
		}
		return almostEq(back, b, 1e-6)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBandwidthForRateUnreachable(t *testing.T) {
	const n0 = 4e-21
	p, g := 0.01, 1e-11
	limit := RateLimit(p, g, n0)
	if _, err := BandwidthForRate(limit*1.01, p, g, n0); !errors.Is(err, ErrRateUnreachable) {
		t.Errorf("want ErrRateUnreachable, got %v", err)
	}
	if _, err := BandwidthForRate(limit, p, g, n0); !errors.Is(err, ErrRateUnreachable) {
		t.Errorf("rate at exactly the limit should be unreachable, got %v", err)
	}
	if b, err := BandwidthForRate(0, p, g, n0); err != nil || b != 0 {
		t.Errorf("zero rate: %g, %v", b, err)
	}
}

// TestBandwidthForRateInvertsRate property-tests the closed form across the
// whole reachable range: r/limit on a log grid over [1e-6, 1-1e-9], dense in
// both the low-efficiency tail and next to the wideband limit, where the
// Lambert argument sits on its branch point.
func TestBandwidthForRateInvertsRate(t *testing.T) {
	const n0 = 4e-21
	var fracs []float64
	for k := 0; k <= 60; k++ {
		fracs = append(fracs, math.Pow(10, -6+0.1*float64(k)))
	}
	for k := 0; k <= 70; k++ {
		fracs = append(fracs, 1-math.Pow(10, -2-0.1*float64(k)))
	}
	for _, pg := range [][2]float64{{0.001, 1e-13}, {0.016, 1e-10}, {0.5, 3e-9}} {
		p, g := pg[0], pg[1]
		limit := RateLimit(p, g, n0)
		for _, q := range fracs {
			q = math.Min(q, 1-1e-9)
			r := q * limit
			b, err := BandwidthForRate(r, p, g, n0)
			if err != nil {
				t.Fatalf("p=%g g=%g r/limit=%.12g: %v", p, g, q, err)
			}
			if got := Rate(p, b, g, n0); !almostEq(got, r, 1e-12) {
				t.Errorf("p=%g g=%g r/limit=%.12g: Rate(B=%g) = %.17g, want %.17g (rel %.3g)",
					p, g, q, b, got, r, math.Abs(got-r)/r)
			}
		}
		for _, over := range []float64{1, 1 + 1e-12, 2} {
			if _, err := BandwidthForRate(over*limit, p, g, n0); !errors.Is(err, ErrRateUnreachable) {
				t.Errorf("p=%g g=%g r=%g*limit: want ErrRateUnreachable, got %v", p, g, over, err)
			}
		}
	}
}

// Lemma 1 of the paper: G(p, B) is jointly concave. Verify the Hessian is
// negative semidefinite at random points via the analytic form in Appendix A.
func TestRateConcavityLemma1(t *testing.T) {
	const n0 = 4e-21
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := math.Pow(10, -9-4*rng.Float64())
		p := 1e-4 + rng.Float64()*0.02
		b := 1e4 + rng.Float64()*1e7
		x1 := rng.NormFloat64()
		x2 := rng.NormFloat64()
		// Appendix A: x^T H x = -(x1*g*B - x2*g*p)^2 / (B^3 N0^2 (gp/(BN0)+1)^2 ln2)
		num := x1*g*b - x2*g*p
		quad := -(num * num) / (b * b * b * n0 * n0 * math.Pow(g*p/(b*n0)+1, 2) * math.Ln2)
		if quad > 1e-20 {
			return false
		}
		// Cross-check with finite differences of Rate along (x1, x2).
		eps := 1e-6
		f := func(s float64) float64 { return Rate(p+s*eps*x1*p, b+s*eps*x2*b, g, n0) }
		second := f(1) - 2*f(0) + f(-1)
		return second <= 1e-3*math.Abs(f(0))+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
