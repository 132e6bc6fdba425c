package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClamp(t *testing.T) {
	tests := []struct {
		x, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 10, 0},
		{10, 0, 10, 10},
		{3, 3, 3, 3},
	}
	for _, tc := range tests {
		if got := Clamp(tc.x, tc.lo, tc.hi); got != tc.want {
			t.Errorf("Clamp(%g,%g,%g) = %g, want %g", tc.x, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestClampPanicsOnReversedInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Clamp(1, 5, 0) should panic")
		}
	}()
	Clamp(1, 5, 0)
}

func TestClampProperty(t *testing.T) {
	check := func(x, a, b float64) bool {
		if math.IsNaN(x) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		c := Clamp(x, lo, hi)
		return c >= lo && c <= hi && (c == x || c == lo || c == hi)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestLog2p1(t *testing.T) {
	tests := []struct{ x, want float64 }{
		{0, 0},
		{1, 1},
		{3, 2},
		{7, 3},
		{1e-12, 1e-12 / math.Ln2},
	}
	for _, tc := range tests {
		if got := Log2p1(tc.x); !AlmostEqual(got, tc.want, 1e-14, 1e-10) {
			t.Errorf("Log2p1(%g) = %g, want %g", tc.x, got, tc.want)
		}
	}
}

func TestLog2p1TinyAccuracy(t *testing.T) {
	// Naive log2(1+x) loses all precision at x=1e-18; Log1p keeps it.
	x := 1e-18
	if got := Log2p1(x); !AlmostEqual(got, x/math.Ln2, 0, 1e-12) {
		t.Errorf("Log2p1(1e-18) = %g", got)
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1.0, 1.0+1e-12, 1e-9, 0) {
		t.Error("absolute tolerance failed")
	}
	if !AlmostEqual(1e12, 1e12*(1+1e-10), 0, 1e-9) {
		t.Error("relative tolerance failed")
	}
	if AlmostEqual(1, 2, 1e-9, 1e-9) {
		t.Error("1 and 2 should differ")
	}
}

func TestStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Mean(xs); got != 3 {
		t.Errorf("Mean = %g", got)
	}
	if got := Sum(xs); got != 15 {
		t.Errorf("Sum = %g", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %g", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %g", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %g", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}
