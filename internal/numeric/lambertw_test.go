package numeric

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestLambertW0KnownValues(t *testing.T) {
	tests := []struct {
		name string
		x    float64
		want float64
	}{
		{"zero", 0, 0},
		{"one", 1, 0.5671432904097838}, // Omega constant
		{"e", math.E, 1},
		{"branch point", -1 / math.E, -1},
		{"2e^2", 2 * math.Exp(2), 2},
		{"10e^10", 10 * math.Exp(10), 10},
		{"small positive", 1e-9, 1e-9 * (1 - 1e-9)},
		{"near branch", -0.367879, -0.998452},
		{"negative interior", -0.2, -0.2591711018190738},
		{"large", 1e12, 24.43500440493456},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := LambertW0(tc.x)
			if err != nil {
				t.Fatalf("LambertW0(%g) error: %v", tc.x, err)
			}
			if !AlmostEqual(got, tc.want, 1e-6, 1e-6) {
				t.Errorf("LambertW0(%g) = %.12g, want %.12g", tc.x, got, tc.want)
			}
		})
	}
}

func TestLambertW0Domain(t *testing.T) {
	for _, x := range []float64{-1, -0.5, math.Inf(-1)} {
		if _, err := LambertW0(x); !errors.Is(err, ErrLambertWDomain) {
			t.Errorf("LambertW0(%g): want ErrLambertWDomain, got %v", x, err)
		}
	}
	if _, err := LambertW0(math.NaN()); !errors.Is(err, ErrLambertWDomain) {
		t.Errorf("LambertW0(NaN): want ErrLambertWDomain, got %v", err)
	}
}

func TestLambertW0Inf(t *testing.T) {
	got, err := LambertW0(math.Inf(1))
	if err != nil || !math.IsInf(got, 1) {
		t.Errorf("LambertW0(+Inf) = %g, %v; want +Inf, nil", got, err)
	}
}

// TestLambertW0DefiningEquation property-tests w*e^w == x across the domain.
func TestLambertW0DefiningEquation(t *testing.T) {
	check := func(raw float64) bool {
		// Map an arbitrary float into the domain [-1/e, ~1e15).
		x := -1/math.E + math.Abs(math.Mod(raw, 30))*math.Exp(math.Mod(raw, 30))
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		w, err := LambertW0(x)
		if err != nil {
			return false
		}
		back := w * math.Exp(w)
		return AlmostEqual(back, x, 1e-10, 1e-9)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestLambertW0Monotone checks W0 is increasing on its domain.
func TestLambertW0Monotone(t *testing.T) {
	prev := math.Inf(-1)
	for step := 1e-6; step < 1e6; step *= 1.7 {
		x := -1/math.E + step
		w, err := LambertW0(x)
		if err != nil {
			t.Fatalf("LambertW0(%g): %v", x, err)
		}
		if w < prev-1e-12 {
			t.Fatalf("W0 not monotone at x=%g: %g < %g", x, w, prev)
		}
		prev = w
	}
}

func TestLambertWm1KnownValues(t *testing.T) {
	tests := []struct{ x, want float64 }{
		{-1 / math.E, -1},
		{-math.Ln2 / 2, -2 * math.Ln2},
		{-2 * math.Exp(-2), -2},
		{-10 * math.Exp(-10), -10},
		{-40 * math.Exp(-40), -40},
	}
	for _, tc := range tests {
		got, err := LambertWm1(tc.x)
		if err != nil {
			t.Fatalf("LambertWm1(%g) error: %v", tc.x, err)
		}
		if !AlmostEqual(got, tc.want, 1e-13, 1e-13) {
			t.Errorf("LambertWm1(%g) = %.17g, want %.17g", tc.x, got, tc.want)
		}
	}
}

func TestLambertWm1Domain(t *testing.T) {
	for _, x := range []float64{-0.5, -1/math.E - 1e-9, 0, 1, math.NaN()} {
		if _, err := LambertWm1(x); !errors.Is(err, ErrLambertWDomain) {
			t.Errorf("LambertWm1(%g): want ErrLambertWDomain, got %v", x, err)
		}
	}
}

// TestLambertWm1DefiningEquation checks w*e^w == x and w <= -1 on an
// increasing grid dense at both ends of [-1/e, 0), and that W-1 decreases
// along it.
func TestLambertWm1DefiningEquation(t *testing.T) {
	var xs []float64
	for k := 0; k <= 280; k++ {
		xs = append(xs, -1/math.E+math.Pow(10, -15+0.05*float64(k)))
	}
	for e := 1; e <= 300; e += 7 {
		xs = append(xs, -math.Pow(10, -float64(e)))
	}
	prev := -1.0
	for _, x := range xs {
		w, err := LambertWm1(x)
		if err != nil {
			t.Fatalf("LambertWm1(%g): %v", x, err)
		}
		if w > -1 || w > prev+1e-12 {
			t.Fatalf("LambertWm1(%g) = %g: off branch or not decreasing (prev %g)", x, w, prev)
		}
		prev = w
		if back := w * math.Exp(w); !AlmostEqual(back, x, 0, 1e-13) {
			t.Errorf("LambertWm1(%g) = %.17g: w*e^w = %.17g", x, w, back)
		}
	}
}

func BenchmarkLambertW0(b *testing.B) {
	xs := []float64{-0.3, 0.1, 1, 10, 1e4, 1e8}
	var sink float64
	for i := 0; i < b.N; i++ {
		w, _ := LambertW0(xs[i%len(xs)])
		sink += w
	}
	_ = sink
}

// TestLambertW0Winitzki checks the two-step evaluation against LambertW0
// from -1/4 to 1e12, to the 2e-15 relative that its doc comment promises.
func TestLambertW0Winitzki(t *testing.T) {
	for e := -6.0; e <= 12; e += 0.01 {
		for _, x := range []float64{math.Pow(10, e), -0.25 * math.Pow(10, -e)} {
			if x < -0.25 {
				continue
			}
			want, err := LambertW0(x)
			if err != nil {
				t.Fatal(err)
			}
			if got := LambertW0Winitzki(x); math.Abs(got-want) > 2e-15*math.Abs(want) {
				t.Errorf("x=%g: %.17g, LambertW0 %.17g", x, got, want)
			}
		}
	}
}
