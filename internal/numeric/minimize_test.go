package numeric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGoldenSection(t *testing.T) {
	tests := []struct {
		name   string
		f      func(float64) float64
		lo, hi float64
		want   float64
	}{
		{"parabola", func(x float64) float64 { return (x - 2) * (x - 2) }, -10, 10, 2},
		// The quartic's basin is flat to double precision within ~1e-4 of
		// the minimizer, so only a loose argument tolerance is meaningful.
		{"quartic", func(x float64) float64 { return math.Pow(x-1, 4) }, -5, 5, 1},
		{"abs", func(x float64) float64 { return math.Abs(x + 3) }, -10, 10, -3},
		{"min at lo", func(x float64) float64 { return x }, 0, 5, 0},
		{"min at hi", func(x float64) float64 { return -x }, 0, 5, 5},
		{"exp plus linear", func(x float64) float64 { return math.Exp(x) - 2*x }, -2, 4, math.Log(2)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := GoldenSection(tc.f, tc.lo, tc.hi, 1e-10)
			if err != nil {
				t.Fatalf("GoldenSection: %v", err)
			}
			if !AlmostEqual(got, tc.want, 1e-3, 1e-3) {
				t.Errorf("got %g, want %g", got, tc.want)
			}
			// The function value at the result must not exceed the value at
			// the analytic minimizer.
			if fGot, fWant := tc.f(got), tc.f(tc.want); fGot > fWant+1e-9*(1+math.Abs(fWant)) {
				t.Errorf("f(got)=%g exceeds f(want)=%g", fGot, fWant)
			}
		})
	}
}

func TestGoldenSectionReversed(t *testing.T) {
	if _, err := GoldenSection(func(x float64) float64 { return x * x }, 5, -5, 1e-9); err == nil {
		t.Error("want error on reversed interval")
	}
}

func TestGoldenSectionDegenerate(t *testing.T) {
	got, err := GoldenSection(func(x float64) float64 { return x * x }, 3, 3, 1e-9)
	if err != nil || got != 3 {
		t.Errorf("degenerate interval: got %g, %v", got, err)
	}
}

// TestGoldenSectionRandomQuadratics property-tests against the analytic
// minimizer of a*(x-m)^2 + c.
func TestGoldenSectionRandomQuadratics(t *testing.T) {
	check := func(a, m, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(m) || math.IsNaN(c) {
			return true
		}
		a = math.Mod(math.Abs(a), 100) + 0.01
		m = math.Mod(m, 50)
		c = math.Mod(c, 100) // keep the offset comparable to the curvature term
		f := func(x float64) float64 { return a*(x-m)*(x-m) + c }
		got, err := GoldenSection(f, -60, 60, 1e-10)
		if err != nil {
			return false
		}
		return AlmostEqual(got, m, 1e-6, 1e-6)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// convexShapes are convex test shapes with their slopes (at a kink, a
// value between the one-sided slopes) and their sets of minimizers
// [wantLo, wantHi]: smooth basins, kinks, minima at either end, and flat
// bottoms inside the interval and against either end; and one ratio,
// (x+1)/log1p(x), whose "slope" is only a nondecreasing function with the
// derivative's sign, log1p(x) - 1 (the derivative times log1p(x)^2), as
// the TDMA power search's is. simple marks a slope with a simple root,
// where the search converges superlinearly.
var convexShapes = []struct {
	name           string
	f, slope       func(float64) float64
	lo, hi         float64
	wantLo, wantHi float64
	simple         bool
}{
	{"parabola", func(x float64) float64 { return (x - 2) * (x - 2) }, func(x float64) float64 { return 2 * (x - 2) }, -10, 10, 2, 2, true},
	{"quartic", func(x float64) float64 { return math.Pow(x-1, 4) }, func(x float64) float64 { return 4 * math.Pow(x-1, 3) }, -5, 5, 1, 1, false},
	{"abs", func(x float64) float64 { return math.Abs(x + 3) }, sign(-3), -10, 10, -3, -3, false},
	{"min at lo", func(x float64) float64 { return x }, func(float64) float64 { return 1 }, 0, 5, 0, 0, false},
	{"min at hi", func(x float64) float64 { return -x }, func(float64) float64 { return -1 }, 0, 5, 5, 5, false},
	{"steep toward lo", func(x float64) float64 { return 1/(x*x*x) + x }, func(x float64) float64 { return 1 - 3/(x*x*x*x) }, 1e-3, 100, math.Pow(3, 0.25), math.Pow(3, 0.25), true},
	{"exp plus linear", func(x float64) float64 { return math.Exp(x) - 2*x }, func(x float64) float64 { return math.Exp(x) - 2 }, -2, 4, math.Ln2, math.Ln2, true},
	{"ratio, sign only", func(x float64) float64 { return (x + 1) / math.Log1p(x) }, func(x float64) float64 { return math.Log1p(x) - 1 }, 1e-3, 20, math.E - 1, math.E - 1, true},
	{"plateau", func(x float64) float64 { return math.Max(math.Abs(x)-1, 0) }, plateauSlope(-1, 1), -4, 4, -1, 1, false},
	{"flat at lo", func(x float64) float64 { return math.Max(x-1, 0) }, plateauSlope(-4, 1), -4, 4, -4, 1, false},
	{"flat at hi", func(x float64) float64 { return math.Max(-2-x, 0) }, plateauSlope(-2, 4), -4, 4, -2, 4, false},
}

// sign is the slope of |x - at|: -1, 0 at the kink, +1.
func sign(at float64) func(float64) float64 {
	return func(x float64) float64 {
		switch {
		case x < at:
			return -1
		case x > at:
			return 1
		}
		return 0
	}
}

// plateauSlope is the slope of max(a - x, 0) + max(x - b, 0): -1 below a,
// 0 on [a, b], +1 above b.
func plateauSlope(a, b float64) func(float64) float64 {
	return func(x float64) float64 {
		switch {
		case x < a:
			return -1
		case x > b:
			return 1
		}
		return 0
	}
}

// checkConvexAnswer reports whether x lies within tol (and rounding) of a
// minimizer of the convex function with the given slope on [lo, hi]: the
// slope is at most 0 just below it and at least 0 just above it, an end of
// the interval counting as either.
func checkConvexAnswer(slope func(float64) float64, x, lo, hi, tol float64) bool {
	if !(x >= lo && x <= hi) {
		return false
	}
	d := tol + 8e-16*math.Abs(x)
	below, above := max(lo, x-d), min(hi, x+d)
	return (below == lo || slope(below) <= 0) && (above == hi || slope(above) >= 0)
}

// TestMinimizeConvex checks the slope search on every convex shape from
// either end, the middle and the minimum of its interval, at tolerances
// 1e-3 and 1e-9: the answer lies within tol of the shape's minimizers, it
// is a point whose slope the search evaluated, and a start on a flat
// bottom or within tol of the minimum is returned as it is. Reversed
// intervals and tolerances that are not positive are errors, and an
// interval within tol returns the clamped start unevaluated.
func TestMinimizeConvex(t *testing.T) {
	for _, sh := range convexShapes {
		for _, tol := range []float64{1e-3, 1e-9} {
			for _, from := range []float64{sh.lo, 0.5 * (sh.lo + sh.hi), sh.hi, sh.wantLo, sh.wantHi, sh.hi + 1} {
				seen := map[float64]bool{}
				got, err := MinimizeConvex(func(x float64) float64 { seen[x] = true; return sh.slope(x) }, from, sh.lo, sh.hi, tol)
				if err != nil {
					t.Fatalf("%s: %v", sh.name, err)
				}
				if got < sh.wantLo-tol || got > sh.wantHi+tol || !checkConvexAnswer(sh.slope, got, sh.lo, sh.hi, tol) {
					t.Errorf("%s tol=%g from %g: argmin %.12g, minimizers [%g, %g]", sh.name, tol, from, got, sh.wantLo, sh.wantHi)
				}
				if !seen[got] {
					t.Errorf("%s tol=%g from %g: argmin %.12g was not evaluated", sh.name, tol, from, got)
				}
				if from >= sh.wantLo && from <= sh.wantHi && got != from {
					t.Errorf("%s tol=%g from %g, a minimizer: moved to %.12g", sh.name, tol, from, got)
				}
				again, _ := MinimizeConvex(sh.slope, from, sh.lo, sh.hi, tol)
				if math.Float64bits(again) != math.Float64bits(got) {
					t.Errorf("%s tol=%g from %g: %.17g, then %.17g", sh.name, tol, from, got, again)
				}
			}
		}
	}
	if _, err := MinimizeConvex(sign(0), 0, 5, -5, 1e-9); err == nil {
		t.Error("want an error on a reversed interval")
	}
	if _, err := MinimizeConvex(sign(0), 0, -5, 5, 0); err == nil {
		t.Error("want an error on a zero tolerance")
	}
	evals := 0
	if got, err := MinimizeConvex(func(x float64) float64 { evals++; return x }, 7, 3, 3+1e-10, 1e-9); err != nil || got != 3+1e-10 || evals != 0 {
		t.Errorf("interval within tol: got %g, %v after %d evaluations, want the clamped start unevaluated", got, err, evals)
	}
}

// TestMinimizeConvexEvaluations counts slope evaluations: no point is
// evaluated twice; a start within tol of the minimum costs at most two;
// and at tol 1e-9 a search from either end costs at most what a bisection
// of the interval would (31 to 37) where the slope has a simple root, and
// at most three times that on kinks, flat bottoms and the quartic's triple
// root, where the search falls back to bisection steps or converges only
// linearly.
func TestMinimizeConvexEvaluations(t *testing.T) {
	for _, sh := range convexShapes {
		for _, tol := range []float64{1e-3, 1e-9} {
			for _, from := range []float64{sh.lo, sh.hi, sh.wantLo + 0.4*tol, sh.wantHi - 0.4*tol} {
				seen := map[float64]int{}
				if _, err := MinimizeConvex(func(x float64) float64 { seen[x]++; return sh.slope(x) }, from, sh.lo, sh.hi, tol); err != nil {
					t.Fatalf("%s: %v", sh.name, err)
				}
				n := 0
				for x, c := range seen {
					n += c
					if c > 1 {
						t.Errorf("%s tol=%g from %g: slope(%g) evaluated %d times", sh.name, tol, from, x, c)
					}
				}
				near := math.Abs(from-sh.wantLo) <= tol || math.Abs(from-sh.wantHi) <= tol
				if near && from > sh.lo && from < sh.hi && n > 2 {
					t.Errorf("%s tol=%g from %g, within tol of the minimum: %d evaluations, want at most 2", sh.name, tol, from, n)
				}
				bisect := int(math.Ceil(math.Log2((sh.hi - sh.lo) / tol)))
				if !sh.simple {
					bisect *= 3
				}
				if tol == 1e-9 && (from == sh.lo || from == sh.hi) && n > bisect {
					t.Errorf("%s tol=%g from %g: %d evaluations, want at most %d", sh.name, tol, from, n, bisect)
				}
			}
		}
	}
}

// FuzzMinimizeConvex checks MinimizeConvex on fuzzed convex functions, a
// sum of a parabola, a kink, a flat-bottomed trough, an exponential and a
// tilt, from a fuzzed start: the answer lies within tol of a minimizer.
func FuzzMinimizeConvex(f *testing.F) {
	f.Add(int64(1), 0.3, 0.5, 1e-9)
	f.Add(int64(2), -1.0, 0.0, 1e-6)
	f.Add(int64(3), 0.9, 1.0, 1e-3)
	f.Add(int64(4), 0.5, 0.25, 1e-12)
	f.Fuzz(func(t *testing.T, seed int64, start, width, tol float64) {
		if !(math.Abs(start) <= 10) || !(width >= 0 && width <= 1) || !(tol >= 1e-12 && tol <= 1) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		weight := func() float64 { // 0 a third of the time
			if rng.Intn(3) == 0 {
				return 0
			}
			return rng.ExpFloat64()
		}
		a, kink, at, trough, e, k, tilt := weight(), weight(), rng.NormFloat64(), weight(), weight(), rng.NormFloat64(), 3*rng.NormFloat64()
		m, lo, hi := rng.NormFloat64(), -1-5*rng.Float64(), 1+5*rng.Float64()
		tLo, tHi := at-width, at+width
		slope := func(x float64) float64 {
			s := 2*a*(x-m) + kink*sign(at)(x) + e*k*math.Exp(k*x) + tilt
			switch {
			case x < tLo:
				s -= trough
			case x > tHi:
				s += trough
			}
			return s
		}
		x, err := MinimizeConvex(slope, start, lo, hi, tol)
		if err != nil {
			t.Fatal(err)
		}
		if !checkConvexAnswer(slope, x, lo, hi, tol) {
			t.Errorf("argmin %.17g on [%g, %g] from %g to tol %g: slopes %g below, %g above", x, lo, hi, start, tol, slope(x-tol), slope(x+tol))
		}
	})
}
