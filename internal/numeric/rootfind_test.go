package numeric

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestBisect(t *testing.T) {
	tests := []struct {
		name   string
		f      func(float64) float64
		lo, hi float64
		want   float64
	}{
		{"linear", func(x float64) float64 { return x - 3 }, 0, 10, 3},
		{"cubic", func(x float64) float64 { return x*x*x - 2 }, 0, 2, math.Cbrt(2)},
		{"cosine", math.Cos, 0, 3, math.Pi / 2},
		{"root at lo", func(x float64) float64 { return x }, 0, 5, 0},
		{"root at hi", func(x float64) float64 { return x - 5 }, 0, 5, 5},
		{"reversed interval", func(x float64) float64 { return x - 3 }, 10, 0, 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Bisect(tc.f, tc.lo, tc.hi, 1e-12)
			if err != nil {
				t.Fatalf("Bisect: %v", err)
			}
			if !AlmostEqual(got, tc.want, 1e-9, 1e-9) {
				t.Errorf("Bisect = %g, want %g", got, tc.want)
			}
		})
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, -1, 1, 1e-9); !errors.Is(err, ErrNoBracket) {
		t.Errorf("want ErrNoBracket, got %v", err)
	}
}

func TestBisectDecreasing(t *testing.T) {
	f := func(x float64) float64 { return 7 - x }
	got, err := BisectDecreasing(f, 0, 100, 1e-10)
	if err != nil {
		t.Fatalf("BisectDecreasing: %v", err)
	}
	if !AlmostEqual(got, 7, 1e-8, 1e-8) {
		t.Errorf("got %g, want 7", got)
	}
}

func TestBisectDecreasingFlat(t *testing.T) {
	// Step function: +1 below 2, -1 above; root anywhere in the jump.
	f := func(x float64) float64 {
		if x < 2 {
			return 1
		}
		return -1
	}
	got, err := BisectDecreasing(f, 0, 10, 1e-10)
	if err != nil {
		t.Fatalf("BisectDecreasing: %v", err)
	}
	if math.Abs(got-2) > 1e-8 {
		t.Errorf("got %g, want 2", got)
	}
}

func TestBisectDecreasingAllNegative(t *testing.T) {
	f := func(x float64) float64 { return -1 - x }
	got, err := BisectDecreasing(f, 0, 10, 1e-10)
	if !errors.Is(err, ErrNoBracket) {
		t.Fatalf("want ErrNoBracket, got %v", err)
	}
	if got != 0 {
		t.Errorf("should return lo endpoint, got %g", got)
	}
}

func TestBracketUp(t *testing.T) {
	hi, err := BracketUp(func(x float64) bool { return x >= 1000 }, 1, 60)
	if err != nil {
		t.Fatalf("BracketUp: %v", err)
	}
	if hi < 1000 {
		t.Errorf("BracketUp returned %g < 1000", hi)
	}
	if _, err := BracketUp(func(float64) bool { return false }, 1, 10); !errors.Is(err, ErrMaxIterations) {
		t.Errorf("want ErrMaxIterations, got %v", err)
	}
}

func TestBrentMatchesBisect(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(x) - 5 }
	b1, err1 := Brent(f, 0, 5, 1e-12)
	b2, err2 := Bisect(f, 0, 5, 1e-12)
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v %v", err1, err2)
	}
	if !AlmostEqual(b1, b2, 1e-8, 1e-8) {
		t.Errorf("Brent %g != Bisect %g", b1, b2)
	}
}

// TestBrentBracketedSkipsEnds checks that BrentBracketed, handed the end
// values, returns Brent's root bit for bit with two evaluations fewer.
func TestBrentBracketedSkipsEnds(t *testing.T) {
	var calls int
	f := func(x float64) float64 { calls++; return math.Exp(x) - 5 }
	want, err := Brent(f, 0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	full := calls
	calls = 0
	got, err := BrentBracketed(f, 0, 5, math.Exp(0)-5, math.Exp(5)-5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || calls != full-2 {
		t.Errorf("BrentBracketed %.17g in %d evaluations, Brent %.17g in %d", got, calls, want, full)
	}
	if _, err := BrentBracketed(f, 0, 5, 1, 2, 0); !errors.Is(err, ErrNoBracket) {
		t.Errorf("same-sign ends: want ErrNoBracket, got %v", err)
	}
}

func TestBrentPropertyRandomPolynomials(t *testing.T) {
	check := func(a, b, r float64) bool {
		r = math.Mod(math.Abs(r), 10)
		a = math.Mod(math.Abs(a), 5) + 0.1
		f := func(x float64) float64 { return a * (x - r) * (x*x + 1) }
		got, err := Brent(f, -11, 11, 1e-13)
		if err != nil {
			return false
		}
		return AlmostEqual(got, r, 1e-7, 1e-7)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNewton1D(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	df := func(x float64) float64 { return 2 * x }
	got, err := Newton1D(f, df, 1, 0, 2, 1e-13)
	if err != nil {
		t.Fatalf("Newton1D: %v", err)
	}
	if !AlmostEqual(got, math.Sqrt2, 1e-9, 1e-9) {
		t.Errorf("got %g, want sqrt(2)", got)
	}
}

func TestNewton1DSafeguard(t *testing.T) {
	// A function whose Newton steps from x0=0.01 would overshoot wildly.
	f := func(x float64) float64 { return math.Atan(x - 4) }
	df := func(x float64) float64 { d := x - 4; return 1 / (1 + d*d) }
	got, err := Newton1D(f, df, 0.01, 0, 100, 1e-12)
	if err != nil {
		t.Fatalf("Newton1D: %v", err)
	}
	if !AlmostEqual(got, 4, 1e-8, 1e-8) {
		t.Errorf("got %g, want 4", got)
	}
}

// illinois runs IllinoisDecreasing on f over [lo, hi], counting the
// evaluations it makes beyond the two known end values.
func illinois(t *testing.T, f func(float64) float64, lo, hi, tol float64) (float64, float64, int) {
	t.Helper()
	evals := 0
	counted := func(x float64) float64 {
		if !(x > lo && x < hi) {
			t.Fatalf("evaluated f(%g) outside the open bracket (%g, %g)", x, lo, hi)
		}
		evals++
		return f(x)
	}
	a, b, err := IllinoisDecreasing(counted, lo, hi, f(lo), f(hi), tol)
	if err != nil {
		t.Fatal(err)
	}
	if !(f(a) > 0) || !(f(b) <= 0) || !(b-a <= tol || f(b) == 0) {
		t.Fatalf("final bracket [%g, %g] f=(%g, %g) with tol %g", a, b, f(a), f(b), tol)
	}
	return a, b, evals
}

func TestIllinoisDecreasingSmooth(t *testing.T) {
	// A demand-like curve in log price: log of a power-law share plus a
	// fixed floor, relative to the budget. Smooth, convex and decreasing.
	f := func(x float64) float64 { return math.Log((math.Exp(-x/2) + 1) / 2.5) }
	lo, hi, evals := illinois(t, f, -10, 10, 1e-10)
	if root := -2 * math.Log(1.5); root < lo || root > hi {
		t.Errorf("bracket [%g, %g] misses the root %g", lo, hi, root)
	}
	if evals > 12 {
		t.Errorf("smooth root took %d evaluations, want <= 12", evals)
	}
}

// TestIllinoisDecreasingClosesPastRoot counts evaluations on convex
// roots, where regula falsi keeps landing on the hi side: once a point
// falls within tol/2 of an end, the next one is placed past the root and
// closes the bracket.
func TestIllinoisDecreasingClosesPastRoot(t *testing.T) {
	for _, c := range []struct {
		name   string
		f      func(float64) float64
		lo, hi float64
		tol    float64
		want   int
	}{
		{"exp", func(x float64) float64 { return math.Exp(-x) - 1 }, -1, 3, 1e-7, 9},
		{"exp", func(x float64) float64 { return math.Exp(-x) - 1 }, -0.5, 1.5, 1e-9, 8},
		{"log power", func(x float64) float64 { return math.Log((math.Exp(-x/2) + 1) / 2.5) }, -1, 3, 1e-5, 5},
		{"cubic", func(x float64) float64 { return 0.3 - x - x*x*x }, -1, 3, 1e-9, 16},
	} {
		if _, _, evals := illinois(t, c.f, c.lo, c.hi, c.tol); evals > c.want {
			t.Errorf("%s on [%g, %g] tol %g: %d evaluations, want <= %d", c.name, c.lo, c.hi, c.tol, evals, c.want)
		}
	}
}

func TestIllinoisDecreasingStep(t *testing.T) {
	// A pure jump at 0.3: no root, the bracket must close on the jump.
	f := func(x float64) float64 {
		if x < 0.3 {
			return 1
		}
		return -1
	}
	lo, hi, evals := illinois(t, f, -5, 5, 1e-9)
	if lo >= 0.3 || hi < 0.3 {
		t.Errorf("bracket [%g, %g] misses the jump at 0.3", lo, hi)
	}
	// Never worse than four times bisection's 34 steps.
	if evals > 4*34 {
		t.Errorf("step took %d evaluations", evals)
	}
}

func TestIllinoisDecreasingFlat(t *testing.T) {
	// Zero on a flat segment [1, 2]: the first evaluation inside it ends
	// the search, and that point becomes the hi end.
	f := func(x float64) float64 { return math.Max(1-x, 0) - math.Max(x-2, 0) }
	lo, hi, _ := illinois(t, f, -3, 7, 1e-12)
	if f(hi) != 0 || hi < 1 || hi > 2 {
		t.Errorf("hi end %g (f=%g) not on the flat zero segment", hi, f(hi))
	}
	if lo >= hi {
		t.Errorf("bracket reversed: [%g, %g]", lo, hi)
	}
	// A flat positive shoulder before the crossing still converges.
	g := func(x float64) float64 {
		if x < 3 {
			return 1
		}
		return 3.5 - x
	}
	lo, hi, _ = illinois(t, g, 0, 10, 1e-9)
	if lo > 3.5 || hi < 3.5 {
		t.Errorf("bracket [%g, %g] misses the root 3.5", lo, hi)
	}
}

func TestIllinoisDecreasingNoBracket(t *testing.T) {
	f := func(x float64) float64 { return 1 - x }
	never := func(float64) float64 { t.Fatal("evaluated without a bracket"); return 0 }
	for _, c := range []struct{ lo, hi float64 }{{2, 3}, {-3, -2}, {1, 2}, {3, -3}} {
		if _, _, err := IllinoisDecreasing(never, c.lo, c.hi, f(c.lo), f(c.hi), 1e-9); !errors.Is(err, ErrNoBracket) {
			t.Errorf("[%g, %g]: want ErrNoBracket, got %v", c.lo, c.hi, err)
		}
	}
}
