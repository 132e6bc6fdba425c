package numeric

import (
	"math"
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

func TestMinimizeConvex1D(t *testing.T) {
	df := func(x float64) float64 { return 2 * (x - 3) }
	if got := MinimizeConvex1D(df, -10, 10, 1e-12); !AlmostEqual(got, 3, 1e-8, 1e-8) {
		t.Errorf("interior: got %g, want 3", got)
	}
	if got := MinimizeConvex1D(df, 5, 10, 1e-12); got != 5 {
		t.Errorf("min at lo: got %g, want 5", got)
	}
	if got := MinimizeConvex1D(df, -10, 0, 1e-12); got != 0 {
		t.Errorf("min at hi: got %g, want 0", got)
	}
}

func TestGridRefineMin(t *testing.T) {
	// Bimodal: basins at x=-3 (depth 1) and x=4 (depth 2). Plain golden from
	// the full interval can land in the wrong basin; the grid must not.
	f := func(x float64) float64 {
		a := (x+3)*(x+3) - 1
		b := (x-4)*(x-4) - 2
		return math.Min(a, b)
	}
	got, err := GridRefineMin(f, -10, 10, 30, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(got, 4, 1e-4, 1e-4) {
		t.Errorf("got %g, want 4", got)
	}
	// Unimodal: agrees with golden section.
	g := func(x float64) float64 { return (x - 1.5) * (x - 1.5) }
	got, err = GridRefineMin(g, -5, 5, 10, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(got, 1.5, 1e-6, 1e-6) {
		t.Errorf("unimodal: got %g", got)
	}
	// Reversed interval errors.
	if _, err := GridRefineMin(g, 5, -5, 10, 1e-9); err == nil {
		t.Error("want error on reversed interval")
	}
	// Boundary minimum.
	got, _ = GridRefineMin(func(x float64) float64 { return x }, 2, 9, 8, 1e-9)
	if got != 2 {
		t.Errorf("boundary: got %g", got)
	}
}

// gridRefineMinReference is GridRefineMin as first written: a grid scan,
// then the public GoldenSection on the best cell and one more evaluation of
// its answer. It re-evaluates the cell ends, the golden endpoints and the
// answer.
func gridRefineMinReference(f func(float64) float64, lo, hi float64, gridN int, tol float64) float64 {
	bestX, bestF := lo, f(lo)
	bestK := 0
	for k := 1; k < gridN; k++ {
		x := lo + (hi-lo)*float64(k)/float64(gridN-1)
		if v := f(x); v < bestF {
			bestX, bestF, bestK = x, v, k
		}
	}
	cellLo := lo + (hi-lo)*float64(max(bestK-1, 0))/float64(gridN-1)
	cellHi := lo + (hi-lo)*float64(min(bestK+1, gridN-1))/float64(gridN-1)
	x, _ := GoldenSection(f, cellLo, cellHi, tol)
	if f(x) <= bestF {
		return x
	}
	return bestX
}

// TestGridRefineMinEvaluatesEachPointOnce counts evaluations: no point is
// evaluated twice, and the argmin is bit-identical to the re-evaluating
// reference on every minimise test shape, grid size and tolerance.
func TestGridRefineMinEvaluatesEachPointOnce(t *testing.T) {
	shapes := []struct {
		name   string
		f      func(float64) float64
		lo, hi float64
	}{
		{"parabola", func(x float64) float64 { return (x - 2) * (x - 2) }, -10, 10},
		{"quartic", func(x float64) float64 { return math.Pow(x-1, 4) }, -5, 5},
		{"abs", func(x float64) float64 { return math.Abs(x + 3) }, -10, 10},
		{"min at lo", func(x float64) float64 { return x }, 0, 5},
		{"min at hi", func(x float64) float64 { return -x }, 0, 5},
		{"exp plus linear", func(x float64) float64 { return math.Exp(x) - 2*x }, -2, 4},
		{"bimodal", func(x float64) float64 { return math.Min((x+3)*(x+3)-1, (x-4)*(x-4)-2) }, -10, 10},
		{"plateau", func(x float64) float64 { return math.Max(math.Abs(x)-1, 0) }, -4, 4},
	}
	for _, sh := range shapes {
		for _, gridN := range []int{3, 8, 24} {
			for _, tol := range []float64{1e-3, 1e-9, 100} {
				seen := map[float64]int{}
				counted := func(x float64) float64 { seen[x]++; return sh.f(x) }
				got, err := GridRefineMin(counted, sh.lo, sh.hi, gridN, tol)
				if err != nil {
					t.Fatalf("%s: %v", sh.name, err)
				}
				for x, c := range seen {
					if c > 1 {
						t.Errorf("%s gridN=%d tol=%g: f(%g) evaluated %d times", sh.name, gridN, tol, x, c)
					}
				}
				if want := gridRefineMinReference(sh.f, sh.lo, sh.hi, gridN, tol); got != want {
					t.Errorf("%s gridN=%d tol=%g: argmin %g, reference %g", sh.name, gridN, tol, got, want)
				}
			}
		}
	}
}

// brentShapes are the minimise test shapes with their sets of minimizers
// [wantLo, wantHi]; smooth marks the ones with a smooth basin.
var brentShapes = []struct {
	name           string
	f              func(float64) float64
	lo, hi         float64
	wantLo, wantHi float64
	smooth         bool
}{
	{"parabola", func(x float64) float64 { return (x - 2) * (x - 2) }, -10, 10, 2, 2, true},
	{"quartic", func(x float64) float64 { return math.Pow(x-1, 4) }, -5, 5, 1, 1, true},
	{"abs", func(x float64) float64 { return math.Abs(x + 3) }, -10, 10, -3, -3, false},
	{"min at lo", func(x float64) float64 { return x }, 0, 5, 0, 0, false},
	{"min at hi", func(x float64) float64 { return -x }, 0, 5, 5, 5, false},
	{"exp plus linear", func(x float64) float64 { return math.Exp(x) - 2*x }, -2, 4, math.Ln2, math.Ln2, true},
	{"bimodal", func(x float64) float64 { return math.Min((x+3)*(x+3)-1, (x-4)*(x-4)-2) }, -10, 10, 4, 4, false},
	{"plateau", func(x float64) float64 { return math.Max(math.Abs(x)-1, 0) }, -4, 4, -1, 1, false},
}

// TestGridBrentMin checks the parabolic refiner against each shape's
// minimizers, and that it settles in the basin GridRefineMin picks: the
// grid scan they share chooses the cell.
func TestGridBrentMin(t *testing.T) {
	for _, sh := range brentShapes {
		for _, gridN := range []int{8, 24} {
			for _, tol := range []float64{1e-3, 1e-6} {
				got, err := GridBrentMin(sh.f, sh.lo, sh.hi, gridN, tol)
				if err != nil {
					t.Fatalf("%s: %v", sh.name, err)
				}
				if got < sh.wantLo-tol || got > sh.wantHi+tol {
					t.Errorf("%s gridN=%d tol=%g: argmin %.12g outside [%g, %g] by more than tol",
						sh.name, gridN, tol, got, sh.wantLo, sh.wantHi)
				}
				golden, _ := GridRefineMin(sh.f, sh.lo, sh.hi, gridN, tol)
				if cell := (sh.hi - sh.lo) / float64(gridN-1); math.Abs(got-golden) > cell {
					t.Errorf("%s gridN=%d tol=%g: argmin %g, GridRefineMin's %g in another basin", sh.name, gridN, tol, got, golden)
				}
			}
		}
	}
	if _, err := GridBrentMin(math.Abs, 5, -5, 10, 1e-9); err == nil {
		t.Error("want error on reversed interval")
	}
}

// TestGridBrentMinEvaluations counts evaluations: no point is evaluated
// twice, and on the smooth shapes at tol 1e-9 the parabolic refiner needs
// at most half of golden section's evaluations. The count is compared on
// grids of 3 and 8 points, where the refinement rather than the scan
// dominates it.
func TestGridBrentMinEvaluations(t *testing.T) {
	for _, sh := range brentShapes {
		for _, gridN := range []int{3, 8, 24} {
			for _, tol := range []float64{1e-3, 1e-9, 100} {
				seen := map[float64]int{}
				counted := func(x float64) float64 { seen[x]++; return sh.f(x) }
				if _, err := GridBrentMin(counted, sh.lo, sh.hi, gridN, tol); err != nil {
					t.Fatalf("%s: %v", sh.name, err)
				}
				for x, c := range seen {
					if c > 1 {
						t.Errorf("%s gridN=%d tol=%g: f(%g) evaluated %d times", sh.name, gridN, tol, x, c)
					}
				}
				if !sh.smooth || tol != 1e-9 || gridN == 24 {
					continue
				}
				golden := 0
				_, _ = GridRefineMin(func(x float64) float64 { golden++; return sh.f(x) }, sh.lo, sh.hi, gridN, tol)
				if 2*len(seen) > golden {
					t.Errorf("%s gridN=%d: %d evaluations, golden section %d", sh.name, gridN, len(seen), golden)
				}
			}
		}
	}
}
