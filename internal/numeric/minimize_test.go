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
	got, err := GridRefineMin(f, nil, -10, 10, 30, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(got, 4, 1e-4, 1e-4) {
		t.Errorf("got %g, want 4", got)
	}
	// Unimodal: agrees with golden section.
	g := func(x float64) float64 { return (x - 1.5) * (x - 1.5) }
	got, err = GridRefineMin(g, nil, -5, 5, 10, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(got, 1.5, 1e-6, 1e-6) {
		t.Errorf("unimodal: got %g", got)
	}
	// Reversed interval errors.
	if _, err := GridRefineMin(g, nil, 5, -5, 10, 1e-9); err == nil {
		t.Error("want error on reversed interval")
	}
	// Boundary minimum.
	got, _ = GridRefineMin(func(x float64) float64 { return x }, nil, 2, 9, 8, 1e-9)
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
				got, err := GridRefineMin(counted, nil, sh.lo, sh.hi, gridN, tol)
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
				got, err := GridBrentMin(sh.f, nil, sh.lo, sh.hi, gridN, tol)
				if err != nil {
					t.Fatalf("%s: %v", sh.name, err)
				}
				if got < sh.wantLo-tol || got > sh.wantHi+tol {
					t.Errorf("%s gridN=%d tol=%g: argmin %.12g outside [%g, %g] by more than tol",
						sh.name, gridN, tol, got, sh.wantLo, sh.wantHi)
				}
				golden, _ := GridRefineMin(sh.f, nil, sh.lo, sh.hi, gridN, tol)
				if cell := (sh.hi - sh.lo) / float64(gridN-1); math.Abs(got-golden) > cell {
					t.Errorf("%s gridN=%d tol=%g: argmin %g, GridRefineMin's %g in another basin", sh.name, gridN, tol, got, golden)
				}
			}
		}
	}
	if _, err := GridBrentMin(math.Abs, nil, 5, -5, 10, 1e-9); err == nil {
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
				if _, err := GridBrentMin(counted, nil, sh.lo, sh.hi, gridN, tol); err != nil {
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
				_, _ = GridRefineMin(func(x float64) float64 { golden++; return sh.f(x) }, nil, sh.lo, sh.hi, gridN, tol)
				if 2*len(seen) > golden {
					t.Errorf("%s gridN=%d: %d evaluations, golden section %d", sh.name, gridN, len(seen), golden)
				}
			}
		}
	}
}

// boundedCase builds, from seed, a multimodal f on [lo, hi] and a lower
// bound lb <= f whose shape kind picks: lb = f (every tie skipped), f less
// a nonnegative slack, f less its amplitude (a cheap floor, like the
// deadline split cost's), -Inf, or NaN. f may carry +Inf walls (where
// every bound is +Inf or below), NaN points, plateaus of tied values, and
// a tilt that puts its minimum at either end.
func boundedCase(seed int64, kind int, lo, hi float64) (f, lb func(float64) float64) {
	rng := rand.New(rand.NewSource(seed))
	var amp, freq, phase [3]float64
	var ampSum float64
	for j := range amp {
		amp[j], freq[j], phase[j] = rng.Float64(), 1+40*rng.Float64(), 2*math.Pi*rng.Float64()
		ampSum += amp[j]
	}
	tilt, curve := rng.NormFloat64(), rng.NormFloat64()
	if rng.Intn(3) == 0 {
		tilt *= 20 // the minimum sits at an end
	}
	step := 0.0
	if rng.Intn(2) == 0 {
		step = 0.05 + rng.Float64() // plateaus: many grid points tie
	}
	wallLo, wallHi := 2.0, 2.0
	if rng.Intn(2) == 0 {
		wallLo = rng.Float64()
		wallHi = wallLo + 0.5*rng.Float64()
	}
	nanAt := -1.0
	if rng.Intn(4) == 0 {
		nanAt = rng.Float64()
	}
	unit := func(x float64) float64 {
		if hi == lo {
			return 0
		}
		return (x - lo) / (hi - lo)
	}
	f = func(x float64) float64 {
		u := unit(x)
		switch {
		case u >= wallLo && u <= wallHi:
			return math.Inf(1)
		case math.Abs(u-nanAt) < 0.05:
			return math.NaN()
		}
		v := tilt*u + curve*u*u
		for j := range amp {
			v += amp[j] * math.Sin(freq[j]*u+phase[j])
		}
		if step > 0 {
			v = step * math.Floor(v/step)
		}
		return v
	}
	switch kind % 5 {
	case 0:
		lb = f
	case 1:
		lb = func(x float64) float64 { return f(x) - math.Abs(math.Sin(7*unit(x)+phase[0])) }
	case 2:
		lb = func(x float64) float64 {
			u := unit(x)
			if u >= wallLo && u <= wallHi {
				return math.Inf(1)
			}
			return tilt*u + curve*u*u - ampSum - step
		}
	case 3:
		lb = func(float64) float64 { return math.Inf(-1) }
	default:
		lb = func(float64) float64 { return math.NaN() }
	}
	return f, lb
}

// sameBits reports whether a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkBoundedScan holds the bounded scan and both refiners to their
// unbounded selves on f: the same gridCell and argmins bit for bit, and
// only points the unbounded run evaluates, no more often.
func checkBoundedScan(t testing.TB, f, lb func(float64) float64, lo, hi float64, gridN int) {
	t.Helper()
	counted := func(seen map[float64]int) func(float64) float64 {
		return func(x float64) float64 { seen[x]++; return f(x) }
	}
	subset := func(name string, plain, bounded map[float64]int) {
		for x, c := range bounded {
			if c > plain[x] {
				t.Errorf("%s: f(%g) evaluated %d times bounded, %d unbounded", name, x, c, plain[x])
			}
		}
	}
	plain, bounded := map[float64]int{}, map[float64]int{}
	want := scanGrid(counted(plain), nil, lo, hi, gridN)
	got := scanGrid(counted(bounded), lb, lo, hi, gridN)
	if !sameBits([]float64{got.x, got.fx, got.lo, got.hi, got.flo, got.fhi},
		[]float64{want.x, want.fx, want.lo, want.hi, want.flo, want.fhi}) {
		t.Errorf("scanGrid [%g, %g] gridN=%d: bounded %+v, unbounded %+v", lo, hi, gridN, got, want)
	}
	subset("scanGrid", plain, bounded)
	for _, tol := range []float64{1e-9 * (hi - lo), 1e-3 * (hi - lo)} {
		for _, m := range []struct {
			name string
			min  func(f, lb func(float64) float64, lo, hi float64, gridN int, tol float64) (float64, error)
		}{{"GridRefineMin", GridRefineMin}, {"GridBrentMin", GridBrentMin}} {
			plain, bounded := map[float64]int{}, map[float64]int{}
			want, _ := m.min(counted(plain), nil, lo, hi, gridN, tol)
			got, _ := m.min(counted(bounded), lb, lo, hi, gridN, tol)
			if !sameBits([]float64{got}, []float64{want}) {
				t.Errorf("%s [%g, %g] gridN=%d tol=%g: bounded argmin %g, unbounded %g", m.name, lo, hi, gridN, tol, got, want)
			}
			subset(m.name, plain, bounded)
		}
	}
}

// TestScanGridBound property-tests the bounded scan on 2,000 seeded
// multimodal functions under every bound shape, on grids of 3 to 40
// points: same cells and argmins as unbounded, fewer evaluations. The
// exact bound skips most of a scan's points on these shapes.
func TestScanGridBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var plainEvals, exactEvals int
	for k := 0; k < 2000; k++ {
		lo := 100 * rng.NormFloat64()
		hi := lo + math.Abs(10*rng.NormFloat64())
		gridN := 3 + rng.Intn(38)
		seed := rng.Int63()
		for kind := 0; kind < 5; kind++ {
			f, lb := boundedCase(seed, kind, lo, hi)
			checkBoundedScan(t, f, lb, lo, hi, gridN)
		}
		f, lb := boundedCase(seed, 0, lo, hi)
		scanGrid(func(x float64) float64 { plainEvals++; return f(x) }, nil, lo, hi, gridN)
		scanGrid(func(x float64) float64 { exactEvals++; return f(x) }, lb, lo, hi, gridN)
	}
	if 2*exactEvals > plainEvals {
		t.Errorf("the exact bound kept %d of %d scan evaluations, want at most half", exactEvals, plainEvals)
	}
	t.Logf("the exact bound kept %d of %d scan evaluations", exactEvals, plainEvals)
	// A degenerate interval: every grid point is lo.
	f, lb := boundedCase(7, 0, 3, 3)
	checkBoundedScan(t, f, lb, 3, 3, 5)
}

// FuzzScanGridBound runs checkBoundedScan on fuzzed intervals, grids,
// functions and bound shapes.
func FuzzScanGridBound(f *testing.F) {
	f.Add(int64(1), uint8(24), 0.0, 1.0, uint8(0))
	f.Add(int64(2), uint8(3), -5.0, 10.0, uint8(1))
	f.Add(int64(3), uint8(8), 1e-3, 1e-9, uint8(2))
	f.Add(int64(4), uint8(40), 1e6, 0.0, uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, grid uint8, lo, width float64, kind uint8) {
		if math.IsNaN(lo) || math.IsNaN(width) || math.Abs(lo) > 1e12 || !(math.Abs(width) <= 1e12) {
			t.Skip()
		}
		fn, lb := boundedCase(seed, int(kind), lo, lo+math.Abs(width))
		checkBoundedScan(t, fn, lb, lo, lo+math.Abs(width), 3+int(grid)%48)
	})
}
