package convex

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

func TestMinimizeUnconstrainedQuadratic(t *testing.T) {
	// min (x-3)^2 + (y+1)^2 with loose boxes.
	p := Problem{
		Objective: func(x []float64) float64 {
			return (x[0]-3)*(x[0]-3) + (x[1]+1)*(x[1]+1)
		},
		Gradient: func(x, out []float64) {
			out[0] = 2 * (x[0] - 3)
			out[1] = 2 * (x[1] + 1)
		},
		Lower: []float64{-100, -100},
		Upper: []float64{100, 100},
	}
	x, err := Minimize(p, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 3, 1e-5) || !almostEq(x[1], -1, 1e-5) {
		t.Errorf("x = %v, want [3 -1]", x)
	}
}

func TestMinimizeActiveBox(t *testing.T) {
	// min (x-3)^2 with x <= 1: optimum at the boundary x=1.
	p := Problem{
		Objective: func(x []float64) float64 { return (x[0] - 3) * (x[0] - 3) },
		Gradient:  func(x, out []float64) { out[0] = 2 * (x[0] - 3) },
		Lower:     []float64{-10},
		Upper:     []float64{1},
	}
	x, err := Minimize(p, []float64{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-4) {
		t.Errorf("x = %v, want 1", x)
	}
}

func TestMinimizeWithInequality(t *testing.T) {
	// min x+y s.t. x^2+y^2 <= 2: optimum (-1,-1).
	p := Problem{
		Objective: func(x []float64) float64 { return x[0] + x[1] },
		Gradient:  func(x, out []float64) { out[0], out[1] = 1, 1 },
		Ineqs: []Constraint{{
			F: func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] - 2 },
			Grad: func(x, out []float64) {
				out[0] = 2 * x[0]
				out[1] = 2 * x[1]
			},
		}},
	}
	x, err := Minimize(p, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], -1, 1e-4) || !almostEq(x[1], -1, 1e-4) {
		t.Errorf("x = %v, want [-1 -1]", x)
	}
}

func TestMinimizeCouplingBudget(t *testing.T) {
	// min 1/x + 4/y s.t. x + y <= 3, x,y > 0. Lagrangian: 1/x^2 = 4/y^2 = mu
	// => y = 2x, x = 1, y = 2.
	p := Problem{
		Objective: func(x []float64) float64 { return 1/x[0] + 4/x[1] },
		Gradient: func(x, out []float64) {
			out[0] = -1 / (x[0] * x[0])
			out[1] = -4 / (x[1] * x[1])
		},
		Ineqs: []Constraint{{
			F:    func(x []float64) float64 { return x[0] + x[1] - 3 },
			Grad: func(x, out []float64) { out[0], out[1] = 1, 1 },
		}},
		Lower: []float64{1e-9, 1e-9},
	}
	x, err := Minimize(p, []float64{0.5, 0.5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-3) || !almostEq(x[1], 2, 1e-3) {
		t.Errorf("x = %v, want [1 2]", x)
	}
}

func TestMinimizeRejectsInfeasibleStart(t *testing.T) {
	p := Problem{
		Objective: func(x []float64) float64 { return x[0] },
		Gradient:  func(x, out []float64) { out[0] = 1 },
		Lower:     []float64{0},
		Upper:     []float64{1},
	}
	if _, err := Minimize(p, []float64{2}, Options{}); !errors.Is(err, ErrNotStrictlyFeasible) {
		t.Errorf("want ErrNotStrictlyFeasible, got %v", err)
	}
	if _, err := Minimize(p, []float64{0}, Options{}); !errors.Is(err, ErrNotStrictlyFeasible) {
		t.Errorf("boundary start: want ErrNotStrictlyFeasible, got %v", err)
	}
}

func TestMinimizeEmptyStart(t *testing.T) {
	if _, err := Minimize(Problem{}, nil, Options{}); err == nil {
		t.Error("want error for empty start point")
	}
}

// TestMinimizeRandomQP validates against analytically solvable box QPs:
// min sum a_i (x_i - m_i)^2 over a box is clamping m to the box.
func TestMinimizeRandomQP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5)
		a := make([]float64, n)
		m := make([]float64, n)
		lo := make([]float64, n)
		hi := make([]float64, n)
		x0 := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = 0.5 + rng.Float64()*4
			m[i] = rng.NormFloat64() * 3
			lo[i] = -2
			hi[i] = 2
			x0[i] = 0
		}
		p := Problem{
			Objective: func(x []float64) float64 {
				var s float64
				for i := range x {
					d := x[i] - m[i]
					s += a[i] * d * d
				}
				return s
			},
			Gradient: func(x, out []float64) {
				for i := range x {
					out[i] = 2 * a[i] * (x[i] - m[i])
				}
			},
			Lower: lo,
			Upper: hi,
		}
		x, err := Minimize(p, x0, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range x {
			want := math.Max(lo[i], math.Min(hi[i], m[i]))
			if !almostEq(x[i], want, 1e-3) {
				t.Errorf("trial %d: x[%d] = %g, want %g", trial, i, x[i], want)
			}
		}
	}
}
