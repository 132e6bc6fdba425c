package linalg

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

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, -3)
	if r, c := m.Dims(); r != 2 || c != 3 {
		t.Fatalf("Dims = %d,%d", r, c)
	}
	if m.At(0, 0) != 1 || m.At(1, 2) != -3 {
		t.Errorf("At values wrong: %g %g", m.At(0, 0), m.At(1, 2))
	}
	cl := m.Clone()
	cl.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone aliases the original")
	}
}

func TestNewDensePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDense(0, 1) should panic")
		}
	}()
	NewDense(0, 1)
}

func TestSymmetrizeAndDiag(t *testing.T) {
	m := fromRows([][]float64{{1, 4}, {0, 1}})
	m.Symmetrize()
	if m.At(0, 1) != 2 || m.At(1, 0) != 2 {
		t.Errorf("Symmetrize: %g %g", m.At(0, 1), m.At(1, 0))
	}
	m.AddDiag(3)
	if m.At(0, 0) != 4 || m.At(1, 1) != 4 {
		t.Errorf("AddDiag: %g %g", m.At(0, 0), m.At(1, 1))
	}
	if m.MaxAbs() != 4 {
		t.Errorf("MaxAbs = %g", m.MaxAbs())
	}
}

// fromRows builds a matrix from uniform, non-empty row slices.
func fromRows(rows [][]float64) *Dense {
	m := NewDense(len(rows), len(rows[0]))
	for i, row := range rows {
		for j, v := range row {
			m.Set(i, j, v)
		}
	}
	return m
}

// mulVec returns M x.
func mulVec(m *Dense, x []float64) []float64 {
	r, c := m.Dims()
	y := make([]float64, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			y[i] += m.At(i, j) * x[j]
		}
	}
	return y
}

func randSPD(rng *rand.Rand, n int) *Dense {
	// A = B B^T + n*I is SPD for any B.
	b := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += b.At(i, k) * b.At(j, k)
			}
			a.Set(i, j, s)
		}
	}
	a.AddDiag(float64(n))
	return a
}

func TestCholeskySolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		a := randSPD(rng, n)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := mulVec(a, xTrue)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("Cholesky: %v", err)
		}
		x, err := SolveCholesky(l, b)
		if err != nil {
			t.Fatalf("SolveCholesky: %v", err)
		}
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-8) {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); !errors.Is(err, ErrSingular) {
		t.Errorf("want ErrSingular, got %v", err)
	}
	rect := NewDense(2, 3)
	if _, err := Cholesky(rect); !errors.Is(err, ErrDimension) {
		t.Errorf("want ErrDimension, got %v", err)
	}
}

func TestSolveSPDDampsSemidefinite(t *testing.T) {
	// Rank-1 PSD matrix; plain Cholesky fails, damping succeeds.
	a := fromRows([][]float64{{1, 1}, {1, 1}})
	x, err := SolveSPD(a, []float64{2, 2})
	if err != nil {
		t.Fatalf("SolveSPD: %v", err)
	}
	// Any x with x1+x2 ~ 2 is acceptable for the damped system.
	if !almostEq(x[0]+x[1], 2, 1e-2) {
		t.Errorf("solution %v does not satisfy damped system", x)
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Errorf("Dot = %g", Dot(a, b))
	}
	y := CopyOf(b)
	AXPY(2, a, y)
	if y[0] != 6 || y[2] != 12 {
		t.Errorf("AXPY = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3 {
		t.Errorf("Scale = %v", y)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot should panic on mismatched lengths")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

// Property: Cholesky factor reproduces the matrix.
func TestCholeskyReconstruction(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += l.At(i, k) * l.At(j, k)
				}
				if !almostEq(s, a.At(i, j), 1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
