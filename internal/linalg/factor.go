package linalg

import (
	"fmt"
	"math"
)

// Cholesky computes the lower-triangular factor L with A = L L^T for a
// symmetric positive-definite matrix A. It returns ErrSingular when a pivot
// is not strictly positive.
func Cholesky(a *Dense) (*Dense, error) {
	n, c := a.Dims()
	if n != c {
		return nil, fmt.Errorf("linalg: Cholesky of %dx%d: %w", n, c, ErrDimension)
	}
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		var diag float64
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			diag += v * v
		}
		d := a.At(j, j) - diag
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("linalg: Cholesky pivot %d = %g: %w", j, d, ErrSingular)
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			var s float64
			for k := 0; k < j; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, (a.At(i, j)-s)/ljj)
		}
	}
	return l, nil
}

// SolveCholesky solves A x = b given the Cholesky factor L of A by forward
// then backward substitution.
func SolveCholesky(l *Dense, b []float64) ([]float64, error) {
	n, _ := l.Dims()
	if len(b) != n {
		return nil, fmt.Errorf("linalg: SolveCholesky rhs %d for %dx%d: %w", len(b), n, n, ErrDimension)
	}
	// Forward: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Backward: L^T x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// SolveSPD solves A x = b for symmetric positive-definite A, retrying with
// escalating diagonal damping when A is only semidefinite (as happens for
// barrier Hessians evaluated far from the central path). The damping is
// relative to the largest entry of A so the behaviour is scale-free.
func SolveSPD(a *Dense, b []float64) ([]float64, error) {
	scale := a.MaxAbs()
	if scale == 0 {
		scale = 1
	}
	work := a.Clone()
	var lastErr error
	for _, damp := range []float64{0, 1e-12, 1e-9, 1e-6, 1e-3} {
		if damp > 0 {
			work = a.Clone()
			work.AddDiag(damp * scale)
		}
		l, err := Cholesky(work)
		if err != nil {
			lastErr = err
			continue
		}
		return SolveCholesky(l, b)
	}
	return nil, fmt.Errorf("linalg: SolveSPD failed at all damping levels: %w", lastErr)
}
