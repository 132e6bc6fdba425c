// Package linalg implements the small dense linear-algebra kernel used by
// the generic convex solver: vectors, row-major dense matrices and the
// Cholesky factorization. Problem sizes in this repository are tiny (at most a
// few hundred variables), so the implementations favour clarity and
// numerical safety over blocking or vectorization.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimension is returned when operand shapes are incompatible.
var ErrDimension = errors.New("linalg: dimension mismatch")

// ErrSingular is returned when a factorization encounters a (numerically)
// singular or non-positive-definite matrix.
var ErrSingular = errors.New("linalg: singular or non-PD matrix")

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates an r x c zero matrix.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("linalg: NewDense(%d, %d): non-positive size", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// Dims returns the matrix shape.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Symmetrize replaces M by (M + M^T)/2; it panics on non-square input. The
// barrier solver uses it to scrub the asymmetry that finite-difference
// Hessians accumulate.
func (m *Dense) Symmetrize() {
	if m.rows != m.cols {
		panic("linalg: Symmetrize on non-square matrix")
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			v := 0.5 * (m.At(i, j) + m.At(j, i))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// AddDiag adds v to every diagonal entry (Tikhonov / Levenberg damping).
func (m *Dense) AddDiag(v float64) {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	for i := 0; i < n; i++ {
		m.data[i*m.cols+i] += v
	}
}

// MaxAbs returns the largest absolute entry (used to scale damping).
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}
