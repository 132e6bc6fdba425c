package linalg

// Vector helpers. All operate on plain []float64 so callers can interoperate
// with the rest of the codebase without wrapper types.

// Dot returns the inner product of a and b; it panics on length mismatch
// because that is always a programming error.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// AXPY computes y += alpha*x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AXPY length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// CopyOf returns a fresh copy of x.
func CopyOf(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}
