package stats

import (
	"errors"
	"math"
)

// QR holds a Householder QR decomposition of an m×n matrix A with m ≥ n:
// A = Q·R where Q is m×m orthogonal and R is m×n upper triangular. The
// factors are stored compactly; Q is only materialised on demand.
type QR struct {
	qr   *Matrix   // R in the upper triangle, Householder vectors below
	tau  []float64 // scaling factor of each reflector
	m, n int
}

// ErrRankDeficient is returned when the design matrix does not have full
// column rank, i.e. some regressor is (numerically) a linear combination of
// the others. Callers typically drop or regularise features on this error.
var ErrRankDeficient = errors.New("stats: matrix is rank deficient")

// DecomposeQR computes the Householder QR decomposition of a. It requires
// at least as many rows as columns. The loops index the copy's row-major
// backing slice directly, element (i, j) at i·n + j.
func DecomposeQR(a *Matrix) (*QR, error) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		return nil, errors.New("stats: QR requires rows >= cols")
	}
	qr := a.Clone()
	d := qr.data
	tau := make([]float64, n)

	for k := 0; k < n; k++ {
		// Build the Householder reflector that zeroes column k below the
		// diagonal.
		normX := 0.0
		for i := k; i < m; i++ {
			v := d[i*n+k]
			normX += v * v
		}
		normX = math.Sqrt(normX)
		if normX == 0 {
			tau[k] = 0
			continue
		}
		alpha := d[k*n+k]
		if alpha > 0 {
			normX = -normX
		}
		// v = x - normX * e1, normalised so v[0] = 1.
		v0 := alpha - normX
		d[k*n+k] = normX
		for i := k + 1; i < m; i++ {
			d[i*n+k] /= v0
		}
		tau[k] = -v0 / normX

		// Apply the reflector to the remaining columns:
		// A := (I - tau v vᵀ) A.
		for j := k + 1; j < n; j++ {
			s := d[k*n+j]
			for i := k + 1; i < m; i++ {
				s += d[i*n+k] * d[i*n+j]
			}
			s *= tau[k]
			d[k*n+j] -= s
			for i := k + 1; i < m; i++ {
				d[i*n+j] -= s * d[i*n+k]
			}
		}
	}
	return &QR{qr: qr, tau: tau, m: m, n: n}, nil
}

// R returns the n×n upper-triangular factor.
func (q *QR) R() *Matrix {
	r := NewMatrix(q.n, q.n)
	for i := 0; i < q.n; i++ {
		for j := i; j < q.n; j++ {
			r.Set(i, j, q.qr.At(i, j))
		}
	}
	return r
}

// Q returns the m×n "thin" orthonormal factor.
func (q *QR) Q() *Matrix {
	// Start from the first n columns of the identity and apply the
	// reflectors in reverse order.
	out := NewMatrix(q.m, q.n)
	for i := 0; i < q.n; i++ {
		out.Set(i, i, 1)
	}
	for k := q.n - 1; k >= 0; k-- {
		if q.tau[k] == 0 {
			continue
		}
		for j := 0; j < q.n; j++ {
			s := out.At(k, j)
			for i := k + 1; i < q.m; i++ {
				s += q.qr.At(i, k) * out.At(i, j)
			}
			s *= q.tau[k]
			out.Set(k, j, out.At(k, j)-s)
			for i := k + 1; i < q.m; i++ {
				out.Set(i, j, out.At(i, j)-s*q.qr.At(i, k))
			}
		}
	}
	return out
}

// applyQT overwrites b with Qᵀ·b.
func (q *QR) applyQT(b []float64) {
	d, n := q.qr.data, q.n
	for k := 0; k < n; k++ {
		if q.tau[k] == 0 {
			continue
		}
		s := b[k]
		for i := k + 1; i < q.m; i++ {
			s += d[i*n+k] * b[i]
		}
		s *= q.tau[k]
		b[k] -= s
		for i := k + 1; i < q.m; i++ {
			b[i] -= s * d[i*n+k]
		}
	}
}

// Solve returns the least-squares solution x minimising ‖Ax − b‖₂.
// It returns ErrRankDeficient when R has a (numerically) zero diagonal.
func (q *QR) Solve(b []float64) ([]float64, error) {
	if len(b) != q.m {
		return nil, errors.New("stats: QR.Solve right-hand side has wrong length")
	}
	// Per-column relative tolerance: a diagonal entry is "zero" when it is
	// tiny against its own column's norm in R. A global tolerance would
	// miss collinear columns whose magnitude dwarfs the others (e.g. a
	// bandwidth regressor in bit/s next to a unit intercept).
	d, n := q.qr.data, q.n
	colNorm := make([]float64, n)
	anySignal := false
	for j := 0; j < n; j++ {
		s := 0.0
		for i := 0; i <= j; i++ {
			v := d[i*n+j]
			s += v * v
		}
		colNorm[j] = math.Sqrt(s)
		if colNorm[j] > 0 {
			anySignal = true
		}
	}
	if !anySignal {
		return nil, ErrRankDeficient
	}

	work := make([]float64, q.m)
	copy(work, b)
	q.applyQT(work)

	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		rii := d[i*n+i]
		if math.Abs(rii) <= 1e-10*colNorm[i] {
			return nil, ErrRankDeficient
		}
		s := work[i]
		for j := i + 1; j < n; j++ {
			s -= d[i*n+j] * x[j]
		}
		x[i] = s / rii
	}
	return x, nil
}
