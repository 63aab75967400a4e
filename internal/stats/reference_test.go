package stats

import (
	"errors"
	"fmt"
	"math"
)

// The least-squares kernels as they were before they indexed the
// matrix's backing slice directly: every element read and written
// through At and Set. bits_test.go holds the production kernels to these,
// bit for bit.

// decomposeQRRef is DecomposeQR through At and Set.
func decomposeQRRef(a *Matrix) (*QR, error) {
	m, n := a.Rows(), a.Cols()
	if m < n {
		return nil, errors.New("stats: QR requires rows >= cols")
	}
	qr := a.Clone()
	tau := make([]float64, n)

	for k := 0; k < n; k++ {
		normX := 0.0
		for i := k; i < m; i++ {
			v := qr.At(i, k)
			normX += v * v
		}
		normX = math.Sqrt(normX)
		if normX == 0 {
			tau[k] = 0
			continue
		}
		alpha := qr.At(k, k)
		if alpha > 0 {
			normX = -normX
		}
		v0 := alpha - normX
		qr.Set(k, k, normX)
		for i := k + 1; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/v0)
		}
		tau[k] = -v0 / normX

		for j := k + 1; j < n; j++ {
			s := qr.At(k, j)
			for i := k + 1; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s *= tau[k]
			qr.Set(k, j, qr.At(k, j)-s)
			for i := k + 1; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)-s*qr.At(i, k))
			}
		}
	}
	return &QR{qr: qr, tau: tau, m: m, n: n}, nil
}

// applyQTRef is applyQT through At.
func (q *QR) applyQTRef(b []float64) {
	for k := 0; k < q.n; k++ {
		if q.tau[k] == 0 {
			continue
		}
		s := b[k]
		for i := k + 1; i < q.m; i++ {
			s += q.qr.At(i, k) * b[i]
		}
		s *= q.tau[k]
		b[k] -= s
		for i := k + 1; i < q.m; i++ {
			b[i] -= s * q.qr.At(i, k)
		}
	}
}

// solveRef is Solve through At and applyQTRef.
func (q *QR) solveRef(b []float64) ([]float64, error) {
	if len(b) != q.m {
		return nil, errors.New("stats: QR.Solve right-hand side has wrong length")
	}
	colNorm := make([]float64, q.n)
	anySignal := false
	for j := 0; j < q.n; j++ {
		s := 0.0
		for i := 0; i <= j; i++ {
			v := q.qr.At(i, j)
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
	q.applyQTRef(work)

	x := make([]float64, q.n)
	for i := q.n - 1; i >= 0; i-- {
		d := q.qr.At(i, i)
		if math.Abs(d) <= 1e-10*colNorm[i] {
			return nil, ErrRankDeficient
		}
		s := work[i]
		for j := i + 1; j < q.n; j++ {
			s -= q.qr.At(i, j) * x[j]
		}
		x[i] = s / d
	}
	return x, nil
}

// olsRef is OLS over decomposeQRRef and solveRef.
func olsRef(x *Matrix, y []float64) (*LinearFit, error) {
	if x.Rows() != len(y) {
		return nil, fmt.Errorf("stats: OLS has %d rows but %d targets", x.Rows(), len(y))
	}
	if x.Rows() < x.Cols() {
		return nil, fmt.Errorf("stats: OLS needs at least %d observations, got %d", x.Cols(), x.Rows())
	}
	qr, err := decomposeQRRef(x)
	if err != nil {
		return nil, err
	}
	beta, err := qr.solveRef(y)
	if err != nil {
		return nil, err
	}
	pred, err := x.MulVec(beta)
	if err != nil {
		return nil, err
	}
	fit := &LinearFit{Coeffs: beta, Residuals: make([]float64, len(y))}
	mean := Mean(y)
	tss := 0.0
	for i, v := range y {
		r := v - pred[i]
		fit.Residuals[i] = r
		fit.RSS += r * r
		tss += (v - mean) * (v - mean)
	}
	if tss > 0 {
		fit.R2 = 1 - fit.RSS/tss
	}
	return fit, nil
}

// nonNegativeOLSRef is NonNegativeOLS over olsRef, rebuilding the reduced
// design element by element on every pass, the unclamped one included.
func nonNegativeOLSRef(x *Matrix, y []float64, constrained []int) (*LinearFit, error) {
	active := make(map[int]bool)
	isConstrained := make(map[int]bool, len(constrained))
	for _, c := range constrained {
		if c < 0 || c >= x.Cols() {
			return nil, fmt.Errorf("stats: constrained column %d out of range", c)
		}
		isConstrained[c] = true
	}

	for iter := 0; iter <= x.Cols(); iter++ {
		keep := make([]int, 0, x.Cols())
		for j := 0; j < x.Cols(); j++ {
			if !active[j] {
				keep = append(keep, j)
			}
		}
		if len(keep) == 0 {
			return nil, errors.New("stats: all columns constrained to zero")
		}
		red := NewMatrix(x.Rows(), len(keep))
		for i := 0; i < x.Rows(); i++ {
			for jj, j := range keep {
				red.Set(i, jj, x.At(i, j))
			}
		}
		fit, err := olsRef(red, y)
		if err != nil {
			return nil, err
		}
		worst, worstVal := -1, 0.0
		for jj, j := range keep {
			if isConstrained[j] && fit.Coeffs[jj] < worstVal {
				worst, worstVal = j, fit.Coeffs[jj]
			}
		}
		if worst < 0 {
			full := make([]float64, x.Cols())
			for jj, j := range keep {
				full[j] = fit.Coeffs[jj]
			}
			fit.Coeffs = full
			return fit, nil
		}
		active[worst] = true
	}
	return nil, errors.New("stats: non-negative OLS did not converge")
}
