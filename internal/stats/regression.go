package stats

import (
	"errors"
	"fmt"
)

// LinearFit is the result of an ordinary least-squares regression.
type LinearFit struct {
	// Coeffs are the fitted coefficients, one per design-matrix column.
	Coeffs []float64
	// Residuals are y − X·coeffs on the training data.
	Residuals []float64
	// RSS is the residual sum of squares.
	RSS float64
	// R2 is the coefficient of determination on the training data.
	R2 float64
}

// OLS fits y ≈ X·β by ordinary least squares using a Householder QR
// decomposition (numerically stabler than the normal equations). X must
// already include an intercept column if one is wanted; see DesignMatrix.
func OLS(x *Matrix, y []float64) (*LinearFit, error) {
	if x.Rows() != len(y) {
		return nil, fmt.Errorf("stats: OLS has %d rows but %d targets", x.Rows(), len(y))
	}
	if x.Rows() < x.Cols() {
		return nil, fmt.Errorf("stats: OLS needs at least %d observations, got %d", x.Cols(), x.Rows())
	}
	qr, err := DecomposeQR(x)
	if err != nil {
		return nil, err
	}
	beta, err := qr.Solve(y)
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

// NonNegativeOLS fits y ≈ X·β subject to β ≥ 0 for the columns listed in
// constrained (indices into the design matrix). It uses an active-set
// strategy: fit unconstrained, clamp the most negative constrained
// coefficient to zero by removing its column, and repeat. The paper's
// physical coefficients (power per unit CPU, per unit bandwidth, …) are
// non-negative by construction, and Tables III/IV contain exact zeros
// (e.g. β(i) on the target, γ(t) on the target) that this reproduces.
func NonNegativeOLS(x *Matrix, y []float64, constrained []int) (*LinearFit, error) {
	active := make(map[int]bool) // columns forced to zero
	isConstrained := make(map[int]bool, len(constrained))
	for _, c := range constrained {
		if c < 0 || c >= x.Cols() {
			return nil, fmt.Errorf("stats: constrained column %d out of range", c)
		}
		isConstrained[c] = true
	}

	for iter := 0; iter <= x.Cols(); iter++ {
		// Build the reduced design without the zeroed columns.
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
		fit, err := OLS(red, y)
		if err != nil {
			return nil, err
		}
		// Find the most negative constrained coefficient.
		worst, worstVal := -1, 0.0
		for jj, j := range keep {
			if isConstrained[j] && fit.Coeffs[jj] < worstVal {
				worst, worstVal = j, fit.Coeffs[jj]
			}
		}
		if worst < 0 {
			// Feasible: expand back to full coefficient vector.
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

// DesignMatrix builds a design matrix from feature rows, optionally
// prepending an intercept column of ones (the paper's constants C).
func DesignMatrix(features [][]float64, intercept bool) (*Matrix, error) {
	if len(features) == 0 {
		return nil, errors.New("stats: no feature rows")
	}
	cols := len(features[0])
	off := 0
	if intercept {
		off = 1
	}
	m := NewMatrix(len(features), cols+off)
	for i, row := range features {
		if len(row) != cols {
			return nil, fmt.Errorf("stats: feature row %d has %d values, want %d", i, len(row), cols)
		}
		if intercept {
			m.Set(i, 0, 1)
		}
		for j, v := range row {
			m.Set(i, j+off, v)
		}
	}
	return m, nil
}
