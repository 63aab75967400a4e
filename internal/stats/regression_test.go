package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOLSRecoversKnownCoefficients(t *testing.T) {
	// Property: with a noiseless linear target, OLS recovers the exact
	// coefficients (up to float tolerance) for any well-conditioned design.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30
		beta := []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 5, rng.NormFloat64() * 2}
		rows := make([][]float64, n)
		y := make([]float64, n)
		for i := range rows {
			rows[i] = []float64{1, rng.Float64() * 100, rng.Float64() * 10}
			y[i] = beta[0]*rows[i][0] + beta[1]*rows[i][1] + beta[2]*rows[i][2]
		}
		x, err := MatrixFromRows(rows)
		if err != nil {
			return false
		}
		fit, err := OLS(x, y)
		if err != nil {
			return false
		}
		for j := range beta {
			if !almostEq(fit.Coeffs[j], beta[j], 1e-6*(1+math.Abs(beta[j]))) {
				return false
			}
		}
		return fit.R2 > 0.999999 || fit.RSS < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOLSWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 2000
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		cpu := rng.Float64() * 32
		rows[i] = []float64{1, cpu}
		y[i] = 400 + 9.5*cpu + rng.NormFloat64()*3
	}
	x, _ := MatrixFromRows(rows)
	fit, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Coeffs[0], 400, 1.0) {
		t.Errorf("intercept = %v, want ≈400", fit.Coeffs[0])
	}
	if !almostEq(fit.Coeffs[1], 9.5, 0.1) {
		t.Errorf("slope = %v, want ≈9.5", fit.Coeffs[1])
	}
	if fit.R2 < 0.99 {
		t.Errorf("R² = %v, want > 0.99", fit.R2)
	}
}

func TestOLSErrors(t *testing.T) {
	x, _ := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := OLS(x, []float64{1}); err == nil {
		t.Error("target length mismatch should fail")
	}
	narrow, _ := MatrixFromRows([][]float64{{1, 2, 3}})
	if _, err := OLS(narrow, []float64{1}); err == nil {
		t.Error("underdetermined system should fail")
	}
}

func TestNonNegativeOLSClampsNegatives(t *testing.T) {
	// Construct data where the unconstrained fit would give column 2 a
	// negative weight: y depends only on column 1, and column 2 is noisy
	// anti-correlated with the residual target.
	rng := rand.New(rand.NewSource(7))
	n := 300
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		a := rng.Float64() * 10
		b := rng.Float64() * 10
		rows[i] = []float64{1, a, b}
		y[i] = 100 + 2*a - 0.5*b + rng.NormFloat64()*0.01
	}
	x, _ := MatrixFromRows(rows)
	fit, err := NonNegativeOLS(x, y, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Coeffs[2] != 0 {
		t.Errorf("constrained coefficient = %v, want exactly 0", fit.Coeffs[2])
	}
	if !almostEq(fit.Coeffs[1], 2, 0.2) {
		t.Errorf("free coefficient = %v, want ≈2", fit.Coeffs[1])
	}
}

func TestNonNegativeOLSFeasibleUnchanged(t *testing.T) {
	// When the unconstrained solution is already non-negative it must match
	// plain OLS.
	rng := rand.New(rand.NewSource(9))
	n := 200
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		a := rng.Float64() * 10
		rows[i] = []float64{1, a}
		y[i] = 5 + 3*a
	}
	x, _ := MatrixFromRows(rows)
	plain, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	constrained, err := NonNegativeOLS(x, y, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	for j := range plain.Coeffs {
		if !almostEq(plain.Coeffs[j], constrained.Coeffs[j], 1e-9) {
			t.Errorf("coefficient %d: constrained %v != plain %v", j, constrained.Coeffs[j], plain.Coeffs[j])
		}
	}
}

func TestNonNegativeOLSBadColumn(t *testing.T) {
	x, _ := MatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 7}})
	if _, err := NonNegativeOLS(x, []float64{1, 2, 3}, []int{5}); err == nil {
		t.Error("out-of-range constrained column should fail")
	}
}

func TestDesignMatrix(t *testing.T) {
	m, err := DesignMatrix([][]float64{{2, 3}, {4, 5}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cols() != 3 || m.At(0, 0) != 1 || m.At(1, 0) != 1 {
		t.Error("intercept column missing or wrong")
	}
	if m.At(0, 1) != 2 || m.At(1, 2) != 5 {
		t.Error("feature values misplaced")
	}
	m2, err := DesignMatrix([][]float64{{2, 3}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Cols() != 2 {
		t.Error("no-intercept design has wrong width")
	}
	if _, err := DesignMatrix(nil, true); err == nil {
		t.Error("empty features should fail")
	}
	if _, err := DesignMatrix([][]float64{{1}, {1, 2}}, true); err == nil {
		t.Error("ragged features should fail")
	}
}
