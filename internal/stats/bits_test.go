package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether a and b hold the same float64 values bit for
// bit (so -0 differs from 0, and a NaN matches only its own payload).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameErr reports whether two results failed the same way.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// randomDesign draws a design of 4–5,000 rows and 1–6 columns whose
// columns mix the shapes the WAVM3 fits meet: a unit intercept, busy-
// thread counts, dirty ratios, a bit/s-scale bandwidth, and the
// degenerate ones (all zero, constant, proportional to an earlier
// column) behind the rank-deficient and clamped paths. The targets load
// some columns negatively, so the non-negative fit clamps.
func randomDesign(rng *rand.Rand) (*Matrix, []float64) {
	rows := 3 + int(math.Round(math.Exp(rng.Float64()*math.Log(4997))))
	cols := 1 + rng.Intn(6)
	x := NewMatrix(rows, cols)
	weights := make([]float64, cols)
	for j := 0; j < cols; j++ {
		kind := 3 + rng.Intn(4)
		if r := rng.Float64(); r < 0.12 {
			kind = int(r / 0.04) // zero, constant or proportional
		}
		if j == 0 && rng.Intn(4) > 0 {
			kind = -1 // the intercept
		}
		c := 1 + rng.Float64()*5
		src := rng.Intn(j + 1) // an earlier column, or this one
		for i := 0; i < rows; i++ {
			var v float64
			switch kind {
			case -1:
				v = 1
			case 0:
				v = 0
			case 1:
				v = c
			case 2:
				v = c * x.At(i, src)
			case 3:
				v = 4e8 + rng.Float64()*3e8
			case 4:
				v = float64(rng.Intn(9))
			case 5:
				v = rng.Float64()
			default:
				v = 2 + rng.Float64()*30
			}
			x.Set(i, j, v)
		}
		weights[j] = (rng.Float64()*5 - 2) / math.Max(1, math.Abs(x.At(0, j)))
	}
	y := make([]float64, rows)
	for i := range y {
		s := 400 + rng.NormFloat64()*3
		for j, w := range weights {
			s += w * x.At(i, j)
		}
		y[i] = s
	}
	return x, y
}

// TestKernelsMatchReferenceBits holds DecomposeQR, Solve, OLS and
// NonNegativeOLS to their element-by-element references on seeded random
// designs: the same factors, coefficients, residuals, RSS and R² bit for
// bit, or the same error. It also requires the draws to reach the
// rank-deficient, clamped and too-few-rows paths.
func TestKernelsMatchReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(20150908))
	var rankDeficient, clamped, wide int
	for n := 0; n < 400; n++ {
		x, y := randomDesign(rng)
		name := fmt.Sprintf("design %d (%d×%d)", n, x.Rows(), x.Cols())

		q, err := DecomposeQR(x)
		qRef, errRef := decomposeQRRef(x)
		if !sameErr(err, errRef) {
			t.Fatalf("%s: DecomposeQR error %v, reference %v", name, err, errRef)
		}
		if err != nil {
			wide++
		} else {
			if !sameBits(q.qr.data, qRef.qr.data) || !sameBits(q.tau, qRef.tau) {
				t.Fatalf("%s: DecomposeQR factors differ from the reference", name)
			}
			beta, err := q.Solve(y)
			betaRef, errRef := qRef.solveRef(y)
			if !sameErr(err, errRef) || !sameBits(beta, betaRef) {
				t.Fatalf("%s: Solve = %v, %v; reference %v, %v", name, beta, err, betaRef, errRef)
			}
			if errors.Is(err, ErrRankDeficient) {
				rankDeficient++
			}
		}

		constrained := make([]int, 0, x.Cols())
		for j := 1; j < x.Cols(); j++ {
			constrained = append(constrained, j)
		}
		for _, c := range []struct {
			kernel string
			fit    func() (*LinearFit, error)
			ref    func() (*LinearFit, error)
		}{
			{"OLS", func() (*LinearFit, error) { return OLS(x, y) }, func() (*LinearFit, error) { return olsRef(x, y) }},
			{"NonNegativeOLS", func() (*LinearFit, error) { return NonNegativeOLS(x, y, constrained) },
				func() (*LinearFit, error) { return nonNegativeOLSRef(x, y, constrained) }},
		} {
			fit, err := c.fit()
			ref, errRef := c.ref()
			if !sameErr(err, errRef) {
				t.Fatalf("%s: %s error %v, reference %v", name, c.kernel, err, errRef)
			}
			if err != nil {
				continue
			}
			if !sameBits(fit.Coeffs, ref.Coeffs) || !sameBits(fit.Residuals, ref.Residuals) ||
				!sameBits([]float64{fit.RSS, fit.R2}, []float64{ref.RSS, ref.R2}) {
				t.Fatalf("%s: %s differs from the reference: coeffs %v, reference %v", name, c.kernel, fit.Coeffs, ref.Coeffs)
			}
		}
		if ols, err := OLS(x, y); err == nil {
			for _, j := range constrained {
				if ols.Coeffs[j] < 0 {
					clamped++
					break
				}
			}
		}
	}
	if rankDeficient == 0 || clamped == 0 || wide == 0 {
		t.Errorf("draws reached %d rank-deficient, %d clamped and %d too-wide designs; want each above 0", rankDeficient, clamped, wide)
	}
	t.Logf("%d rank-deficient, %d clamped, %d too-wide designs", rankDeficient, clamped, wide)
}
