package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDescriptive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); !almostEq(v, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", v, 32.0/7.0)
	}
	if s := StdDev(xs); !almostEq(s, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", s)
	}
	if Min(xs) != 2 || Max(xs) != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", Min(xs), Max(xs))
	}
}

func TestDescriptiveEdgeCases(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
	if Variance([]float64{5}) != 0 {
		t.Error("Variance of one sample should be 0")
	}
}

func TestMAEAndRMSE(t *testing.T) {
	pred := []float64{1, 2, 3}
	act := []float64{2, 2, 5}
	mae, err := MAE(pred, act)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(mae, 1, 1e-12) {
		t.Errorf("MAE = %v, want 1", mae)
	}
	rmse, err := RMSE(pred, act)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(rmse, math.Sqrt(5.0/3.0), 1e-12) {
		t.Errorf("RMSE = %v, want %v", rmse, math.Sqrt(5.0/3.0))
	}
}

func TestNRMSE(t *testing.T) {
	pred := []float64{1, 2, 3}
	act := []float64{2, 2, 5} // range = 3
	n, err := NRMSE(pred, act)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(5.0/3.0) / 3
	if !almostEq(n, want, 1e-12) {
		t.Errorf("NRMSE = %v, want %v", n, want)
	}
	if _, err := NRMSE([]float64{1, 1}, []float64{2, 2}); err == nil {
		t.Error("constant actuals should make NRMSE undefined")
	}
}

func TestErrorMetricsValidation(t *testing.T) {
	if _, err := MAE([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Errorf("MAE mismatch error = %v", err)
	}
	if _, err := RMSE(nil, nil); err == nil {
		t.Error("empty RMSE should fail")
	}
	if _, err := MAE(nil, nil); err == nil {
		t.Error("empty MAE should fail")
	}
}

func TestErrorsBundle(t *testing.T) {
	rep, err := Errors([]float64{1, 2, 3}, []float64{2, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MAE != 1 {
		t.Errorf("bundle MAE = %v", rep.MAE)
	}
	if rep.RMSE <= 0 || rep.NRMSE <= 0 {
		t.Errorf("bundle RMSE/NRMSE = %v/%v, want > 0", rep.RMSE, rep.NRMSE)
	}
}

func TestRMSEAtLeastMAE(t *testing.T) {
	// Property: RMSE ≥ MAE always (power-mean inequality).
	f := func(a, b, c, d float64) bool {
		pred := []float64{a, b}
		act := []float64{c, d}
		for _, v := range append(pred, act...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip degenerate float inputs
			}
		}
		mae, err1 := MAE(pred, act)
		rmse, err2 := RMSE(pred, act)
		if err1 != nil || err2 != nil {
			return false
		}
		return rmse >= mae-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPerfectPredictionZeroErrors(t *testing.T) {
	f := func(a, b, c float64) bool {
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		s := []float64{a, b, c}
		mae, _ := MAE(s, s)
		rmse, _ := RMSE(s, s)
		return mae == 0 && rmse == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarianceConverged(t *testing.T) {
	// Identical runs: variance is 0 before and after, considered converged
	// once minRuns reached.
	same := []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5}
	if !VarianceConverged(same, 10, 0.1) {
		t.Error("constant runs should be converged at minRuns")
	}
	if VarianceConverged(same[:9], 10, 0.1) {
		t.Error("fewer than minRuns must not be converged")
	}
	// A wildly different new value should break convergence.
	jumpy := append(append([]float64{}, same...), 500)
	if VarianceConverged(jumpy, 10, 0.1) {
		t.Error("a large jump in variance must not be converged")
	}
	// Small jitter around a mean converges.
	stable := []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100, 100.05}
	if !VarianceConverged(stable, 10, 0.1) {
		t.Error("stable runs should converge")
	}
	if VarianceConverged([]float64{1}, 1, 0.1) {
		t.Error("a single run can never be converged")
	}
}
