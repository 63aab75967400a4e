package stats

import (
	"errors"
	"math"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 for fewer than two
// samples).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest value in xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value in xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// ErrLengthMismatch reports paired slices of different lengths.
var ErrLengthMismatch = errors.New("stats: predicted and actual lengths differ")

// MAE returns the mean absolute error between predictions and actuals.
func MAE(predicted, actual []float64) (float64, error) {
	if len(predicted) != len(actual) {
		return 0, ErrLengthMismatch
	}
	if len(actual) == 0 {
		return 0, errors.New("stats: MAE of empty series")
	}
	s := 0.0
	for i := range actual {
		s += math.Abs(predicted[i] - actual[i])
	}
	return s / float64(len(actual)), nil
}

// RMSE returns the root mean square error between predictions and actuals.
func RMSE(predicted, actual []float64) (float64, error) {
	if len(predicted) != len(actual) {
		return 0, ErrLengthMismatch
	}
	if len(actual) == 0 {
		return 0, errors.New("stats: RMSE of empty series")
	}
	s := 0.0
	for i := range actual {
		d := predicted[i] - actual[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(actual))), nil
}

// NRMSE returns the RMSE normalised by the range (max−min) of the actual
// values, the normalisation the paper uses for its headline accuracy
// numbers (Tables V and VII). The result is a fraction: 0.118 for the
// paper's "11.8%".
func NRMSE(predicted, actual []float64) (float64, error) {
	r, err := RMSE(predicted, actual)
	if err != nil {
		return 0, err
	}
	span := Max(actual) - Min(actual)
	if span == 0 {
		return 0, errors.New("stats: NRMSE undefined for constant actuals")
	}
	return r / span, nil
}

// ErrorReport bundles the three metrics the paper reports per model.
type ErrorReport struct {
	MAE   float64
	RMSE  float64
	NRMSE float64
}

// Errors computes MAE, RMSE and NRMSE in one pass over the pair of series.
func Errors(predicted, actual []float64) (ErrorReport, error) {
	var rep ErrorReport
	var err error
	if rep.MAE, err = MAE(predicted, actual); err != nil {
		return rep, err
	}
	if rep.RMSE, err = RMSE(predicted, actual); err != nil {
		return rep, err
	}
	if rep.NRMSE, err = NRMSE(predicted, actual); err != nil {
		return rep, err
	}
	return rep, nil
}

// VarianceConverged implements the paper's repeat-until-stable rule: an
// experiment is repeated until the variance of the collected runs changes
// by less than tol (the paper uses 10%) when the latest run is added, with
// a floor of minRuns (the paper observed "at least ten runs").
func VarianceConverged(runs []float64, minRuns int, tol float64) bool {
	if len(runs) < minRuns || len(runs) < 2 {
		return false
	}
	prev := Variance(runs[:len(runs)-1])
	cur := Variance(runs)
	if prev == 0 {
		return cur == 0
	}
	return math.Abs(cur-prev)/prev < tol
}
