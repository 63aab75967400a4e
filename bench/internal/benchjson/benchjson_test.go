package benchjson

import "testing"

// TestQuartilesMatchPython pins Quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, [3]float64{27.5, 55, 82.5}},
		{[]float64{2.5, 0.5, 7.25, 1, 3.5, 9, 4}, [3]float64{1, 3.5, 7.25}},
	} {
		q1, q2, q3 := Quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("Quartiles(%v) = %v, %v, %v; want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestDistributeTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	d := Distribute(xs)
	if d.Tail != "p99" || d.TailValue != 990 || d.Values != nil || d.N != 1000 {
		t.Errorf("1000 samples: tail %s=%v, %d values kept; want p99=990, none kept", d.Tail, d.TailValue, len(d.Values))
	}
	if d := Distribute(xs[:50]); d.Tail != "" || len(d.Values) != 50 {
		t.Errorf("50 samples: tail %q, %d values kept; want no tail, all kept", d.Tail, len(d.Values))
	}
}
