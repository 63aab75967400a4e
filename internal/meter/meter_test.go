package meter

import (
	"math"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/units"
)

func TestObserveCadence(t *testing.T) {
	m := New("m01", 1)
	// Offer observations every 100 ms for 5 s; only every 5th lands.
	taken := 0
	for i := 0; i <= 50; i++ {
		if _, ok := m.Observe(time.Duration(i)*100*time.Millisecond, 500); ok {
			taken++
		}
	}
	if taken != 11 { // t = 0, 0.5, 1.0, ..., 5.0
		t.Errorf("took %d samples over 5 s at 2 Hz, want 11", taken)
	}
	if m.Trace().Len() != taken {
		t.Errorf("trace has %d samples, want %d", m.Trace().Len(), taken)
	}
}

func TestObserveNoiseBounded(t *testing.T) {
	m := New("m01", 42)
	var worst float64
	for i := 0; i < 2000; i++ {
		w, ok := m.Observe(time.Duration(i)*DefaultPeriod, 600)
		if !ok {
			t.Fatal("sample skipped unexpectedly")
		}
		rel := math.Abs(float64(w)-600) / 600
		if rel > worst {
			worst = rel
		}
	}
	// 1σ = 0.05%; 2000 samples should stay within ~6σ.
	if worst > 0.003 {
		t.Errorf("worst relative noise = %v, want < 0.3%%", worst)
	}
	if worst == 0 {
		t.Error("meter produced no noise at all")
	}
}

func TestObserveNeverNegative(t *testing.T) {
	m := New("m01", 7)
	for i := 0; i < 100; i++ {
		w, ok := m.Observe(time.Duration(i)*DefaultPeriod, 0.001)
		if ok && w < 0 {
			t.Fatalf("negative power sample %v", w)
		}
	}
}

func TestMeterDeterminism(t *testing.T) {
	run := func() []units.Watts {
		m := New("m01", 99)
		var out []units.Watts
		for i := 0; i < 20; i++ {
			if w, ok := m.Observe(time.Duration(i)*DefaultPeriod, 500); ok {
				out = append(out, w)
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic meter at sample %d", i)
		}
	}
}

func TestStabilisationDetector(t *testing.T) {
	d := NewStabilisationDetector()
	// 19 stable readings are not enough...
	for i := 0; i < 19; i++ {
		if d.Add(500) {
			t.Fatalf("stable after %d readings, want %d", i+1, StabilisationWindow)
		}
	}
	// ...the 20th consecutive in-tolerance *difference* needs 21 readings.
	if !d.Add(500.5) { // within 0.3%
		if !d.Add(500) {
			t.Fatal("detector never stabilised on a flat series")
		}
	}
	if !d.Stable() {
		t.Error("Stable() disagrees with Add result")
	}
}

func TestStabilisationBreaksOnJump(t *testing.T) {
	d := NewStabilisationDetector()
	for i := 0; i < 15; i++ {
		d.Add(500)
	}
	d.Add(600) // 20% jump resets the streak
	for i := 0; i < 19; i++ {
		if d.Add(600) {
			t.Fatalf("stabilised only %d readings after the jump", i+1)
		}
	}
	if !d.Add(600) {
		t.Error("should stabilise 20 in-tolerance diffs after the jump")
	}
}

func TestStabilisationZeroSeries(t *testing.T) {
	d := NewStabilisationDetector()
	stable := false
	for i := 0; i < 25; i++ {
		stable = d.Add(0)
	}
	if !stable {
		t.Error("an all-zero series is trivially stable")
	}
}

func TestStabilisationPoint(t *testing.T) {
	tr := &trace.PowerTrace{Host: "x"}
	// 10 noisy warm-up samples, then flat.
	for i := 0; i < 10; i++ {
		_ = tr.Append(time.Duration(i)*DefaultPeriod, units.Watts(500+20*float64(i%2)))
	}
	for i := 10; i < 40; i++ {
		_ = tr.Append(time.Duration(i)*DefaultPeriod, 500)
	}
	at, err := StabilisationPoint(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Stability needs 20 consecutive small diffs starting at sample 11.
	want := time.Duration(30) * DefaultPeriod
	if at != want {
		t.Errorf("stabilisation at %v, want %v", at, want)
	}
}

func TestStabilisationPointNever(t *testing.T) {
	tr := &trace.PowerTrace{Host: "x"}
	for i := 0; i < 50; i++ {
		_ = tr.Append(time.Duration(i)*DefaultPeriod, units.Watts(500+30*float64(i%2)))
	}
	if _, err := StabilisationPoint(tr); err != ErrNeverStabilised {
		t.Errorf("err = %v, want ErrNeverStabilised", err)
	}
}

func TestObserveToleratesGaps(t *testing.T) {
	// Failure injection: the simulation loop stalls for several periods
	// (e.g. a dropped instrument connection). The meter must resume
	// sampling without panicking and keep its trace time-ordered.
	m := New("m01", 5)
	m.Observe(0, 500)
	m.Observe(10*time.Second, 510) // 9.5 s of missing observations
	m.Observe(10*time.Second+DefaultPeriod, 505)
	tr := m.Trace()
	if tr.Len() != 3 {
		t.Fatalf("trace has %d samples, want 3", tr.Len())
	}
	for i := 1; i < tr.Len(); i++ {
		if tr.Samples[i].At <= tr.Samples[i-1].At {
			t.Fatal("trace not strictly ordered across the gap")
		}
	}
	// Energy across the gap interpolates linearly instead of failing.
	if e := tr.Energy(); e <= 0 {
		t.Errorf("energy across gap = %v", e)
	}
}
