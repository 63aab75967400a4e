package trace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

func mkTrace(t *testing.T, pts ...float64) *PowerTrace {
	t.Helper()
	// pts are watts, one per second starting at 0.
	tr := &PowerTrace{Host: "test"}
	for i, w := range pts {
		if err := tr.Append(time.Duration(i)*time.Second, units.Watts(w)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestAppendMonotonic(t *testing.T) {
	tr := &PowerTrace{}
	if err := tr.Append(time.Second, 500); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append(2*time.Second, 510); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append(time.Second, 490); err == nil {
		t.Error("out-of-order append must fail")
	}
	// Equal timestamps are allowed (meter re-read).
	if err := tr.Append(2*time.Second, 505); err != nil {
		t.Errorf("equal-timestamp append should be allowed: %v", err)
	}
}

func TestEnergyConstantPower(t *testing.T) {
	tr := mkTrace(t, 500, 500, 500, 500, 500) // 4 seconds at 500 W
	if e := tr.Energy(); math.Abs(float64(e)-2000) > 1e-9 {
		t.Errorf("Energy = %v, want 2000 J", e)
	}
	if m := tr.MeanPower(); math.Abs(float64(m)-500) > 1e-9 {
		t.Errorf("MeanPower = %v, want 500 W", m)
	}
}

func TestEnergyTrapezoid(t *testing.T) {
	// Ramp 0 → 100 W over 1 s: energy = 50 J.
	tr := mkTrace(t, 0, 100)
	if e := tr.Energy(); math.Abs(float64(e)-50) > 1e-9 {
		t.Errorf("ramp energy = %v, want 50 J", e)
	}
}

func TestEnergyBetweenClipsExactly(t *testing.T) {
	tr := mkTrace(t, 100, 100, 100, 100, 100) // 4 s at 100 W
	e := tr.EnergyBetween(1500*time.Millisecond, 2500*time.Millisecond)
	if math.Abs(float64(e)-100) > 1e-9 {
		t.Errorf("clipped energy = %v, want 100 J", e)
	}
	// Interpolation inside a ramp segment: power at 0.5 s is 50 W,
	// integral over [0.5s, 1s] of the 0→100 ramp is 37.5 J.
	ramp := mkTrace(t, 0, 100)
	e = ramp.EnergyBetween(500*time.Millisecond, time.Second)
	if math.Abs(float64(e)-37.5) > 1e-9 {
		t.Errorf("partial ramp energy = %v, want 37.5 J", e)
	}
}

func TestEnergyBetweenDegenerate(t *testing.T) {
	tr := mkTrace(t, 100, 100)
	if e := tr.EnergyBetween(2*time.Second, time.Second); e != 0 {
		t.Errorf("inverted interval energy = %v, want 0", e)
	}
	short := mkTrace(t, 100)
	if e := short.Energy(); e != 0 {
		t.Errorf("single-sample energy = %v, want 0", e)
	}
}

func TestEnergyAdditivity(t *testing.T) {
	// Property: splitting the integration interval at any interior point
	// conserves total energy.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &PowerTrace{}
		n := 5 + rng.Intn(30)
		for i := 0; i < n; i++ {
			_ = tr.Append(time.Duration(i)*500*time.Millisecond, units.Watts(400+rng.Float64()*500))
		}
		span := tr.Duration()
		cut := time.Duration(rng.Int63n(int64(span)))
		whole := tr.EnergyBetween(0, span)
		parts := tr.EnergyBetween(0, cut) + tr.EnergyBetween(cut, span)
		return math.Abs(float64(whole-parts)) < 1e-6*math.Max(1, float64(whole))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPowerAt(t *testing.T) {
	tr := mkTrace(t, 400, 600)
	for _, tc := range []struct {
		at   time.Duration
		want float64
	}{
		{-time.Second, 400}, // clamp before
		{0, 400},
		{500 * time.Millisecond, 500},
		{time.Second, 600},
		{5 * time.Second, 600}, // clamp after
	} {
		got, err := tr.PowerAt(tc.at)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(got)-tc.want) > 1e-9 {
			t.Errorf("PowerAt(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	empty := &PowerTrace{}
	if _, err := empty.PowerAt(0); err == nil {
		t.Error("PowerAt on empty trace must fail")
	}
}

func TestSlice(t *testing.T) {
	tr := mkTrace(t, 1, 2, 3, 4, 5)
	s := tr.Slice(time.Second, 3*time.Second)
	if s.Len() != 3 {
		t.Fatalf("Slice len = %d, want 3", s.Len())
	}
	if s.Samples[0].Power != 2 || s.Samples[2].Power != 4 {
		t.Errorf("Slice contents wrong: %+v", s.Samples)
	}
	// Mutating the slice must not affect the original.
	s.Samples[0].Power = 99
	if tr.Samples[1].Power != 2 {
		t.Error("Slice shares storage with original")
	}
}

func TestResample(t *testing.T) {
	tr := mkTrace(t, 0, 100) // 1 s ramp
	rs, err := tr.Resample(250 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 5 {
		t.Fatalf("resampled len = %d, want 5", rs.Len())
	}
	if math.Abs(float64(rs.Samples[2].Power)-50) > 1e-9 {
		t.Errorf("midpoint = %v, want 50", rs.Samples[2].Power)
	}
	if _, err := tr.Resample(0); err == nil {
		t.Error("zero interval must fail")
	}
	empty := &PowerTrace{}
	rs, err = empty.Resample(time.Second)
	if err != nil || rs.Len() != 0 {
		t.Errorf("empty resample = (%v, %v), want empty, nil", rs.Len(), err)
	}
}

func TestResamplePreservesEnergy(t *testing.T) {
	// Property: resampling a piecewise-linear trace at a divisor of its
	// sampling period preserves the trapezoidal integral exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &PowerTrace{}
		n := 3 + rng.Intn(20)
		for i := 0; i < n; i++ {
			_ = tr.Append(time.Duration(i)*time.Second, units.Watts(400+rng.Float64()*100))
		}
		rs, err := tr.Resample(250 * time.Millisecond)
		if err != nil {
			return false
		}
		return math.Abs(float64(rs.Energy()-tr.Energy())) < 1e-6*float64(tr.Energy())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAverageTraces(t *testing.T) {
	a := mkTrace(t, 100, 100, 100)
	b := mkTrace(t, 300, 300, 300)
	avg, err := AverageTraces([]*PowerTrace{a, b}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range avg.Samples {
		if math.Abs(float64(s.Power)-200) > 1e-9 {
			t.Errorf("average at %v = %v, want 200", s.At, s.Power)
		}
	}
}

func TestAverageTracesUnequalLengths(t *testing.T) {
	short := mkTrace(t, 100, 100)          // 1 s
	long := mkTrace(t, 300, 300, 300, 300) // 3 s
	avg, err := AverageTraces([]*PowerTrace{short, long}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if avg.Len() != 4 {
		t.Fatalf("average len = %d, want 4", avg.Len())
	}
	if math.Abs(float64(avg.Samples[0].Power)-200) > 1e-9 {
		t.Errorf("early average = %v, want 200 (both runs active)", avg.Samples[0].Power)
	}
	if math.Abs(float64(avg.Samples[3].Power)-300) > 1e-9 {
		t.Errorf("late average = %v, want 300 (only the long run)", avg.Samples[3].Power)
	}
}

func TestAverageTracesErrors(t *testing.T) {
	if _, err := AverageTraces(nil, time.Second); err == nil {
		t.Error("no runs must fail")
	}
	if _, err := AverageTraces([]*PowerTrace{{}}, time.Second); err == nil {
		t.Error("all-empty runs must fail")
	}
}
