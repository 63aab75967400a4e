package workload

import (
	"math"
	"testing"
	"time"
)

func TestPhaseValidate(t *testing.T) {
	for _, good := range []Phase{
		{Kind: PhaseSteady, Duration: time.Hour},
		{Kind: PhaseBurst, Duration: time.Hour, Level: 0.5, Peak: MaxPhaseFactor},
	} {
		if err := good.Validate(); err != nil {
			t.Fatalf("valid phase %+v rejected: %v", good, err)
		}
	}
	cases := []Phase{
		{Kind: "spiky", Duration: time.Hour},      // unknown kind
		{Kind: PhaseBurst, Duration: 0},           // zero-length
		{Kind: PhaseRamp, Duration: -time.Second}, // negative length
		{Kind: PhaseSteady, Duration: time.Hour, Level: -1},
		{Kind: PhaseSteady, Duration: time.Hour, Peak: -0.5},
		{Kind: PhaseSteady, Duration: time.Hour, Level: 400_000},          // a single step would issue ~10^10 writes
		{Kind: PhaseBurst, Duration: time.Hour, Peak: MaxPhaseFactor + 1}, // peak above the bound
		{Kind: PhaseSteady, Duration: time.Hour, Level: math.NaN()},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("phase %+v validated but should not", c)
		}
	}
}

func TestPhaseFactorShapes(t *testing.T) {
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }

	steady := Phase{Kind: PhaseSteady, Duration: time.Hour, Level: 0.7}
	for _, f := range []float64{0, 0.3, 1} {
		if got := steady.Factor(f); !approx(got, 0.7) {
			t.Errorf("steady factor at %v = %v, want 0.7", f, got)
		}
	}

	burst := Phase{Kind: PhaseBurst, Duration: time.Hour, Level: 1, Peak: 3}
	if got := burst.Factor(0.5); !approx(got, 3) {
		t.Errorf("burst peak = %v, want 3", got)
	}
	if got := burst.Factor(0); !approx(got, 1) {
		t.Errorf("burst start = %v, want 1", got)
	}
	if got := burst.Factor(0.25); !approx(got, 2) {
		t.Errorf("burst quarter = %v, want 2", got)
	}

	ramp := Phase{Kind: PhaseRamp, Duration: time.Hour, Level: 0.5, Peak: 1.5}
	if got := ramp.Factor(0.5); !approx(got, 1.0) {
		t.Errorf("ramp midpoint = %v, want 1.0", got)
	}

	diurnal := Phase{Kind: PhaseDiurnal, Duration: 24 * time.Hour, Level: 0.2, Peak: 1.0}
	if got := diurnal.Factor(0); !approx(got, 0.2) {
		t.Errorf("diurnal midnight = %v, want 0.2", got)
	}
	if got := diurnal.Factor(0.5); !approx(got, 1.0) {
		t.Errorf("diurnal midday = %v, want 1.0", got)
	}
	// Clamping.
	if got := diurnal.Factor(2); !approx(got, diurnal.Factor(1)) {
		t.Errorf("factor not clamped above 1: %v", got)
	}
}

func TestPhaseFactorDefaults(t *testing.T) {
	// Zero Level means 1 (unmodified); zero Peak means Level.
	p := Phase{Kind: PhaseBurst, Duration: time.Hour}
	if got := p.Factor(0.5); got != 1 {
		t.Errorf("default burst factor = %v, want 1", got)
	}
	p = Phase{Kind: PhaseRamp, Duration: time.Hour, Level: 0.4}
	if got := p.Factor(1); got != 0.4 {
		t.Errorf("ramp with defaulted peak = %v, want 0.4", got)
	}
}

func TestProfileModulate(t *testing.T) {
	base := PagedirtierProfile(0.55)
	half := base.Modulate(0.5)
	if half.DirtyPagesPerSecond != base.DirtyPagesPerSecond*0.5 {
		t.Errorf("dirty rate not halved: %v vs %v", half.DirtyPagesPerSecond, base.DirtyPagesPerSecond)
	}
	if float64(half.CPUPerVCPU) != 0.5 {
		t.Errorf("CPU demand = %v, want 0.5", half.CPUPerVCPU)
	}
	if half.WorkingSet != base.WorkingSet {
		t.Errorf("working set changed under modulation")
	}

	// Intensifying saturates CPU at one vCPU but scales the dirty rate.
	twice := base.Modulate(2)
	if float64(twice.CPUPerVCPU) != 1 {
		t.Errorf("CPU demand above 1 vCPU: %v", twice.CPUPerVCPU)
	}
	if twice.DirtyPagesPerSecond != base.DirtyPagesPerSecond*2 {
		t.Errorf("dirty rate not doubled")
	}

	// Identity and floor.
	if got := base.Modulate(1); got != base {
		t.Errorf("factor 1 changed the profile")
	}
	if got := base.Modulate(-3); got.DirtyPagesPerSecond != 0 || got.CPUPerVCPU != 0 {
		t.Errorf("negative factor not floored to idle: %+v", got)
	}

	// Modulated profiles stay valid.
	for _, f := range []float64{0, 0.3, 1, 2.5} {
		if err := base.Modulate(f).Validate(); err != nil {
			t.Errorf("modulated profile (factor %v) invalid: %v", f, err)
		}
	}
}
