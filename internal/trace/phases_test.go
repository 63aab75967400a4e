package trace

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

func validB() Boundaries {
	return Boundaries{
		MS: 10 * time.Second,
		TS: 15 * time.Second,
		TE: 45 * time.Second,
		ME: 50 * time.Second,
	}
}

func TestBoundariesValidate(t *testing.T) {
	if err := validB().Validate(); err != nil {
		t.Errorf("valid boundaries rejected: %v", err)
	}
	bad := []Boundaries{
		{MS: -1},
		{MS: 10, TS: 5, TE: 20, ME: 30},
		{MS: 10, TS: 15, TE: 12, ME: 30},
		{MS: 10, TS: 15, TE: 20, ME: 18},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad boundaries %d accepted", i)
		}
	}
}

func TestPhaseAt(t *testing.T) {
	b := validB()
	cases := []struct {
		at   time.Duration
		want Phase
	}{
		{0, PhaseNormal},
		{10 * time.Second, PhaseInitiation},
		{14 * time.Second, PhaseInitiation},
		{15 * time.Second, PhaseTransfer},
		{44 * time.Second, PhaseTransfer},
		{45 * time.Second, PhaseActivation},
		{49 * time.Second, PhaseActivation},
		{50 * time.Second, PhaseNormal},
		{time.Hour, PhaseNormal},
	}
	for _, tc := range cases {
		if got := b.PhaseAt(tc.at); got != tc.want {
			t.Errorf("PhaseAt(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
}

func TestPhaseStrings(t *testing.T) {
	want := map[Phase]string{
		PhaseNormal:     "normal",
		PhaseInitiation: "initiation",
		PhaseTransfer:   "transfer",
		PhaseActivation: "activation",
		Phase(9):        "Phase(9)",
	}
	for p, w := range want {
		if p.String() != w {
			t.Errorf("Phase %d String = %q, want %q", int(p), p.String(), w)
		}
	}
}

func TestEnergyByPhaseSumsToMigrationEnergy(t *testing.T) {
	// 60 s constant 600 W trace; phase split must conserve energy.
	tr := &PowerTrace{}
	for i := 0; i <= 120; i++ {
		_ = tr.Append(time.Duration(i)*500*time.Millisecond, 600)
	}
	b := validB()
	pe, err := EnergyByPhase(tr, b)
	if err != nil {
		t.Fatal(err)
	}
	whole := tr.EnergyBetween(b.MS, b.ME)
	if math.Abs(float64(pe.Total()-whole)) > 1e-6 {
		t.Errorf("phase sum %v != migration window energy %v", pe.Total(), whole)
	}
	// 40s migration at 600 W = 24 kJ.
	if math.Abs(pe.Total().KiloJoules()-24) > 1e-6 {
		t.Errorf("total = %v kJ, want 24", pe.Total().KiloJoules())
	}
	// Individual phases: 5 s, 30 s, 5 s at 600 W.
	if math.Abs(float64(pe.Initiation)-3000) > 1e-6 {
		t.Errorf("initiation = %v, want 3000 J", pe.Initiation)
	}
	if math.Abs(float64(pe.Transfer)-18000) > 1e-6 {
		t.Errorf("transfer = %v, want 18000 J", pe.Transfer)
	}
	if math.Abs(float64(pe.Activation)-3000) > 1e-6 {
		t.Errorf("activation = %v, want 3000 J", pe.Activation)
	}
}

func TestEnergyByPhaseConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr := &PowerTrace{}
		r := seed
		next := func() float64 {
			r = r*6364136223846793005 + 1442695040888963407
			return float64(uint64(r)>>40%500) + 400
		}
		for i := 0; i <= 200; i++ {
			_ = tr.Append(time.Duration(i)*500*time.Millisecond, units.Watts(next()))
		}
		b := Boundaries{MS: 5 * time.Second, TS: 20 * time.Second, TE: 80 * time.Second, ME: 95 * time.Second}
		pe, err := EnergyByPhase(tr, b)
		if err != nil {
			return false
		}
		whole := tr.EnergyBetween(b.MS, b.ME)
		return math.Abs(float64(pe.Total()-whole)) < 1e-6*math.Max(1, float64(whole))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEnergyByPhaseValidation(t *testing.T) {
	tr := mkTrace(t, 1, 2, 3)
	if _, err := EnergyByPhase(tr, Boundaries{MS: 5, TS: 1}); err == nil {
		t.Error("invalid boundaries must fail")
	}
	short := mkTrace(t, 1)
	if _, err := EnergyByPhase(short, validB()); err == nil {
		t.Error("too-short trace must fail")
	}
}
