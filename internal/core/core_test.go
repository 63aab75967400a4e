package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/migration"
	"repro/internal/trace"
	"repro/internal/units"
)

// synthCoeffs is a known ground truth for recovery tests.
func synthCoeffs() map[Role]map[trace.Phase]PhaseCoeffs {
	return map[Role]map[trace.Phase]PhaseCoeffs{
		Source: {
			trace.PhaseInitiation: {Alpha: 1.7, Beta: 1.4, C: 700},
			trace.PhaseTransfer:   {Alpha: 2.4, Beta: 1.5e-7, Gamma: 40, Delta: 0.4, C: 420},
			trace.PhaseActivation: {Alpha: 2.4, Beta: 0, C: 660},
		},
		Target: {
			trace.PhaseInitiation: {Alpha: 3.2, Beta: 0, C: 590},
			trace.PhaseTransfer:   {Alpha: 2.6, Beta: 0.7e-7, Gamma: 0, Delta: 0.4, C: 520},
			trace.PhaseActivation: {Alpha: 1.9, Beta: 17, C: 500},
		},
	}
}

func evalTruth(pc PhaseCoeffs, ph trace.Phase, o trace.Observation) float64 {
	if ph == trace.PhaseTransfer {
		return pc.Alpha*float64(o.HostCPU) + pc.Beta*float64(o.Bandwidth) +
			pc.Gamma*float64(o.DirtyRatio) + pc.Delta*float64(o.VMCPU) + pc.C
	}
	return pc.Alpha*float64(o.HostCPU) + pc.Beta*float64(o.VMCPU) + pc.C
}

// synthRecord builds a run whose powers follow the synthetic ground truth
// exactly (up to noiseW of additive noise).
func synthRecord(kind migration.Kind, role Role, id string, seed int64, noiseW float64) *RunRecord {
	rng := rand.New(rand.NewSource(seed))
	coeffs := synthCoeffs()[role]
	rec := &RunRecord{
		Pair: "m01-m02", Kind: kind, Role: role, RunID: id,
		VMMem: 4 * units.GiB,
	}
	at := time.Duration(0)
	// Vary the transfer length per run so run energies span a real range
	// (the NRMSE denominator is the energy range across runs).
	nTransfer := 40 + int((seed*37)%97)
	phaseSpans := []struct {
		ph trace.Phase
		n  int
	}{
		{trace.PhaseInitiation, 8},
		{trace.PhaseTransfer, nTransfer},
		{trace.PhaseActivation, 10},
	}
	for _, span := range phaseSpans {
		for i := 0; i < span.n; i++ {
			o := trace.Observation{
				At:    at,
				Phase: span.ph,
				FeatureSample: trace.FeatureSample{
					At:      at,
					HostCPU: units.Utilisation(2 + rng.Float64()*30),
				},
			}
			if span.ph == trace.PhaseTransfer {
				o.Bandwidth = units.BitsPerSecond(4e8 + rng.Float64()*3e8)
				if kind == migration.Live {
					o.DirtyRatio = units.Fraction(rng.Float64())
					o.VMCPU = units.Utilisation(rng.Float64() * 4)
				}
			} else if role == Source || span.ph == trace.PhaseActivation {
				o.VMCPU = units.Utilisation(rng.Float64() * 4)
			}
			o.Power = units.Watts(evalTruth(coeffs[span.ph], span.ph, o) + rng.NormFloat64()*noiseW)
			rec.Obs = append(rec.Obs, o)
			at += 500 * time.Millisecond
		}
	}
	// Measured energy = trapezoidal integral of the generated powers.
	pt := &trace.PowerTrace{}
	for _, o := range rec.Obs {
		_ = pt.Append(o.At, o.Power)
	}
	rec.MeasuredEnergy = pt.Energy()
	rec.BytesSent = 4 * units.GiB
	rec.MeanBandwidth = 550e6
	return rec
}

func synthDataset(kind migration.Kind, runs int, noiseW float64) *Dataset {
	ds := &Dataset{}
	for i := 0; i < runs; i++ {
		for _, role := range Roles() {
			rec := synthRecord(kind, role, "run", int64(i*2+int(role))+1, noiseW)
			rec.RunID = rec.RunID + string(rune('0'+i)) + role.String()
			if err := ds.Add(rec); err != nil {
				panic(err)
			}
		}
	}
	return ds
}

func TestTrainRecoversKnownCoefficients(t *testing.T) {
	ds := synthDataset(migration.Live, 6, 0) // noiseless
	m, err := Train(ds, migration.Live)
	if err != nil {
		t.Fatal(err)
	}
	want := synthCoeffs()
	for _, role := range Roles() {
		for _, ph := range modelPhases() {
			got := m.Coeffs[role][ph]
			w := want[role][ph]
			check := func(name string, g, wv, tol float64) {
				if math.Abs(g-wv) > tol {
					t.Errorf("%v/%v %s = %v, want %v", role, ph, name, g, wv)
				}
			}
			check("alpha", got.Alpha, w.Alpha, 1e-6)
			check("C", got.C, w.C, 1e-3)
			if ph == trace.PhaseTransfer {
				check("beta", got.Beta, w.Beta, 1e-12)
				check("gamma", got.Gamma, w.Gamma, 1e-4)
				check("delta", got.Delta, w.Delta, 1e-4)
			} else {
				check("beta", got.Beta, w.Beta, 1e-6)
			}
		}
	}
}

func TestTrainReproducesExactZeros(t *testing.T) {
	// The target's initiation β and transfer γ are exactly zero in the
	// ground truth (as in the paper's tables); the non-negative fit must
	// return hard zeros, not small negatives.
	ds := synthDataset(migration.Live, 6, 1.5)
	m, err := Train(ds, migration.Live)
	if err != nil {
		t.Fatal(err)
	}
	// The target's initiation β multiplies an identically-zero regressor
	// (the guest is not on the target yet): the fit must report a hard 0.
	if b := m.Coeffs[Target][trace.PhaseInitiation].Beta; b != 0 {
		t.Errorf("target initiation beta = %v, want exactly 0", b)
	}
	// The target's transfer γ is 0 in the ground truth but DR varies, so
	// under noise the constrained fit may leave a small residue.
	if g := m.Coeffs[Target][trace.PhaseTransfer].Gamma; g < 0 || g > 1 {
		t.Errorf("target transfer gamma = %v, want ≈0 and never negative", g)
	}
}

func TestTrainNonLiveOmitsGuestTerms(t *testing.T) {
	ds := synthDataset(migration.NonLive, 4, 1)
	m, err := Train(ds, migration.NonLive)
	if err != nil {
		t.Fatal(err)
	}
	pc := m.Coeffs[Source][trace.PhaseTransfer]
	if pc.Gamma != 0 || pc.Delta != 0 {
		t.Errorf("non-live transfer must have no DR/VMCPU terms, got γ=%v δ=%v", pc.Gamma, pc.Delta)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, migration.Live); err == nil {
		t.Error("nil dataset must fail")
	}
	if _, err := Train(&Dataset{}, migration.Live); err == nil {
		t.Error("empty dataset must fail")
	}
	// A dataset with only source records cannot train the target model.
	ds := &Dataset{}
	_ = ds.Add(synthRecord(migration.Live, Source, "s", 1, 0))
	if _, err := Train(ds, migration.Live); err == nil {
		t.Error("missing role must fail")
	}
}

func TestPredictEnergyCloseToMeasured(t *testing.T) {
	ds := synthDataset(migration.Live, 8, 2)
	train, test, err := ds.SplitReadings(0.2, 42)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(train, migration.Live)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := EvaluateEnergy(m, test.Filter(migration.Live, Source))
	if err != nil {
		t.Fatal(err)
	}
	if rep.NRMSE > 0.05 {
		t.Errorf("NRMSE on in-distribution data = %v, want < 5%%", rep.NRMSE)
	}
}

func TestPredictEnergyKindMismatch(t *testing.T) {
	ds := synthDataset(migration.Live, 4, 0)
	m, _ := Train(ds, migration.Live)
	rec := synthRecord(migration.NonLive, Source, "x", 9, 0)
	if _, err := m.PredictEnergy(rec); err == nil {
		t.Error("kind mismatch must fail")
	}
}

func TestPredictPowerUnknownPhase(t *testing.T) {
	ds := synthDataset(migration.Live, 4, 0)
	m, _ := Train(ds, migration.Live)
	o := trace.Observation{Phase: trace.PhaseNormal}
	if _, err := m.PredictPower(Source, o); err == nil {
		t.Error("normal phase has no model and must fail")
	}
	if _, err := m.PredictPower(Role(9), trace.Observation{Phase: trace.PhaseTransfer}); err == nil {
		t.Error("unknown role must fail")
	}
}

func TestWithBiasShift(t *testing.T) {
	ds := synthDataset(migration.Live, 4, 0)
	m, _ := Train(ds, migration.Live)
	o := synthRecord(migration.Live, Source, "x", 3, 0).Obs[0]
	base, err := m.PredictPower(Source, o)
	if err != nil {
		t.Fatal(err)
	}
	shifted := m.WithBiasShift(-100)
	got, err := shifted.PredictPower(Source, o)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(base-got)-100) > 1e-9 {
		t.Errorf("bias shift moved prediction by %v, want 100", base-got)
	}
	// The original is untouched.
	again, _ := m.PredictPower(Source, o)
	if again != base {
		t.Error("WithBiasShift mutated the original model")
	}
	// Shifts compose.
	twice := shifted.WithBiasShift(-50)
	got2, _ := twice.PredictPower(Source, o)
	if math.Abs(float64(base-got2)-150) > 1e-9 {
		t.Errorf("composed shift = %v, want 150", base-got2)
	}
}

func TestPredictPowerNeverNegative(t *testing.T) {
	ds := synthDataset(migration.Live, 4, 0)
	m, _ := Train(ds, migration.Live)
	huge := m.WithBiasShift(-1e6)
	o := synthRecord(migration.Live, Source, "x", 3, 0).Obs[0]
	w, err := huge.PredictPower(Source, o)
	if err != nil {
		t.Fatal(err)
	}
	if w < 0 {
		t.Errorf("predicted power %v must clamp at zero", w)
	}
}

func TestPredictPhaseEnergy(t *testing.T) {
	rec := synthRecord(migration.Live, Source, "x", 5, 0)
	ds := synthDataset(migration.Live, 4, 0)
	m, _ := Train(ds, migration.Live)
	// Phase boundaries matching synthRecord's spans (8 initiation and 10
	// activation samples at 500 ms around the variable-length transfer).
	last := rec.Obs[len(rec.Obs)-1].At
	b := trace.Boundaries{
		MS: 0,
		TS: 4 * time.Second,
		TE: last - 5*time.Second + 500*time.Millisecond,
		ME: last + 500*time.Millisecond,
	}
	pe, err := m.PredictPhaseEnergy(rec, b)
	if err != nil {
		t.Fatal(err)
	}
	if pe.Initiation <= 0 || pe.Transfer <= 0 || pe.Activation <= 0 {
		t.Errorf("phase energies must be positive: %+v", pe)
	}
	total, err := m.PredictEnergy(rec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(pe.Total()-total)) > 1e-6*float64(total) {
		t.Errorf("phase sum %v != total %v", pe.Total(), total)
	}
}

func TestDatasetFilters(t *testing.T) {
	ds := synthDataset(migration.Live, 3, 0)
	nl := synthRecord(migration.NonLive, Source, "nl", 99, 0)
	_ = ds.Add(nl)
	if got := len(ds.Filter(migration.Live, Source)); got != 3 {
		t.Errorf("live/source = %d, want 3", got)
	}
	if got := len(ds.Filter(migration.NonLive, Source)); got != 1 {
		t.Errorf("non-live/source = %d, want 1", got)
	}
	if got := len(ds.FilterPair("m01-m02", migration.Live, Target)); got != 3 {
		t.Errorf("pair filter = %d, want 3", got)
	}
	if got := len(ds.FilterPair("o1-o2", migration.Live, Target)); got != 0 {
		t.Errorf("missing pair filter = %d, want 0", got)
	}
}

func TestSplitReadings(t *testing.T) {
	ds := synthDataset(migration.Live, 4, 0)
	train, test, err := ds.SplitReadings(0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() == 0 || test.Len() == 0 {
		t.Fatal("both splits must be non-empty")
	}
	// Reading counts per run: 20% train, 80% test, disjoint and complete.
	orig := ds.Runs[0]
	var tr, te *RunRecord
	for _, r := range train.Runs {
		if r.RunID == orig.RunID {
			tr = r
		}
	}
	for _, r := range test.Runs {
		if r.RunID == orig.RunID {
			te = r
		}
	}
	if tr == nil || te == nil {
		t.Fatal("run missing from a split")
	}
	if len(tr.Obs)+len(te.Obs) != len(orig.Obs) {
		t.Errorf("split lost readings: %d + %d != %d", len(tr.Obs), len(te.Obs), len(orig.Obs))
	}
	frac := float64(len(tr.Obs)) / float64(len(orig.Obs))
	if frac < 0.15 || frac > 0.25 {
		t.Errorf("training fraction = %v, want ≈0.2", frac)
	}
	// Observations stay time-ordered after the split.
	for i := 1; i < len(tr.Obs); i++ {
		if tr.Obs[i].At < tr.Obs[i-1].At {
			t.Fatal("training observations out of order")
		}
	}
	if _, _, err := ds.SplitReadings(0, 1); err == nil {
		t.Error("frac 0 must fail")
	}
	if _, _, err := ds.SplitReadings(1, 1); err == nil {
		t.Error("frac 1 must fail")
	}
}

func TestSplitRuns(t *testing.T) {
	ds := synthDataset(migration.Live, 10, 0) // 20 records
	train, test, err := ds.SplitRuns(0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len()+test.Len() != ds.Len() {
		t.Errorf("split lost runs: %d + %d != %d", train.Len(), test.Len(), ds.Len())
	}
	if train.Len() != 6 {
		t.Errorf("train = %d runs, want 6 (30%% of 20)", train.Len())
	}
	small := &Dataset{}
	_ = small.Add(synthRecord(migration.Live, Source, "only", 1, 0))
	if _, _, err := small.SplitRuns(0.5, 1); err == nil {
		t.Error("single-run split must fail")
	}
}

func TestRunRecordValidate(t *testing.T) {
	r := &RunRecord{RunID: "x"}
	if err := r.Validate(); err == nil {
		t.Error("no observations must fail")
	}
	r = synthRecord(migration.Live, Source, "x", 1, 0)
	r.MeasuredEnergy = 0
	if err := r.Validate(); err == nil {
		t.Error("zero energy must fail")
	}
}

func TestRoleString(t *testing.T) {
	if Source.String() != "Source" || Target.String() != "Target" {
		t.Error("role names wrong")
	}
}

func TestEvaluateEnergyErrors(t *testing.T) {
	ds := synthDataset(migration.Live, 4, 0)
	m, _ := Train(ds, migration.Live)
	if _, err := EvaluateEnergy(m, nil); err == nil {
		t.Error("empty evaluation must fail")
	}
}

func TestCrossValidate(t *testing.T) {
	ds := &Dataset{}
	// Two "scenarios" per role with six runs each, so folds stay stratified.
	for i := 0; i < 6; i++ {
		for _, role := range Roles() {
			for _, scen := range []string{"scenA", "scenB"} {
				rec := synthRecord(migration.Live, role, "cv", int64(i*7+int(role)*3+len(scen))+1, 2)
				rec.RunID = scen + rec.RunID + string(rune('0'+i)) + role.String()
				rec.Scenario = scen
				if err := ds.Add(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cv, err := CrossValidate(ds, migration.Live, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if cv.Folds != 3 {
		t.Errorf("folds = %d", cv.Folds)
	}
	for _, role := range Roles() {
		if len(cv.PerRole[role]) == 0 {
			t.Fatalf("no folds evaluated for %v", role)
		}
		m := cv.MeanNRMSE(role)
		if m <= 0 || m > 0.2 {
			t.Errorf("%v mean NRMSE = %v, want small on in-distribution data", role, m)
		}
		if cv.StdNRMSE(role) < 0 {
			t.Errorf("negative std")
		}
	}
}

func TestCrossValidateErrors(t *testing.T) {
	if _, err := CrossValidate(nil, migration.Live, 3, 1); err == nil {
		t.Error("nil dataset must fail")
	}
	ds := synthDataset(migration.Live, 4, 0)
	if _, err := CrossValidate(ds, migration.Live, 1, 1); err == nil {
		t.Error("k=1 must fail")
	}
	if _, err := CrossValidate(ds, migration.NonLive, 2, 1); err == nil {
		t.Error("kind with no records must fail")
	}
}
