package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/migration"
	"repro/internal/trace"
	"repro/internal/units"
)

// coeffBits lists a model's coefficients as bit patterns, role by role
// and phase by phase, with the bias shift last.
func coeffBits(m *Model) []uint64 {
	var out []uint64
	for _, role := range Roles() {
		for _, ph := range modelPhases() {
			pc := m.Coeffs[role][ph]
			for _, v := range []float64{pc.Alpha, pc.Beta, pc.Gamma, pc.Delta, pc.C} {
				out = append(out, math.Float64bits(v))
			}
		}
	}
	return append(out, math.Float64bits(m.BiasShift))
}

// checkModelBits fails t unless got and want are the same model bit for
// bit, or both nil.
func checkModelBits(t *testing.T, name string, got, want *Model) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: model %v, reference %v", name, got, want)
	}
	if got == nil {
		return
	}
	g, w := coeffBits(got), coeffBits(want)
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: coefficient %d is %x, reference %x", name, i, g[i], w[i])
		}
	}
}

// errText is an error's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// degenerateDataset is a live dataset whose source host load never
// varies and whose target transfer bandwidth is a fixed multiple of its
// host load: constant and proportional columns, behind fitPhase's live-
// column filter and its rank-deficient fallback.
func degenerateDataset() *Dataset {
	ds := synthDataset(migration.Live, 5, 2)
	for _, r := range ds.Runs {
		for i := range r.Obs {
			o := &r.Obs[i]
			if r.Role == Source {
				o.HostCPU = 12
			} else if o.Phase == trace.PhaseTransfer {
				o.Bandwidth = units.BitsPerSecond(2.5e7 * float64(o.HostCPU))
			}
		}
	}
	return ds
}

// TestTrainMatchesReferenceBits holds Train, PredictEnergy and
// CrossValidate to their references on synthetic datasets of both kinds,
// noiseless and noisy, and on degenerate ones: the same coefficients,
// energies and fold NRMSEs bit for bit, or the same error.
func TestTrainMatchesReferenceBits(t *testing.T) {
	sets := []struct {
		name string
		ds   *Dataset
	}{
		{"live noiseless", synthDataset(migration.Live, 6, 0)},
		{"live noisy", synthDataset(migration.Live, 8, 3)},
		{"non-live noisy", synthDataset(migration.NonLive, 8, 3)},
		{"degenerate", degenerateDataset()},
	}
	for _, set := range sets {
		for _, kind := range []migration.Kind{migration.NonLive, migration.Live} {
			name := fmt.Sprintf("%s, %v model", set.name, kind)
			got, err := Train(set.ds, kind)
			want, errRef := trainRef(set.ds, kind)
			if errText(err) != errText(errRef) {
				t.Fatalf("%s: Train error %v, reference %v", name, err, errRef)
			}
			checkModelBits(t, name, got, want)
			if got == nil {
				continue
			}
			for _, m := range []*Model{got, got.WithBiasShift(-150)} {
				for _, r := range set.ds.Runs {
					e, err := m.PredictEnergy(r)
					eRef, errRef := predictEnergyRef(m, r)
					if errText(err) != errText(errRef) || math.Float64bits(float64(e)) != math.Float64bits(float64(eRef)) {
						t.Fatalf("%s: PredictEnergy(%s) = %v, %v; reference %v, %v", name, r.RunID, e, err, eRef, errRef)
					}
				}
			}
			cv, err := CrossValidate(set.ds, kind, 3, 7)
			cvRef, errRef := crossValidateRef(set.ds, kind, 3, 7)
			if errText(err) != errText(errRef) {
				t.Fatalf("%s: CrossValidate error %v, reference %v", name, err, errRef)
			}
			if cv != nil {
				for _, role := range Roles() {
					if !sameFloatBits(cv.PerRole[role], cvRef.PerRole[role]) {
						t.Fatalf("%s: %v fold NRMSEs %v, reference %v", name, role, cv.PerRole[role], cvRef.PerRole[role])
					}
				}
			}
		}
	}
}

// sameFloatBits reports whether a and b hold the same values bit for bit.
func sameFloatBits(a, b []float64) bool {
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

// TestPredictEnergyRefusesLikeReference: a model without the record's
// role, without one of its phases, or keyed by a phase past activation,
// and a record whose times run backwards, fail or predict exactly as the
// per-sample lookups did.
func TestPredictEnergyRefusesLikeReference(t *testing.T) {
	full := &Model{Kind: migration.Live, Coeffs: synthCoeffs()}
	noTransfer := full.WithBiasShift(0)
	delete(noTransfer.Coeffs[Source], trace.PhaseTransfer)
	noRole := full.WithBiasShift(0)
	delete(noRole.Coeffs, Source)
	odd := full.WithBiasShift(0)
	odd.Coeffs[Source][trace.Phase(7)] = PhaseCoeffs{Alpha: 1, C: 3}

	rec := synthRecord(migration.Live, Source, "r", 3, 1)
	oddRec := synthRecord(migration.Live, Source, "odd", 3, 1)
	oddRec.Obs[5].Phase = trace.Phase(7)
	normalRec := synthRecord(migration.Live, Source, "normal", 3, 1)
	normalRec.Obs[0].Phase = trace.PhaseNormal
	backwards := synthRecord(migration.Live, Source, "back", 3, 1)
	backwards.Obs[4].At = backwards.Obs[2].At - 1

	for _, m := range []*Model{full, noTransfer, noRole, odd} {
		for _, r := range []*RunRecord{rec, oddRec, normalRec, backwards} {
			e, err := m.PredictEnergy(r)
			eRef, errRef := predictEnergyRef(m, r)
			if errText(err) != errText(errRef) || math.Float64bits(float64(e)) != math.Float64bits(float64(eRef)) {
				t.Errorf("%s: PredictEnergy = %v, %v; reference %v, %v", r.RunID, e, err, eRef, errRef)
			}
		}
	}
}
