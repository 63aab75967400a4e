package core_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/migration"
	"repro/internal/sim"
	"repro/internal/units"
)

// quickCampaigns runs the model campaigns of "wavm3bench -quick -seed
// seed" on both machine pairs and builds their suite.
func quickCampaigns(t *testing.T, seed int64) (m, o *experiments.Campaign, s *experiments.Suite) {
	t.Helper()
	cache := sim.NewCache(0)
	mcfg := experiments.DefaultConfig(hw.PairM)
	mcfg.Seed = seed
	ocfg := experiments.DefaultConfig(hw.PairO)
	ocfg.Seed = seed + 1000
	for _, c := range []*experiments.Config{&mcfg, &ocfg} {
		c.Cache = cache
		c.MinRuns = 2
		c.VarianceTol = 0.9
		c.LoadLevels = []int{0, 5, 8}
		c.DirtyLevels = []units.Fraction{0.05, 0.55, 0.95}
	}
	families := []experiments.Family{experiments.CPULoadSource, experiments.CPULoadTarget, experiments.MemLoadVM}
	var err error
	if m, err = experiments.RunCampaign(mcfg, families...); err != nil {
		t.Fatal(err)
	}
	if o, err = experiments.RunCampaign(ocfg, families...); err != nil {
		t.Fatal(err)
	}
	if s, err = experiments.BuildSuite(m, o); err != nil {
		t.Fatal(err)
	}
	return m, o, s
}

// bitsEqual reports whether a and b are the same float64 bit for bit.
func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkCoeffs fails t unless got and want hold the same coefficients bit
// for bit.
func checkCoeffs(t *testing.T, name string, got, want *core.Model) {
	t.Helper()
	for _, role := range core.Roles() {
		if len(got.Coeffs[role]) != len(want.Coeffs[role]) {
			t.Fatalf("%s: %v has %d phases, reference %d", name, role, len(got.Coeffs[role]), len(want.Coeffs[role]))
		}
		for ph, w := range want.Coeffs[role] {
			g := got.Coeffs[role][ph]
			for _, p := range [][2]float64{{g.Alpha, w.Alpha}, {g.Beta, w.Beta}, {g.Gamma, w.Gamma}, {g.Delta, w.Delta}, {g.C, w.C}} {
				if !bitsEqual(p[0], p[1]) {
					t.Fatalf("%s: %v/%v coefficients %+v, reference %+v", name, role, ph, g, w)
				}
			}
		}
	}
}

// ablationZero mirrors the feature each ablation variant zeroes.
var ablationZero = map[string]func(r *core.RunRecord){
	"full": func(*core.RunRecord) {},
	"no-DR": func(r *core.RunRecord) {
		for i := range r.Obs {
			r.Obs[i].DirtyRatio = 0
		}
	},
	"no-BW": func(r *core.RunRecord) {
		for i := range r.Obs {
			r.Obs[i].Bandwidth = 0
		}
	},
	"no-VMCPU": func(r *core.RunRecord) {
		for i := range r.Obs {
			r.Obs[i].VMCPU = 0
		}
	},
	"no-HostCPU": func(r *core.RunRecord) {
		for i := range r.Obs {
			r.Obs[i].HostCPU = 0
		}
	},
}

// zeroedCopy deep-copies ds with one ablation variant applied.
func zeroedCopy(ds *core.Dataset, zero func(*core.RunRecord)) *core.Dataset {
	out := &core.Dataset{}
	for _, r := range ds.Runs {
		c := *r
		c.Obs = append(c.Obs[:0:0], r.Obs...)
		zero(&c)
		out.Runs = append(out.Runs, &c)
	}
	return out
}

// TestCampaignFitsMatchReferenceBits holds the analysis of the -quick
// campaigns of both machine pairs, at seeds 1 and 5, to the references:
// Train of both kinds on each pair's dataset, PredictEnergy of every
// record, 4-fold CrossValidate of both kinds and AblateLive give the same
// coefficients, energies and NRMSEs bit for bit.
func TestCampaignFitsMatchReferenceBits(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign integration test")
	}
	if core.RaceEnabled {
		t.Skip("compares arithmetic, which the race detector does not check, over campaigns it slows down")
	}
	for _, seed := range []int64{1, 5} {
		m, o, suite := quickCampaigns(t, seed)
		validated := 0
		for _, camp := range []*experiments.Campaign{m, o} {
			for _, kind := range []migration.Kind{migration.NonLive, migration.Live} {
				name := fmt.Sprintf("seed %d, %s, %v", seed, camp.Config.Pair, kind)
				got, err := core.Train(camp.Dataset, kind)
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.TrainRef(camp.Dataset, kind)
				if err != nil {
					t.Fatal(err)
				}
				checkCoeffs(t, name, got, want)
				for _, r := range camp.Dataset.Runs {
					if r.Kind != kind {
						continue
					}
					e, err := got.PredictEnergy(r)
					eRef, errRef := core.PredictEnergyRef(got, r)
					if err != nil || errRef != nil || !bitsEqual(float64(e), float64(eRef)) {
						t.Fatalf("%s: PredictEnergy(%s) = %v, %v; reference %v, %v", name, r.RunID, e, err, eRef, errRef)
					}
				}
				// When no (role, point) group of the kind has four runs,
				// the last fold gets no test record: both sides must then
				// refuse alike.
				cv, err := core.CrossValidate(camp.Dataset, kind, 4, camp.Config.Seed+29)
				cvRef, errRef := core.CrossValidateRef(camp.Dataset, kind, 4, camp.Config.Seed+29)
				if fmt.Sprint(err) != fmt.Sprint(errRef) {
					t.Fatalf("%s: CrossValidate error %v, reference %v", name, err, errRef)
				}
				if err != nil {
					continue
				}
				validated++
				for _, role := range core.Roles() {
					g, w := cv.PerRole[role], cvRef.PerRole[role]
					if len(g) != len(w) {
						t.Fatalf("%s: %v has %d folds, reference %d", name, role, len(g), len(w))
					}
					for i := range g {
						if !bitsEqual(g[i], w[i]) {
							t.Fatalf("%s: %v fold NRMSEs %v, reference %v", name, role, g, w)
						}
					}
				}
			}
		}

		if validated == 0 {
			t.Fatalf("seed %d: no campaign cross-validated", seed)
		}
		t.Logf("seed %d: %d of 4 campaign cross-validations ran", seed, validated)

		abs, err := experiments.AblateLive(suite)
		if err != nil {
			t.Fatal(err)
		}
		if len(abs) != len(ablationZero) {
			t.Fatalf("seed %d: %d ablation variants, want %d", seed, len(abs), len(ablationZero))
		}
		for _, ab := range abs {
			zero, ok := ablationZero[ab.Variant]
			if !ok {
				t.Fatalf("unknown ablation variant %q", ab.Variant)
			}
			test := zeroedCopy(suite.TestM, zero)
			model, err := core.TrainRef(zeroedCopy(suite.TrainM, zero), migration.Live)
			if err != nil {
				t.Fatal(err)
			}
			for _, role := range core.Roles() {
				want, err := core.EvaluateEnergyRef(model, test.Filter(migration.Live, role))
				if err != nil {
					t.Fatal(err)
				}
				if !bitsEqual(ab.NRMSE[role], want.NRMSE) {
					t.Fatalf("seed %d: ablation %s %v NRMSE %v, reference %v", seed, ab.Variant, role, ab.NRMSE[role], want.NRMSE)
				}
			}
		}
	}
}
