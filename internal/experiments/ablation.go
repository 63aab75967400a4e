package experiments

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/migration"
	"repro/internal/trace"
)

// Ablation quantifies what each workload feature of WAVM3 is worth: it
// retrains the live-migration model with one regressor removed (zeroed in
// both training and test observations) and reports the NRMSE on the test
// split. This is the design-choice justification DESIGN.md calls for:
// DR(v,t), BW(S,T,t) and CPU(v,t) each exist in Eq. 6 because removing
// them costs measurable accuracy.
type Ablation struct {
	// Variant names the removed feature ("full", "no-DR", "no-BW",
	// "no-VMCPU", "no-HostCPU").
	Variant string
	// NRMSE per host role on the test split.
	NRMSE map[core.Role]float64
}

// ablationVariants maps variant names to feature-zeroing mutators.
func ablationVariants() []struct {
	name string
	zero func(*core.RunRecord)
} {
	return []struct {
		name string
		zero func(*core.RunRecord)
	}{
		{"full", func(*core.RunRecord) {}},
		{"no-DR", func(r *core.RunRecord) {
			for i := range r.Obs {
				r.Obs[i].DirtyRatio = 0
			}
		}},
		{"no-BW", func(r *core.RunRecord) {
			for i := range r.Obs {
				r.Obs[i].Bandwidth = 0
			}
		}},
		{"no-VMCPU", func(r *core.RunRecord) {
			for i := range r.Obs {
				r.Obs[i].VMCPU = 0
			}
		}},
		{"no-HostCPU", func(r *core.RunRecord) {
			for i := range r.Obs {
				r.Obs[i].HostCPU = 0
			}
		}},
	}
}

// cloneDataset deep-copies records and observations so mutators cannot
// leak across variants.
func cloneDataset(ds *core.Dataset) *core.Dataset {
	out := &core.Dataset{}
	for _, r := range ds.Runs {
		c := *r
		c.Obs = append([]trace.Observation(nil), r.Obs...)
		out.Runs = append(out.Runs, &c)
	}
	return out
}

// restoreObs copies the observations of src back into dst, a
// cloneDataset copy of it.
func restoreObs(dst, src *core.Dataset) {
	for i, r := range dst.Runs {
		copy(r.Obs, src.Runs[i].Obs)
	}
}

// AblateLive runs the feature-ablation study on a suite's live-migration
// data: for each variant, zero the feature in copies of the train and test
// sets, retrain, and evaluate per role. One copy of each set serves every
// variant: its observations are copied back from the suite's before the
// variant zeroes its feature.
func AblateLive(s *Suite) ([]Ablation, error) {
	if s == nil || s.TrainM == nil || s.TestM == nil {
		return nil, errors.New("experiments: ablation needs a built suite")
	}
	train, test := cloneDataset(s.TrainM), cloneDataset(s.TestM)
	var out []Ablation
	for _, v := range ablationVariants() {
		restoreObs(train, s.TrainM)
		restoreObs(test, s.TestM)
		for _, r := range train.Runs {
			v.zero(r)
		}
		for _, r := range test.Runs {
			v.zero(r)
		}
		model, err := core.Train(train, migration.Live)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %s: %w", v.name, err)
		}
		ab := Ablation{Variant: v.name, NRMSE: make(map[core.Role]float64)}
		for _, role := range core.Roles() {
			recs := test.Filter(migration.Live, role)
			if len(recs) == 0 {
				return nil, fmt.Errorf("experiments: ablation %s has no %v test records", v.name, role)
			}
			rep, err := core.EvaluateEnergy(model, recs)
			if err != nil {
				return nil, err
			}
			ab.NRMSE[role] = rep.NRMSE
		}
		out = append(out, ab)
	}
	return out, nil
}
