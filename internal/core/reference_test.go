package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/migration"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
)

// The fit and the prediction as they were before Train gathered into a
// flat buffer and PredictEnergy resolved a record's coefficients once:
// one row slice per observation, a reduced copy of the rows per fit
// attempt, and two map lookups per predicted sample. bits_test.go and
// campaign_test.go hold the production code to these, bit for bit.

// featureRowRef builds the design-matrix row for one observation.
func featureRowRef(kind migration.Kind, ph trace.Phase, o trace.Observation) []float64 {
	switch ph {
	case trace.PhaseTransfer:
		if kind == migration.Live {
			return []float64{float64(o.HostCPU), float64(o.Bandwidth), float64(o.DirtyRatio), float64(o.VMCPU)}
		}
		return []float64{float64(o.HostCPU), float64(o.Bandwidth)}
	default:
		return []float64{float64(o.HostCPU), float64(o.VMCPU)}
	}
}

// fitPhaseRef is fitPhase over row slices.
func fitPhaseRef(rows [][]float64, y []float64) ([]float64, error) {
	nf := len(rows[0])
	live := make([]int, 0, nf)
	for j := 0; j < nf; j++ {
		lo, hi := rows[0][j], rows[0][j]
		for _, r := range rows {
			if r[j] < lo {
				lo = r[j]
			}
			if r[j] > hi {
				hi = r[j]
			}
		}
		scale := math.Max(math.Abs(hi), 1)
		if hi-lo > 1e-9*scale {
			live = append(live, j)
		}
	}
	for len(live) >= 0 {
		reduced := make([][]float64, len(rows))
		for i, r := range rows {
			rr := make([]float64, len(live))
			for jj, j := range live {
				rr[jj] = r[j]
			}
			reduced[i] = rr
		}
		var x *stats.Matrix
		var err error
		if len(live) == 0 {
			x = stats.NewMatrix(len(rows), 1)
			for i := 0; i < len(rows); i++ {
				x.Set(i, 0, 1)
			}
		} else if x, err = stats.DesignMatrix(reduced, true); err != nil {
			return nil, err
		}
		constrained := make([]int, 0, x.Cols()-1)
		for j := 1; j < x.Cols(); j++ {
			constrained = append(constrained, j)
		}
		fit, err := stats.NonNegativeOLS(x, y, constrained)
		if errors.Is(err, stats.ErrRankDeficient) && len(live) > 0 {
			live = live[:len(live)-1]
			continue
		}
		if err != nil {
			return nil, err
		}
		out := make([]float64, nf+1)
		out[0] = fit.Coeffs[0]
		for jj, j := range live {
			out[j+1] = fit.Coeffs[jj+1]
		}
		return out, nil
	}
	return nil, stats.ErrRankDeficient
}

// trainRef is Train over featureRowRef and fitPhaseRef.
func trainRef(ds *Dataset, kind migration.Kind) (*Model, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, errors.New("core: empty training dataset")
	}
	m := &Model{Kind: kind, Coeffs: make(map[Role]map[trace.Phase]PhaseCoeffs)}
	for _, role := range Roles() {
		recs := ds.Filter(kind, role)
		if len(recs) == 0 {
			return nil, fmt.Errorf("core: no %v/%v records to train on", kind, role)
		}
		m.Coeffs[role] = make(map[trace.Phase]PhaseCoeffs)
		for _, ph := range modelPhases() {
			var rows [][]float64
			var y []float64
			for _, rec := range recs {
				for _, o := range rec.Obs {
					if o.Phase != ph {
						continue
					}
					rows = append(rows, featureRowRef(kind, ph, o))
					y = append(y, float64(o.Power))
				}
			}
			if len(rows) < 4 {
				return nil, fmt.Errorf("core: only %d %v readings for %v/%v", len(rows), ph, kind, role)
			}
			beta, err := fitPhaseRef(rows, y)
			if err != nil {
				return nil, fmt.Errorf("core: fitting %v/%v/%v: %w", kind, role, ph, err)
			}
			m.Coeffs[role][ph] = coeffsFrom(kind, ph, beta)
		}
	}
	return m, nil
}

// predictEnergyRef is PredictEnergy through PredictPower, one sample at a
// time into a trace that grows as it goes.
func predictEnergyRef(m *Model, r *RunRecord) (units.Joules, error) {
	if err := r.Validate(); err != nil {
		return 0, err
	}
	if r.Kind != m.Kind {
		return 0, fmt.Errorf("core: %v model cannot predict a %v run", m.Kind, r.Kind)
	}
	pred := &trace.PowerTrace{Host: r.RunID}
	for _, o := range r.Obs {
		w, err := m.PredictPower(r.Role, o)
		if err != nil {
			return 0, err
		}
		if err := pred.Append(o.At, w); err != nil {
			return 0, err
		}
	}
	return pred.Energy(), nil
}

// refModel makes a model predict through predictEnergyRef.
type refModel struct{ *Model }

func (m refModel) PredictEnergy(r *RunRecord) (units.Joules, error) {
	return predictEnergyRef(m.Model, r)
}

// crossValidateRef is CrossValidate over trainRef and predictEnergyRef.
func crossValidateRef(ds *Dataset, kind migration.Kind, k int, seed int64) (*CVResult, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, errors.New("core: empty dataset for cross-validation")
	}
	if k < 2 {
		return nil, errors.New("core: cross-validation needs k ≥ 2")
	}
	out := &CVResult{Kind: kind, Folds: k, PerRole: make(map[Role][]float64)}
	foldOf := make(map[*RunRecord]int)
	groups := make(map[string][]*RunRecord)
	var keys []string
	var inKind []*RunRecord
	for _, r := range ds.Runs {
		if r.Kind != kind {
			continue
		}
		inKind = append(inKind, r)
		key := fmt.Sprintf("%v|%s", r.Role, r.Scenario)
		if _, seen := groups[key]; !seen {
			keys = append(keys, key)
		}
		groups[key] = append(groups[key], r)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("core: no %v records to cross-validate", kind)
	}
	sort.Strings(keys)
	for gi, key := range keys {
		recs := groups[key]
		folds, err := stats.KFold(len(recs), min(k, len(recs)), seed+int64(gi))
		if err != nil {
			for i, r := range recs {
				foldOf[r] = i % k
			}
			continue
		}
		for fi, fold := range folds {
			for _, idx := range fold {
				foldOf[recs[idx]] = fi
			}
		}
	}
	for fold := 0; fold < k; fold++ {
		train, test := &Dataset{}, &Dataset{}
		for _, r := range inKind {
			if foldOf[r] == fold {
				test.Runs = append(test.Runs, r)
			} else {
				train.Runs = append(train.Runs, r)
			}
		}
		if train.Len() == 0 || test.Len() == 0 {
			return nil, fmt.Errorf("core: fold %d is degenerate (%d train / %d test)", fold, train.Len(), test.Len())
		}
		model, err := trainRef(train, kind)
		if err != nil {
			return nil, fmt.Errorf("core: fold %d: %w", fold, err)
		}
		for _, role := range Roles() {
			recs := test.Filter(kind, role)
			if len(recs) < 2 {
				continue
			}
			rep, err := EvaluateEnergy(refModel{model}, recs)
			if err != nil {
				return nil, fmt.Errorf("core: fold %d %v: %w", fold, role, err)
			}
			out.PerRole[role] = append(out.PerRole[role], rep.NRMSE)
		}
	}
	for _, role := range Roles() {
		if len(out.PerRole[role]) == 0 {
			return nil, fmt.Errorf("core: cross-validation produced no %v folds", role)
		}
	}
	return out, nil
}
