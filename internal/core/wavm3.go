package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/migration"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
)

// ModelName is the paper's name for the contribution.
const ModelName = "WAVM3"

// PhaseCoeffs are the fitted coefficients of one phase's power model for
// one host role. Unused terms are zero:
//
//	initiation (Eq. 5):  P = α·CPU(h,t) + β·CPU(v,t) + C
//	transfer   (Eq. 6):  P = α·CPU(h,t) + β·BW(S,T,t) + γ·DR(v,t) + δ·CPU(v,t) + C
//	activation (Eq. 7):  P = α·CPU(h,t) + β·CPU(v,t) + C
type PhaseCoeffs struct {
	Alpha float64 // watts per busy host thread
	Beta  float64 // initiation/activation: watts per busy VM vCPU; transfer: watts per bit/s
	Gamma float64 // transfer only: watts per unit dirty ratio
	Delta float64 // transfer only: watts per busy VM vCPU
	C     float64 // bias, includes the training pair's idle power (the paper's C1)
}

// Model is a trained WAVM3 instance for one migration kind: a coefficient
// set per host role per phase.
type Model struct {
	Kind   migration.Kind
	Coeffs map[Role]map[trace.Phase]PhaseCoeffs
	// BiasShift is the C adjustment applied when transporting the model to
	// another machine pair (0 on the training pair; the paper's C2 = C1 −
	// idle-power difference).
	BiasShift float64
}

// Name implements EnergyModel.
func (m *Model) Name() string { return ModelName }

// modelPhases are the phases WAVM3 models.
func modelPhases() []trace.Phase {
	return []trace.Phase{trace.PhaseInitiation, trace.PhaseTransfer, trace.PhaseActivation}
}

// maxFeatures is the widest feature row of any phase: the live transfer
// phase's four regressors.
const maxFeatures = 4

// appendFeatures appends the design-matrix row of one observation of a
// phase to dst. The transfer phase of a non-live migration omits the DR
// and CPU(v) regressors: the guest is suspended throughout, so the
// columns would be identically zero and the design rank deficient.
func appendFeatures(dst []float64, kind migration.Kind, ph trace.Phase, o trace.Observation) []float64 {
	switch ph {
	case trace.PhaseTransfer:
		if kind == migration.Live {
			return append(dst, float64(o.HostCPU), float64(o.Bandwidth), float64(o.DirtyRatio), float64(o.VMCPU))
		}
		return append(dst, float64(o.HostCPU), float64(o.Bandwidth))
	default:
		return append(dst, float64(o.HostCPU), float64(o.VMCPU))
	}
}

// coeffsFrom maps a fitted coefficient vector (intercept first) back onto
// the named coefficients.
func coeffsFrom(kind migration.Kind, ph trace.Phase, beta []float64) PhaseCoeffs {
	pc := PhaseCoeffs{C: beta[0], Alpha: beta[1]}
	switch ph {
	case trace.PhaseTransfer:
		pc.Beta = beta[2]
		if kind == migration.Live {
			pc.Gamma = beta[3]
			pc.Delta = beta[4]
		}
	default:
		pc.Beta = beta[2]
	}
	return pc
}

// fitPhase runs the constrained least-squares fit for one phase over the
// row-major features feat (nf values per observation) and the targets y.
// Feature columns that are identically zero in the data (e.g. CPU(v,t)
// on the target during initiation, where the guest does not exist yet)
// are excluded from the design — they carry no information and would
// make it rank deficient — and their coefficients reported as exact
// zeros, which is how the paper's Tables III/IV show β(i)=0 for the
// target.
func fitPhase(feat []float64, nf int, y []float64) ([]float64, error) {
	n := len(y)
	// A column with (numerically) no variation carries no information
	// beyond the intercept: identically-zero regressors (CPU(v,t) on the
	// target before activation) and constants (HostCPU on an idle-only
	// training subset) both get a zero coefficient, their mean absorbed by
	// the bias.
	live := make([]int, 0, nf)
	for j := 0; j < nf; j++ {
		lo, hi := feat[j], feat[j]
		for i := j; i < len(feat); i += nf {
			if feat[i] < lo {
				lo = feat[i]
			}
			if feat[i] > hi {
				hi = feat[i]
			}
		}
		scale := math.Max(math.Abs(hi), 1)
		if hi-lo > 1e-9*scale {
			live = append(live, j)
		}
	}

	// Fit on the informative columns; if the design is still rank
	// deficient (e.g. two proportional regressors in a degenerate training
	// subset), drop trailing columns until it is solvable — a conservative
	// fallback that always terminates at the intercept-only model.
	for {
		// The design: an intercept column of ones (the paper's constants
		// C), then the live features.
		x := stats.NewMatrix(n, len(live)+1)
		for i := 0; i < n; i++ {
			row := feat[i*nf : (i+1)*nf]
			x.Set(i, 0, 1)
			for jj, j := range live {
				x.Set(i, jj+1, row[j])
			}
		}
		// Constrain every slope (all columns but the intercept) to be
		// non-negative; power cannot fall when load rises.
		constrained := make([]int, len(live))
		for jj := range constrained {
			constrained[jj] = jj + 1
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
}

// Train fits WAVM3 for one migration kind from the training dataset,
// producing one coefficient set per role per phase. The fit is least
// squares with non-negativity on the physical slopes, which reproduces the
// exact zeros of the paper's Tables III/IV (e.g. β(i)=0 on the target,
// where CPU(v,t) is identically zero during initiation). Each (role,
// phase) is gathered into one flat feature buffer and one target buffer,
// both reused across the call.
func Train(ds *Dataset, kind migration.Kind) (*Model, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, errors.New("core: empty training dataset")
	}
	m := &Model{Kind: kind, Coeffs: make(map[Role]map[trace.Phase]PhaseCoeffs)}
	var feat, y []float64
	for _, role := range Roles() {
		recs := ds.Filter(kind, role)
		if len(recs) == 0 {
			return nil, fmt.Errorf("core: no %v/%v records to train on", kind, role)
		}
		// Size the buffers for every observation of the role, so no phase
		// regrows them.
		obs := 0
		for _, rec := range recs {
			obs += len(rec.Obs)
		}
		if cap(y) < obs {
			feat, y = make([]float64, 0, obs*maxFeatures), make([]float64, 0, obs)
		}
		m.Coeffs[role] = make(map[trace.Phase]PhaseCoeffs)
		for _, ph := range modelPhases() {
			feat, y = feat[:0], y[:0]
			for _, rec := range recs {
				for _, o := range rec.Obs {
					if o.Phase != ph {
						continue
					}
					feat = appendFeatures(feat, kind, ph, o)
					y = append(y, float64(o.Power))
				}
			}
			if len(y) < 4 {
				return nil, fmt.Errorf("core: only %d %v readings for %v/%v", len(y), ph, kind, role)
			}
			beta, err := fitPhase(feat, len(feat)/len(y), y)
			if err != nil {
				return nil, fmt.Errorf("core: fitting %v/%v/%v: %w", kind, role, ph, err)
			}
			m.Coeffs[role][ph] = coeffsFrom(kind, ph, beta)
		}
	}
	return m, nil
}

// PredictPower evaluates the phase model for one observation (Eqs. 5–7).
func (m *Model) PredictPower(role Role, o trace.Observation) (units.Watts, error) {
	phases, ok := m.Coeffs[role]
	if !ok {
		return 0, fmt.Errorf("core: model has no coefficients for role %v", role)
	}
	pc, ok := phases[o.Phase]
	if !ok {
		return 0, fmt.Errorf("core: model has no coefficients for phase %v", o.Phase)
	}
	return m.power(pc, o), nil
}

// power evaluates Eqs. 5–7 for one observation with its phase's
// coefficients, shifted by the model's bias and clamped at zero.
func (m *Model) power(pc PhaseCoeffs, o trace.Observation) units.Watts {
	var p float64
	switch o.Phase {
	case trace.PhaseTransfer:
		p = pc.Alpha*float64(o.HostCPU) + pc.Beta*float64(o.Bandwidth) +
			pc.Gamma*float64(o.DirtyRatio) + pc.Delta*float64(o.VMCPU) + pc.C
	default:
		p = pc.Alpha*float64(o.HostCPU) + pc.Beta*float64(o.VMCPU) + pc.C
	}
	p += m.BiasShift
	if p < 0 {
		p = 0
	}
	return units.Watts(p)
}

// PredictEnergy implements EnergyModel: Eq. 3's integral of the predicted
// per-phase powers over the migration, evaluated with the trapezoidal rule
// on the observation timestamps (Eq. 4's per-phase sum falls out of the
// phase labels). The record's role coefficients are looked up once.
func (m *Model) PredictEnergy(r *RunRecord) (units.Joules, error) {
	if err := r.Validate(); err != nil {
		return 0, err
	}
	if r.Kind != m.Kind {
		return 0, fmt.Errorf("core: %v model cannot predict a %v run", m.Kind, r.Kind)
	}
	phases, ok := m.Coeffs[r.Role]
	if !ok {
		return 0, fmt.Errorf("core: model has no coefficients for role %v", r.Role)
	}
	pred := &trace.PowerTrace{Host: r.RunID}
	pred.Reserve(len(r.Obs))
	for _, o := range r.Obs {
		pc, ok := phases[o.Phase]
		if !ok {
			return 0, fmt.Errorf("core: model has no coefficients for phase %v", o.Phase)
		}
		if err := pred.Append(o.At, m.power(pc, o)); err != nil {
			return 0, err
		}
	}
	return pred.Energy(), nil
}

// WithBiasShift returns a copy of the model whose constants are shifted by
// delta watts — the paper's C1→C2 correction: when predicting for a pair
// whose idle power differs from the training pair's, subtract the idle
// difference from the bias. delta is (target pair idle − training pair
// idle), typically negative when moving to more efficient machines.
func (m *Model) WithBiasShift(delta units.Watts) *Model {
	out := &Model{Kind: m.Kind, BiasShift: m.BiasShift + float64(delta),
		Coeffs: make(map[Role]map[trace.Phase]PhaseCoeffs, len(m.Coeffs))}
	for role, phases := range m.Coeffs {
		out.Coeffs[role] = make(map[trace.Phase]PhaseCoeffs, len(phases))
		for ph, pc := range phases {
			out.Coeffs[role][ph] = pc
		}
	}
	return out
}

// EvaluateEnergy scores an energy model on a record set, returning the
// paper's three error metrics over per-run migration energies.
func EvaluateEnergy(m EnergyModel, recs []*RunRecord) (stats.ErrorReport, error) {
	if len(recs) == 0 {
		return stats.ErrorReport{}, errors.New("core: no records to evaluate")
	}
	pred := make([]float64, 0, len(recs))
	act := make([]float64, 0, len(recs))
	for _, r := range recs {
		e, err := m.PredictEnergy(r)
		if err != nil {
			return stats.ErrorReport{}, fmt.Errorf("core: predicting %s: %w", r.RunID, err)
		}
		pred = append(pred, float64(e))
		act = append(act, float64(r.MeasuredEnergy))
	}
	return stats.Errors(pred, act)
}
