package trace

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/units"
)

// Phase identifies one of the migration energy phases of Section III-D.
type Phase int

// Phases in chronological order. Normal bounds the migration on both sides.
const (
	PhaseNormal Phase = iota
	PhaseInitiation
	PhaseTransfer
	PhaseActivation
)

// String returns the paper's name for the phase.
func (p Phase) String() string {
	switch p {
	case PhaseNormal:
		return "normal"
	case PhaseInitiation:
		return "initiation"
	case PhaseTransfer:
		return "transfer"
	case PhaseActivation:
		return "activation"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Boundaries are the four instants the model of Section IV-A is defined by:
// MS (migration start), TS/TE (transfer start/end) and ME (migration end).
// Initiation = [MS, TS), Transfer = [TS, TE), Activation = [TE, ME).
type Boundaries struct {
	MS, TS, TE, ME time.Duration
}

// Validate checks the chronological ordering MS ≤ TS ≤ TE ≤ ME.
func (b Boundaries) Validate() error {
	if b.MS < 0 || b.TS < b.MS || b.TE < b.TS || b.ME < b.TE {
		return fmt.Errorf("trace: phase boundaries out of order: ms=%v ts=%v te=%v me=%v", b.MS, b.TS, b.TE, b.ME)
	}
	return nil
}

// PhaseAt returns the phase t falls into.
func (b Boundaries) PhaseAt(t time.Duration) Phase {
	switch {
	case t < b.MS:
		return PhaseNormal
	case t < b.TS:
		return PhaseInitiation
	case t < b.TE:
		return PhaseTransfer
	case t < b.ME:
		return PhaseActivation
	default:
		return PhaseNormal
	}
}

// Span returns the [from, to) interval of the given migration phase.
func (b Boundaries) Span(p Phase) (from, to time.Duration, err error) {
	switch p {
	case PhaseInitiation:
		return b.MS, b.TS, nil
	case PhaseTransfer:
		return b.TS, b.TE, nil
	case PhaseActivation:
		return b.TE, b.ME, nil
	default:
		return 0, 0, fmt.Errorf("trace: phase %v has no single span", p)
	}
}

// PhaseEnergy bundles the paper's four energy metrics for one host: the
// energy of each phase, and their sum (Eq. 4).
type PhaseEnergy struct {
	Initiation units.Joules
	Transfer   units.Joules
	Activation units.Joules
}

// Total returns Emigr = E(i) + E(t) + E(a).
func (e PhaseEnergy) Total() units.Joules {
	return e.Initiation + e.Transfer + e.Activation
}

// EnergyByPhase splits a power trace at the migration boundaries and
// integrates each phase separately (Section V-B's "four energy metrics").
func EnergyByPhase(p *PowerTrace, b Boundaries) (PhaseEnergy, error) {
	var out PhaseEnergy
	if err := b.Validate(); err != nil {
		return out, err
	}
	if p.Len() < 2 {
		return out, errors.New("trace: trace too short to integrate")
	}
	out.Initiation = p.EnergyBetween(b.MS, b.TS)
	out.Transfer = p.EnergyBetween(b.TS, b.TE)
	out.Activation = p.EnergyBetween(b.TE, b.ME)
	return out, nil
}

// ExcessEnergy returns the migration energy above the pre-migration
// baseline power: ∫(P − baseline) over [MS, ME]. The paper isolates the
// migration's own cost by ensuring constant consumption during normal
// execution; subtracting that baseline makes runs with different idle
// powers comparable.
func ExcessEnergy(p *PowerTrace, b Boundaries, baseline units.Watts) (units.Joules, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	gross := p.EnergyBetween(b.MS, b.ME)
	base := units.EnergyOver(baseline, b.ME-b.MS)
	return gross - base, nil
}

// BaselinePower estimates the normal-execution power before the migration
// begins: the time-weighted mean power over [0, MS). Returns an error when
// the trace has no pre-migration samples.
func BaselinePower(p *PowerTrace, b Boundaries) (units.Watts, error) {
	if b.MS <= 0 {
		return 0, errors.New("trace: no pre-migration window")
	}
	pre := p.Slice(0, b.MS-time.Nanosecond) // [0, MS): exclude the first migration sample
	if pre.Len() < 2 {
		return 0, errors.New("trace: too few pre-migration samples")
	}
	return pre.MeanPower(), nil
}
