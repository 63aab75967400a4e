package workload

import (
	"fmt"
	"math"
	"time"

	"repro/internal/units"
)

// PhaseKind names the shape of one segment of a workload timeline. The
// paper's campaigns hold workload intensity constant within a run; the
// phase kinds extend that to the time-varying intensities real services
// exhibit, so a scenario can ask "what does this migration cost if it
// happens during the burst / on the ramp / at this hour of the day?".
type PhaseKind string

// The supported phase shapes.
const (
	// PhaseSteady holds the intensity at Level for the whole phase.
	PhaseSteady PhaseKind = "steady"
	// PhaseBurst rises linearly from Level to Peak at the phase midpoint
	// and falls back — a triangular load spike.
	PhaseBurst PhaseKind = "burst"
	// PhaseDiurnal samples a day-shaped sinusoid: Level at position 0
	// (midnight), Peak at position 0.5 (midday), Level again at 1.
	PhaseDiurnal PhaseKind = "diurnal"
	// PhaseRamp rises linearly from Level to Peak across the phase.
	PhaseRamp PhaseKind = "ramp"
)

// PhaseKinds lists the supported kinds in a stable order (for error
// messages and documentation).
func PhaseKinds() []PhaseKind {
	return []PhaseKind{PhaseSteady, PhaseBurst, PhaseDiurnal, PhaseRamp}
}

// MaxPhaseFactor is the largest intensity factor a phase may take. A
// factor scales the page-write rate linearly, and the kernel issues every
// write of a 100 ms step before it next checks for cancellation, so an
// unbounded factor would let one spec hold a worker for hours.
const MaxPhaseFactor = 100

// Phase is one segment of a workload timeline: a shape, a duration, and
// the intensity factors the shape interpolates between. A factor of 1
// reproduces the underlying profile unchanged; factors below 1 throttle
// it towards idle; values above 1, up to MaxPhaseFactor, intensify it
// (CPU demand saturates at one full vCPU, dirty rates scale linearly).
// Note the zero values of Level and Peak select defaults (1 and Level
// respectively) — an exactly-zero intensity is expressed with a
// vanishingly small factor, or by pointing the scenario at the idle
// workload profile instead.
type Phase struct {
	// Name labels the phase in run labels ("night", "lunch-spike"); the
	// kind plus index is used when empty.
	Name string
	// Kind selects the shape.
	Kind PhaseKind
	// Duration is the phase length. It must be positive.
	Duration time.Duration
	// Level is the baseline intensity factor (0 selects 1, the unmodified
	// profile).
	Level float64
	// Peak is the maximum intensity factor of burst/diurnal/ramp shapes
	// (0 selects Level, degenerating the shape to steady).
	Peak float64
}

// withDefaults fills unset factors.
func (p Phase) withDefaults() Phase {
	if p.Level == 0 {
		p.Level = 1
	}
	if p.Peak == 0 {
		p.Peak = p.Level
	}
	return p
}

// Validate rejects unusable phases.
func (p Phase) Validate() error {
	switch p.Kind {
	case PhaseSteady, PhaseBurst, PhaseDiurnal, PhaseRamp:
	default:
		return fmt.Errorf("workload: unknown phase kind %q (want one of %v)", p.Kind, PhaseKinds())
	}
	if p.Duration <= 0 {
		return fmt.Errorf("workload: phase %q has non-positive duration %v", p.label(), p.Duration)
	}
	if p.Level < 0 || p.Peak < 0 {
		return fmt.Errorf("workload: phase %q has negative intensity factor", p.label())
	}
	if !(p.Level <= MaxPhaseFactor && p.Peak <= MaxPhaseFactor) {
		return fmt.Errorf("workload: phase %q has intensity factor above %v", p.label(), MaxPhaseFactor)
	}
	return nil
}

func (p Phase) label() string {
	if p.Name != "" {
		return p.Name
	}
	return string(p.Kind)
}

// Factor evaluates the phase's intensity at a fractional position in
// [0, 1] within the phase. Positions outside the range are clamped.
func (p Phase) Factor(frac float64) float64 {
	p = p.withDefaults()
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	switch p.Kind {
	case PhaseBurst:
		return p.Level + (p.Peak-p.Level)*(1-math.Abs(2*frac-1))
	case PhaseDiurnal:
		return p.Level + (p.Peak-p.Level)*0.5*(1-math.Cos(2*math.Pi*frac))
	case PhaseRamp:
		return p.Level + (p.Peak-p.Level)*frac
	default: // PhaseSteady
		return p.Level
	}
}

// Modulate scales the profile's intensity by a non-negative factor: CPU
// demand per vCPU scales and saturates at a full vCPU, the page-write
// rate scales linearly. The working set and hot/cold skew are properties
// of what the workload touches, not how hard it runs, so they are
// unchanged. Factor 1 returns the profile unmodified.
func (p Profile) Modulate(factor float64) Profile {
	if factor < 0 {
		factor = 0
	}
	if factor == 1 {
		return p
	}
	out := p
	out.CPUPerVCPU = units.Fraction(float64(p.CPUPerVCPU) * factor).Clamp()
	out.DirtyPagesPerSecond = p.DirtyPagesPerSecond * factor
	return out
}
