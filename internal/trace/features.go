package trace

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/units"
)

// FeatureSample captures the resource-utilisation features of Section IV-B
// at one instant, for one host, aligned with the power meter samples. These
// are the regressors of Eqs. 5–7.
type FeatureSample struct {
	At time.Duration
	// HostCPU is CPU(h,t): VMM + all resident VMs + migration share, in
	// busy-vCPU units.
	HostCPU units.Utilisation
	// VMCPU is CPU(v,t) of the migrating VM (0 when suspended or absent).
	VMCPU units.Utilisation
	// Bandwidth is BW(S,T,t), the state-transfer bandwidth in use.
	Bandwidth units.BitsPerSecond
	// DirtyRatio is DR(v,t) of Eq. 1.
	DirtyRatio units.Fraction
}

// FeatureTrace is a time-ordered series of feature samples for one host.
type FeatureTrace struct {
	Host    string
	Samples []FeatureSample
}

// Append adds a feature sample, enforcing time monotonicity.
func (f *FeatureTrace) Append(s FeatureSample) error {
	if n := len(f.Samples); n > 0 && s.At < f.Samples[n-1].At {
		return fmt.Errorf("trace: feature sample at %v is earlier than previous at %v", s.At, f.Samples[n-1].At)
	}
	f.Samples = append(f.Samples, s)
	return nil
}

// Len returns the number of samples.
func (f *FeatureTrace) Len() int { return len(f.Samples) }

// Reserve grows the sample capacity to at least n so subsequent Appends
// do not regrow the backing array.
func (f *FeatureTrace) Reserve(n int) {
	if cap(f.Samples) >= n {
		return
	}
	s := make([]FeatureSample, len(f.Samples), n)
	copy(s, f.Samples)
	f.Samples = s
}

// featureCursor answers nearest-sample queries on a feature trace in
// non-decreasing query order, walking forward over the samples instead
// of searching them, so a whole walk costs one pass. It relies on the
// non-decreasing time order Append enforces.
type featureCursor struct {
	samples []FeatureSample
	next    int // the first sample at or after the last query
}

// nearest returns the sample nearest to t; a tie resolves to the earlier
// sample, and a query outside the trace's span to its first or last
// sample. The trace must not be empty, and t must not be earlier than
// the previous query.
func (c *featureCursor) nearest(t time.Duration) FeatureSample {
	s := c.samples
	for c.next < len(s) && s[c.next].At < t {
		c.next++
	}
	switch i := c.next; {
	case i == 0:
		return s[0]
	case i == len(s):
		return s[i-1]
	case s[i].At-t < t-s[i-1].At:
		return s[i]
	default:
		return s[i-1]
	}
}

// Observation pairs one power reading with the features that explain it and
// the phase it fell into. The regression datasets of Section VI-F are
// slices of these.
type Observation struct {
	At    time.Duration
	Phase Phase
	Power units.Watts
	FeatureSample
}

// Align joins a power trace with its feature trace and phase boundaries
// into regression observations: one per power sample in [MS, ME),
// labelled with the phase it belongs to and the nearest feature sample
// (the earlier one on a tie). A sample at exactly ME is not one: the
// migration has ended there, and PhaseAt calls it normal. Both traces
// must be in the non-decreasing time order Append enforces.
func Align(p *PowerTrace, f *FeatureTrace, b Boundaries) ([]Observation, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if p.Len() == 0 {
		return nil, errors.New("trace: no power samples to align")
	}
	if f.Len() == 0 {
		return nil, errors.New("trace: no feature samples to align")
	}
	window := p.Samples[p.searchAt(b.MS):p.searchAt(b.ME)]
	if len(window) == 0 {
		return nil, errors.New("trace: no power samples fall inside the migration window")
	}
	out := make([]Observation, len(window))
	c := featureCursor{samples: f.Samples}
	for i, s := range window {
		out[i] = Observation{At: s.At, Phase: b.PhaseAt(s.At), Power: s.Power, FeatureSample: c.nearest(s.At)}
	}
	return out, nil
}
