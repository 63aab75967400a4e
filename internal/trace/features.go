package trace

import (
	"errors"
	"fmt"
	"sort"
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

// At returns the feature sample nearest to t (ties resolve to the earlier
// sample). It errors on an empty trace.
func (f *FeatureTrace) At(t time.Duration) (FeatureSample, error) {
	n := len(f.Samples)
	if n == 0 {
		return FeatureSample{}, errors.New("trace: empty feature trace")
	}
	i := sort.Search(n, func(i int) bool { return f.Samples[i].At >= t })
	if i == 0 {
		return f.Samples[0], nil
	}
	if i == n {
		return f.Samples[n-1], nil
	}
	if f.Samples[i].At-t < t-f.Samples[i-1].At {
		return f.Samples[i], nil
	}
	return f.Samples[i-1], nil
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
// into regression observations: one per power sample within [MS, ME],
// labelled with the phase it belongs to and the nearest feature sample.
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
	var out []Observation
	for _, s := range p.Samples {
		ph := b.PhaseAt(s.At)
		if ph == PhaseNormal {
			continue
		}
		fs, err := f.At(s.At)
		if err != nil {
			return nil, err
		}
		out = append(out, Observation{At: s.At, Phase: ph, Power: s.Power, FeatureSample: fs})
	}
	if len(out) == 0 {
		return nil, errors.New("trace: no power samples fall inside the migration window")
	}
	return out, nil
}
