package trace

import (
	"errors"
	"sort"
	"time"

	"repro/internal/units"
)

// The trace walks as they were before they moved through their traces
// with a forward cursor: a binary search per query, and outputs that grow
// as they go. bits_test.go holds the production walks to these, bit for
// bit.

// featureAtRef returns the feature sample nearest to t (ties resolve to
// the earlier sample). It errors on an empty trace.
func featureAtRef(f *FeatureTrace, t time.Duration) (FeatureSample, error) {
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

// powerAtRef returns the linearly interpolated power at time t. Outside
// the trace span it clamps to the nearest sample.
func powerAtRef(p *PowerTrace, t time.Duration) (units.Watts, error) {
	n := len(p.Samples)
	if n == 0 {
		return 0, errors.New("trace: empty trace")
	}
	if t <= p.Samples[0].At {
		return p.Samples[0].Power, nil
	}
	if t >= p.Samples[n-1].At {
		return p.Samples[n-1].Power, nil
	}
	i := sort.Search(n, func(i int) bool { return p.Samples[i].At >= t })
	a, b := p.Samples[i-1], p.Samples[i]
	if b.At == a.At {
		return b.Power, nil
	}
	frac := float64(t-a.At) / float64(b.At-a.At)
	return units.Watts(float64(a.Power) + frac*(float64(b.Power)-float64(a.Power))), nil
}

// alignRef is Align through featureAtRef.
func alignRef(p *PowerTrace, f *FeatureTrace, b Boundaries) ([]Observation, error) {
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
		fs, err := featureAtRef(f, s.At)
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

// resampleRef is Resample through powerAtRef.
func resampleRef(p *PowerTrace, dt time.Duration) (*PowerTrace, error) {
	if dt <= 0 {
		return nil, errors.New("trace: resample interval must be positive")
	}
	if len(p.Samples) == 0 {
		return &PowerTrace{Host: p.Host}, nil
	}
	out := &PowerTrace{Host: p.Host}
	end := p.Samples[len(p.Samples)-1].At
	for t := p.Samples[0].At; t <= end; t += dt {
		w, err := powerAtRef(p, t)
		if err != nil {
			return nil, err
		}
		out.Samples = append(out.Samples, Sample{At: t, Power: w})
	}
	return out, nil
}

// averageTracesRef is AverageTraces through resampleRef and powerAtRef.
func averageTracesRef(runs []*PowerTrace, dt time.Duration) (*PowerTrace, error) {
	if len(runs) == 0 {
		return nil, errors.New("trace: no runs to average")
	}
	resampled := make([]*PowerTrace, 0, len(runs))
	var longest time.Duration
	for _, r := range runs {
		rs, err := resampleRef(r, dt)
		if err != nil {
			return nil, err
		}
		if len(rs.Samples) == 0 {
			continue
		}
		if d := rs.Samples[len(rs.Samples)-1].At; d > longest {
			longest = d
		}
		resampled = append(resampled, rs)
	}
	if len(resampled) == 0 {
		return nil, errors.New("trace: all runs empty")
	}
	out := &PowerTrace{Host: runs[0].Host}
	for t := time.Duration(0); t <= longest; t += dt {
		sum, cnt := 0.0, 0
		for _, r := range resampled {
			if len(r.Samples) == 0 || t > r.Samples[len(r.Samples)-1].At {
				continue
			}
			w, err := powerAtRef(r, t)
			if err != nil {
				return nil, err
			}
			sum += float64(w)
			cnt++
		}
		if cnt == 0 {
			break
		}
		out.Samples = append(out.Samples, Sample{At: t, Power: units.Watts(sum / float64(cnt))})
	}
	return out, nil
}
