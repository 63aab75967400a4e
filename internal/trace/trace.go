package trace

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/units"
)

// Sample is one meter reading: the power drawn at a time offset from the
// start of the recording.
type Sample struct {
	At    time.Duration
	Power units.Watts
}

// PowerTrace is a time-ordered series of power samples for one host.
type PowerTrace struct {
	// Host labels the machine the meter was attached to (e.g. "m01").
	Host string
	// Samples are in non-decreasing time order.
	Samples []Sample
}

// Append adds a sample, enforcing time monotonicity.
func (p *PowerTrace) Append(at time.Duration, w units.Watts) error {
	if n := len(p.Samples); n > 0 && at < p.Samples[n-1].At {
		return fmt.Errorf("trace: sample at %v is earlier than previous sample at %v", at, p.Samples[n-1].At)
	}
	p.Samples = append(p.Samples, Sample{At: at, Power: w})
	return nil
}

// Len returns the number of samples.
func (p *PowerTrace) Len() int { return len(p.Samples) }

// Reserve grows the sample capacity to at least n so subsequent Appends
// do not regrow the backing array. Callers that know the recording span
// up front (the simulation kernel) use it to keep the step loop
// allocation-free.
func (p *PowerTrace) Reserve(n int) {
	if cap(p.Samples) >= n {
		return
	}
	s := make([]Sample, len(p.Samples), n)
	copy(s, p.Samples)
	p.Samples = s
}

// searchAt returns the index of the first sample with At >= t, relying on
// the non-decreasing time order Append enforces.
func (p *PowerTrace) searchAt(t time.Duration) int {
	return sort.Search(len(p.Samples), func(i int) bool { return p.Samples[i].At >= t })
}

// Duration returns the time span covered by the trace.
func (p *PowerTrace) Duration() time.Duration {
	if len(p.Samples) == 0 {
		return 0
	}
	return p.Samples[len(p.Samples)-1].At - p.Samples[0].At
}

// Slice returns the sub-trace with from ≤ t ≤ to. The boundary samples are
// included when present; the result shares no storage with p. The window
// is located by binary search on the sorted-time invariant.
func (p *PowerTrace) Slice(from, to time.Duration) *PowerTrace {
	out := &PowerTrace{Host: p.Host}
	if to < from {
		return out
	}
	lo := p.searchAt(from) // first sample with At >= from
	hi := lo + sort.Search(len(p.Samples)-lo, func(i int) bool { return p.Samples[lo+i].At > to })
	if hi > lo {
		out.Samples = append(out.Samples, p.Samples[lo:hi]...)
	}
	return out
}

// Energy integrates the trace with the trapezoidal rule, returning the
// energy consumed over its whole span. This is how the paper converts power
// traces into per-phase energy (Section V-B).
func (p *PowerTrace) Energy() units.Joules {
	return p.EnergyBetween(0, time.Duration(1<<62-1))
}

// EnergyBetween integrates power over [from, to] ∩ [trace span], linearly
// interpolating at the interval boundaries so that phase boundaries falling
// between samples are handled exactly. Only the segments overlapping the
// window are visited: the first candidate is located by binary search and
// the scan stops at the first segment starting at or past to, which turns
// the per-phase integrations of EnergyByPhase from full-trace scans into
// O(log n + window) work.
func (p *PowerTrace) EnergyBetween(from, to time.Duration) units.Joules {
	n := len(p.Samples)
	if n < 2 || to <= from {
		return 0
	}
	// First segment [i, i+1] that can overlap: the last one starting at or
	// before from, i.e. one before the first sample with At > from.
	start := sort.Search(n, func(i int) bool { return p.Samples[i].At > from }) - 1
	if start < 0 {
		start = 0
	}
	total := 0.0
	for i := start; i < n-1; i++ {
		a, b := p.Samples[i], p.Samples[i+1]
		lo, hi := a.At, b.At
		if lo >= to {
			break
		}
		if hi <= from || hi == lo {
			continue
		}
		// Clip the segment to [from, to], interpolating power at the cuts.
		clipLo, clipHi := lo, hi
		pLo, pHi := float64(a.Power), float64(b.Power)
		if clipLo < from {
			frac := float64(from-lo) / float64(hi-lo)
			pLo = float64(a.Power) + frac*(float64(b.Power)-float64(a.Power))
			clipLo = from
		}
		if clipHi > to {
			frac := float64(to-lo) / float64(hi-lo)
			pHi = float64(a.Power) + frac*(float64(b.Power)-float64(a.Power))
			clipHi = to
		}
		dt := clipHi - clipLo
		total += (pLo + pHi) / 2 * dt.Seconds()
	}
	return units.Joules(total)
}

// MeanPower returns the time-weighted average power of the trace.
func (p *PowerTrace) MeanPower() units.Watts {
	d := p.Duration()
	if d <= 0 {
		return 0
	}
	return units.Watts(float64(p.Energy()) / d.Seconds())
}

// PowerAt returns the linearly interpolated power at time t. Outside the
// trace span it clamps to the nearest sample.
func (p *PowerTrace) PowerAt(t time.Duration) (units.Watts, error) {
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

// Resample returns a copy of the trace sampled at fixed dt intervals over
// its span, using linear interpolation. Used to align repeated runs before
// averaging them for the figures.
func (p *PowerTrace) Resample(dt time.Duration) (*PowerTrace, error) {
	if dt <= 0 {
		return nil, errors.New("trace: resample interval must be positive")
	}
	if len(p.Samples) == 0 {
		return &PowerTrace{Host: p.Host}, nil
	}
	out := &PowerTrace{Host: p.Host}
	end := p.Samples[len(p.Samples)-1].At
	for t := p.Samples[0].At; t <= end; t += dt {
		w, err := p.PowerAt(t)
		if err != nil {
			return nil, err
		}
		out.Samples = append(out.Samples, Sample{At: t, Power: w})
	}
	return out, nil
}

// AverageTraces averages several runs of the same experiment point-wise
// after resampling each to dt. Runs may have different lengths; each output
// sample averages the runs that are still in progress at that instant,
// which matches how the paper overlays ten runs of unequal migration times.
func AverageTraces(runs []*PowerTrace, dt time.Duration) (*PowerTrace, error) {
	if len(runs) == 0 {
		return nil, errors.New("trace: no runs to average")
	}
	resampled := make([]*PowerTrace, 0, len(runs))
	var longest time.Duration
	for _, r := range runs {
		rs, err := r.Resample(dt)
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
			w, err := r.PowerAt(t)
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
