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

// powerCursor answers interpolation queries on a power trace in
// non-decreasing query order, walking forward over the samples instead
// of searching them, so a whole walk costs one pass. It relies on the
// non-decreasing time order Append enforces.
type powerCursor struct {
	samples []Sample
	next    int // the first sample at or after the last query inside the span
}

// at returns the power linearly interpolated at t, clamped to the first
// or last sample outside the trace's span. The trace must not be empty,
// and t must not be earlier than the previous query.
func (c *powerCursor) at(t time.Duration) units.Watts {
	s := c.samples
	if t <= s[0].At {
		return s[0].Power
	}
	if t >= s[len(s)-1].At {
		return s[len(s)-1].Power
	}
	for s[c.next].At < t {
		c.next++
	}
	// a.At < t ≤ b.At: the segment has a positive length.
	a, b := s[c.next-1], s[c.next]
	frac := float64(t-a.At) / float64(b.At-a.At)
	return units.Watts(float64(a.Power) + frac*(float64(b.Power)-float64(a.Power)))
}

// Resample returns a copy of the trace sampled at fixed dt intervals over
// its span, using linear interpolation. Used to align repeated runs before
// averaging them for the figures.
func (p *PowerTrace) Resample(dt time.Duration) (*PowerTrace, error) {
	if dt <= 0 {
		return nil, errors.New("trace: resample interval must be positive")
	}
	out := &PowerTrace{Host: p.Host}
	if len(p.Samples) == 0 {
		return out, nil
	}
	start, end := p.Samples[0].At, p.Samples[len(p.Samples)-1].At
	out.Samples = make([]Sample, 0, (end-start)/dt+1)
	c := powerCursor{samples: p.Samples}
	for t := start; t <= end; t += dt {
		out.Samples = append(out.Samples, Sample{At: t, Power: c.at(t)})
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
	resampled := make([]powerCursor, 0, len(runs))
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
		resampled = append(resampled, powerCursor{samples: rs.Samples})
	}
	if len(resampled) == 0 {
		return nil, errors.New("trace: all runs empty")
	}
	out := &PowerTrace{Host: runs[0].Host, Samples: make([]Sample, 0, longest/dt+1)}
	for t := time.Duration(0); t <= longest; t += dt {
		sum, cnt := 0.0, 0
		for i := range resampled {
			r := &resampled[i]
			if t > r.samples[len(r.samples)-1].At {
				continue
			}
			sum += float64(r.at(t))
			cnt++
		}
		if cnt == 0 {
			break
		}
		out.Samples = append(out.Samples, Sample{At: t, Power: units.Watts(sum / float64(cnt))})
	}
	return out, nil
}
