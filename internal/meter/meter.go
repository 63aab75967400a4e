// Package meter emulates the Voltech PM1000+ power analysers of the
// paper's measurement methodology (Section V-B): AC-side sampling at 2 Hz,
// a 0.3% accuracy band, and the stabilisation rule — "twenty consecutive
// power measurements with a difference lower than 0.3%" — that gates the
// start and end of every experimental run.
package meter

import (
	"errors"
	"math"
	"math/rand"
	"time"

	"repro/internal/trace"
	"repro/internal/units"
)

// Defaults from the paper's methodology.
const (
	// DefaultPeriod is the 2 Hz sampling interval ("traced every 500
	// milliseconds according to the resolution of our power measurement
	// devices").
	DefaultPeriod = 500 * time.Millisecond
	// DefaultAccuracy is the device's 0.3% accuracy band, used by the
	// stabilisation rule.
	DefaultAccuracy = 0.003
	// DefaultNoiseSigma is the sample-to-sample reading jitter (1σ). The
	// instrument's accuracy bound is a calibration envelope; successive
	// readings of a steady load scatter far less, which is what makes the
	// paper's 20-consecutive-readings stabilisation rule satisfiable.
	DefaultNoiseSigma = 0.0005
	// StabilisationWindow is the consecutive-reading count of the
	// stabilisation rule.
	StabilisationWindow = 20
)

// Meter samples a host's true power with instrument noise at a fixed
// cadence, accumulating a power trace.
type Meter struct {
	// Period is the sampling interval.
	Period time.Duration
	// Accuracy is the instrument's relative accuracy band — the 0.3%
	// calibration envelope the stabilisation rule is phrased in. It does
	// not drive the sample jitter; that is NoiseSigma.
	Accuracy float64
	// NoiseSigma is the relative 1σ sample-to-sample reading jitter.
	NoiseSigma float64

	rng  *rand.Rand
	tr   *trace.PowerTrace
	next time.Duration
}

// New builds a meter for a host with the paper's default period, accuracy
// band and reading jitter. The seed pins the noise sequence for
// reproducible runs.
func New(host string, seed int64) *Meter {
	return &Meter{
		Period:     DefaultPeriod,
		Accuracy:   DefaultAccuracy,
		NoiseSigma: DefaultNoiseSigma,
		rng:        rand.New(rand.NewSource(seed)),
		tr:         &trace.PowerTrace{Host: host},
	}
}

// Reserve pre-sizes the meter's trace for about n samples so the
// simulation step loop appends without regrowing.
func (m *Meter) Reserve(n int) { m.tr.Reserve(n) }

// NextDue returns the simulation time at which the meter will record its
// next sample. Observe calls before that instant are discarded, so the
// simulation kernel consults NextDue to skip both the call and the
// ground-truth power evaluation feeding it between due times.
func (m *Meter) NextDue() time.Duration { return m.next }

// Observe offers the meter the true instantaneous power at simulation time
// now. The meter records a noisy sample whenever its sampling period has
// elapsed; between due times the observation is discarded, exactly like a
// real instrument that integrates internally but reports at 2 Hz. It
// returns the recorded sample and true when one was taken.
func (m *Meter) Observe(now time.Duration, truth units.Watts) (units.Watts, bool) {
	if now < m.next {
		return 0, false
	}
	noisy := float64(truth) * (1 + m.rng.NormFloat64()*m.NoiseSigma)
	if noisy < 0 {
		noisy = 0
	}
	w := units.Watts(noisy)
	// Appending at a monotone 'now' cannot fail; keep the trace append
	// errorless by construction.
	if err := m.tr.Append(now, w); err != nil {
		// A non-monotone Observe sequence is a programming error in the
		// simulation loop.
		panic(err)
	}
	m.next = now + m.Period
	return w, true
}

// Trace returns the accumulated power trace (live view, not a copy).
func (m *Meter) Trace() *trace.PowerTrace { return m.tr }

// StabilisationDetector implements the run-gating rule: power has
// stabilised when StabilisationWindow consecutive readings differ from
// their predecessor by less than the tolerance.
type StabilisationDetector struct {
	// Tolerance is the relative difference bound (defaults to 0.3%).
	Tolerance float64
	// Window is the required consecutive-reading count.
	Window int

	last    units.Watts
	haveOne bool
	streak  int
}

// NewStabilisationDetector builds a detector with the paper's parameters.
func NewStabilisationDetector() *StabilisationDetector {
	return &StabilisationDetector{Tolerance: DefaultAccuracy, Window: StabilisationWindow}
}

// Add feeds a reading and reports whether the series is now stable.
func (d *StabilisationDetector) Add(w units.Watts) bool {
	if d.haveOne {
		ref := math.Abs(float64(d.last))
		diff := math.Abs(float64(w - d.last))
		if ref > 0 && diff/ref < d.Tolerance {
			d.streak++
		} else if ref == 0 && diff == 0 {
			d.streak++
		} else {
			d.streak = 0
		}
	}
	d.last = w
	d.haveOne = true
	return d.Stable()
}

// Stable reports whether the last Window readings were within tolerance.
func (d *StabilisationDetector) Stable() bool { return d.streak >= d.Window }

// ErrNeverStabilised reports that a series ended without stabilising.
var ErrNeverStabilised = errors.New("meter: power never stabilised")

// StabilisationPoint scans a power trace and returns the time of the first
// sample at which the stabilisation rule holds. The simulator's tests use
// it to check that a run's pre-migration window stabilises under the
// paper's rule.
func StabilisationPoint(tr *trace.PowerTrace) (time.Duration, error) {
	d := NewStabilisationDetector()
	for _, s := range tr.Samples {
		if d.Add(s.Power) {
			return s.At, nil
		}
	}
	return 0, ErrNeverStabilised
}
