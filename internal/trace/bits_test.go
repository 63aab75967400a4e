package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/units"
)

// randomTimes draws n non-decreasing timestamps from start: steps of 0
// (a repeated timestamp), the meter's 500 ms, the kernel's 100 ms, or an
// odd number of milliseconds.
func randomTimes(rng *rand.Rand, n int, start time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	at := start
	for i := range out {
		out[i] = at
		switch rng.Intn(5) {
		case 0:
		case 1:
			at += 500 * time.Millisecond
		case 2:
			at += 100 * time.Millisecond
		default:
			at += time.Duration(1+rng.Intn(999)) * time.Millisecond
		}
	}
	return out
}

// randomPower is a power trace at the given times with random readings.
func randomPower(rng *rand.Rand, times []time.Duration) *PowerTrace {
	p := &PowerTrace{Host: "m01"}
	for _, at := range times {
		p.Samples = append(p.Samples, Sample{At: at, Power: units.Watts(400 + rng.Float64()*300)})
	}
	return p
}

// queriesFor lists, in non-decreasing order, times before the first
// sample, at every sample, at the exact midpoint of every pair of
// neighbours (a tie for a nearest-sample lookup), just either side of
// each sample, and after the last.
func queriesFor(times []time.Duration) []time.Duration {
	qs := []time.Duration{times[0] - time.Second, times[0] - 1}
	for i, at := range times {
		if i > 0 {
			prev := times[i-1]
			qs = append(qs, prev+1, prev+(at-prev)/2, at-1)
		}
		qs = append(qs, at)
	}
	last := times[len(times)-1]
	qs = append(qs, last+1, last+time.Second)
	sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
	return qs
}

// sameObservations reports whether two observation lists match field for
// field, floats bit for bit.
func sameObservations(a, b []Observation) bool {
	if len(a) != len(b) {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		x, y := a[i], b[i]
		if x.At != y.At || x.Phase != y.Phase || x.FeatureSample.At != y.FeatureSample.At ||
			!same(float64(x.Power), float64(y.Power)) || !same(float64(x.HostCPU), float64(y.HostCPU)) ||
			!same(float64(x.VMCPU), float64(y.VMCPU)) || !same(float64(x.Bandwidth), float64(y.Bandwidth)) ||
			!same(float64(x.DirtyRatio), float64(y.DirtyRatio)) {
			return false
		}
	}
	return true
}

// samePower reports whether two power traces match sample for sample,
// powers bit for bit.
func samePower(a, b *PowerTrace) bool {
	if a.Host != b.Host || len(a.Samples) != len(b.Samples) {
		return false
	}
	for i := range a.Samples {
		x, y := a.Samples[i], b.Samples[i]
		if x.At != y.At || math.Float64bits(float64(x.Power)) != math.Float64bits(float64(y.Power)) {
			return false
		}
	}
	return true
}

// TestCursorsMatchReferenceBits walks both cursors over seeded traces
// with repeated timestamps, querying before, at, between and after the
// samples, including exact midpoints, and requires the answers of the
// binary-search lookups they replaced: the same sample, the same watts
// bit for bit.
func TestCursorsMatchReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 0; n < 300; n++ {
		times := randomTimes(rng, 1+rng.Intn(60), time.Duration(rng.Intn(3000))*time.Millisecond)
		p := randomPower(rng, times)
		f := &FeatureTrace{}
		for i, at := range times {
			f.Samples = append(f.Samples, FeatureSample{At: at, HostCPU: units.Utilisation(i)})
		}
		pc, fc := powerCursor{samples: p.Samples}, featureCursor{samples: f.Samples}
		for _, q := range queriesFor(times) {
			w, _ := powerAtRef(p, q)
			if got := pc.at(q); math.Float64bits(float64(got)) != math.Float64bits(float64(w)) {
				t.Fatalf("trace %d at %v: power %v, reference %v (times %v)", n, q, got, w, times)
			}
			fs, _ := featureAtRef(f, q)
			if got := fc.nearest(q); got != fs {
				t.Fatalf("trace %d at %v: feature sample %+v, reference %+v (times %v)", n, q, got, fs, times)
			}
		}
	}
}

// TestNearestTieIsEarlier: a query at the exact midpoint of two feature
// samples takes the earlier one, and so does Align for a power sample
// there.
func TestNearestTieIsEarlier(t *testing.T) {
	f := &FeatureTrace{}
	for i := 0; i < 4; i++ {
		_ = f.Append(FeatureSample{At: time.Duration(i) * time.Second, HostCPU: units.Utilisation(i)})
	}
	p := &PowerTrace{}
	for i := 0; i < 3; i++ {
		_ = p.Append(time.Duration(i)*time.Second+500*time.Millisecond, 500)
	}
	obs, err := Align(p, f, Boundaries{MS: 0, TS: time.Second, TE: 2 * time.Second, ME: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range obs {
		if o.HostCPU != units.Utilisation(i) {
			t.Errorf("power sample at %v joined the feature sample at %v, want the earlier one at %v", o.At, o.FeatureSample.At, time.Duration(i)*time.Second)
		}
	}
}

// TestWalksMatchReferenceBits holds Align, Resample and AverageTraces to
// their binary-search references on seeded traces with repeated
// timestamps, feature samples on, between and exactly halfway between the
// power samples, and phase boundaries on and between samples: the same
// observations and samples, floats bit for bit, or the same error.
func TestWalksMatchReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	steps := []time.Duration{7 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
		300 * time.Millisecond, 500 * time.Millisecond, time.Second}
	for n := 0; n < 300; n++ {
		times := randomTimes(rng, 1+rng.Intn(80), time.Duration(rng.Intn(2000))*time.Millisecond)
		p := randomPower(rng, times)

		// Features on the power times, shifted by half a meter period
		// (exact midpoints), or on times of their own.
		var ftimes []time.Duration
		switch rng.Intn(3) {
		case 0:
			ftimes = times
		case 1:
			for _, at := range times {
				ftimes = append(ftimes, at+250*time.Millisecond)
			}
		default:
			ftimes = randomTimes(rng, 1+rng.Intn(80), time.Duration(rng.Intn(2000))*time.Millisecond)
		}
		f := &FeatureTrace{}
		for _, at := range ftimes {
			f.Samples = append(f.Samples, FeatureSample{At: at, HostCPU: units.Utilisation(rng.Float64() * 32),
				VMCPU: units.Utilisation(rng.Float64() * 4), Bandwidth: units.BitsPerSecond(rng.Float64() * 1e9),
				DirtyRatio: units.Fraction(rng.Float64())})
		}

		// Boundaries drawn from the power times and from between them.
		var cut [4]time.Duration
		for i := range cut {
			if rng.Intn(2) == 0 {
				cut[i] = times[rng.Intn(len(times))]
			} else {
				cut[i] = time.Duration(rng.Int63n(int64(times[len(times)-1] + time.Second)))
			}
		}
		sort.Slice(cut[:], func(i, j int) bool { return cut[i] < cut[j] })
		b := Boundaries{MS: cut[0], TS: cut[1], TE: cut[2], ME: cut[3]}
		obs, err := Align(p, f, b)
		obsRef, errRef := alignRef(p, f, b)
		if fmt.Sprint(err) != fmt.Sprint(errRef) || !sameObservations(obs, obsRef) {
			t.Fatalf("trace %d: Align = %d observations, %v; reference %d, %v (bounds %+v)", n, len(obs), err, len(obsRef), errRef, b)
		}

		dt := steps[rng.Intn(len(steps))]
		rs, err := p.Resample(dt)
		rsRef, errRef := resampleRef(p, dt)
		if fmt.Sprint(err) != fmt.Sprint(errRef) || !samePower(rs, rsRef) {
			t.Fatalf("trace %d: Resample(%v) differs from the reference", n, dt)
		}

		runs := []*PowerTrace{p}
		for k := rng.Intn(5); k > 0; k-- {
			runs = append(runs, randomPower(rng, randomTimes(rng, 1+rng.Intn(80), time.Duration(rng.Intn(2000))*time.Millisecond)))
		}
		avg, err := AverageTraces(runs, dt)
		avgRef, errRef := averageTracesRef(runs, dt)
		if fmt.Sprint(err) != fmt.Sprint(errRef) || !samePower(avg, avgRef) {
			t.Fatalf("trace %d: AverageTraces of %d runs at %v differs from the reference", n, len(runs), dt)
		}
	}
}
