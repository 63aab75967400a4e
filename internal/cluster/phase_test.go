package cluster

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestPhaseCursorMatchesReference property-tests the engine's O(1)
// phase cursor (vmRT.factor) against the specification walk (VM.factor)
// over random phase timelines and query schedules — monotone advances,
// rewinds behind the cursor (the engine's clock only advances, but the
// cursor stays exact for any query order), repeated queries at one
// instant, and queries far past the exhausted timeline. The two must agree bit-for-bit: the
// cursor resumes mid-walk, but it performs the same integer offsets and
// the same float division as the front-to-back walk.
func TestPhaseCursorMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(20260808))
	kinds := workload.PhaseKinds()
	for trial := 0; trial < 200; trial++ {
		spec := VM{Name: "p", MemBytes: gib(2), BusyVCPUs: 4}
		var total time.Duration
		for p := 0; p < r.Intn(5); p++ {
			ph := workload.Phase{
				Kind:     kinds[r.Intn(len(kinds))],
				Duration: time.Duration(1+r.Intn(300)) * time.Second,
				Level:    0.2 + r.Float64(),
				Peak:     0.5 + 1.5*r.Float64(),
			}
			spec.Phases = append(spec.Phases, ph)
			total += ph.Duration
		}
		rt := &vmRT{VM: spec}
		// Query schedule: mostly monotone, with deliberate rewinds and
		// past-the-end probes. Sub-second offsets exercise mid-phase
		// fractions rather than boundaries only.
		at := time.Duration(0)
		for q := 0; q < 100; q++ {
			switch r.Intn(10) {
			case 0: // rewind, possibly all the way to 0
				at = time.Duration(r.Int63n(int64(at) + 1))
			case 1: // jump past the exhausted timeline
				at = total + time.Duration(r.Int63n(int64(time.Hour)))
			case 2: // repeat the previous instant
			default: // monotone advance
				at += time.Duration(r.Int63n(int64(20 * time.Second)))
			}
			want := spec.factor(at)
			got := rt.factor(at)
			if got != want {
				t.Fatalf("trial %d query %d: cursor factor(%v) = %v, reference = %v (phases %+v)",
					trial, q, at, got, want, spec.Phases)
			}
			// busyAt/dirtyAt ride on the same cursor; spot-check the
			// derived values too.
			if rt.busyAt(at) != spec.busyAt(at) || rt.dirtyAt(at) != spec.dirtyAt(at) {
				t.Fatalf("trial %d query %d: derived demand diverged at %v", trial, q, at)
			}
		}
	}
}
