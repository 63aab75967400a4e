package experiments

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
)

// TestMeanTransferBandwidthBits holds meanTransferBandwidth to the bits of
// stats.Mean over the positive transfer-phase bandwidths, on seeded
// observations that mix every phase with zero and positive bandwidths,
// and to no allocation.
func TestMeanTransferBandwidthBits(t *testing.T) {
	rnd := rand.New(rand.NewSource(35))
	phases := []trace.Phase{trace.PhaseNormal, trace.PhaseInitiation, trace.PhaseTransfer, trace.PhaseActivation}
	for trial := 0; trial < 200; trial++ {
		obs := make([]trace.Observation, rnd.Intn(400))
		var vals []float64
		for i := range obs {
			o := &obs[i]
			o.Phase = phases[rnd.Intn(len(phases))]
			if rnd.Intn(4) != 0 {
				o.Bandwidth = units.BitsPerSecond(rnd.Float64() * 1e10)
			}
			if o.Phase == trace.PhaseTransfer && o.Bandwidth > 0 {
				vals = append(vals, float64(o.Bandwidth))
			}
		}
		got, want := float64(meanTransferBandwidth(obs)), stats.Mean(vals)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (%d observations, %d transfer bandwidths): mean = %v, stats.Mean = %v",
				trial, len(obs), len(vals), got, want)
		}
		if allocs := testing.AllocsPerRun(5, func() { meanTransferBandwidth(obs) }); allocs != 0 {
			t.Fatalf("trial %d: meanTransferBandwidth allocates %.0f times", trial, allocs)
		}
	}
}
