package cluster

import (
	"testing"

	"repro/internal/sim"
)

// The RefTimeline benchmarks run the identical fleets through the
// linear-scan reference scheduler (see reference_test.go), so the
// committed scaling curve carries its own baseline: compare
// BenchmarkClusterTimeline<N> against BenchmarkRefTimeline<N> to see
// what the heap scheduler buys at each fleet size. The gap grows with
// the concurrent-flight count — the linear loop pays O(F²) per event
// where the heap pays O(log F).
func benchTimelineRef(b *testing.B, n int) {
	cache := sim.NewCache(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchFleet(n)
		cfg.Cache = cache
		if _, _, err := runReference(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRefTimeline64(b *testing.B)   { benchTimelineRef(b, 64) }
func BenchmarkRefTimeline256(b *testing.B)  { benchTimelineRef(b, 256) }
func BenchmarkRefTimeline1024(b *testing.B) { benchTimelineRef(b, 1024) }
