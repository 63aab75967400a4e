package sim

import (
	"crypto/sha256"
	"testing"

	"repro/internal/migration"
	"repro/internal/vm"
	"repro/internal/workload"
)

// benchScenario is a representative experimental point: the CPULOAD
// matrixmult guest with one co-located load VM per host.
func benchScenario(kind migration.Kind) Scenario {
	return Scenario{
		Name:          "bench",
		Kind:          kind,
		MigratingType: vm.TypeMigratingCPU,
		SourceLoadVMs: 1,
		TargetLoadVMs: 1,
		Seed:          42,
	}
}

func benchRun(b *testing.B, sc Scenario) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRunNonLive measures one suspend-resume migration run.
func BenchmarkSimRunNonLive(b *testing.B) {
	benchRun(b, benchScenario(migration.NonLive))
}

// BenchmarkSimRunLive measures one pre-copy live migration run.
func BenchmarkSimRunLive(b *testing.B) {
	benchRun(b, benchScenario(migration.Live))
}

// BenchmarkSimRunLiveMem measures the memory-heavy MEMLOAD point.
func BenchmarkSimRunLiveMem(b *testing.B) {
	benchRun(b, liveMemScenario())
}

// liveMemScenario is the memory-heavy MEMLOAD point: a pagedirtier
// guest at a 95% target dirty ratio, the most expensive run class of the
// campaigns and the largest artefact.
func liveMemScenario() Scenario {
	return Scenario{
		Name:             "bench-mem",
		Kind:             migration.Live,
		MigratingType:    vm.TypeMigratingMem,
		MigratingProfile: workload.PagedirtierProfile(0.95),
		Seed:             42,
	}
}

// liveMemArtefact runs liveMemScenario and returns its cache identity
// and result.
func liveMemArtefact(tb testing.TB) ([]byte, [sha256.Size]byte, *RunResult) {
	tb.Helper()
	sc := liveMemScenario()
	res, err := Run(sc)
	if err != nil {
		tb.Fatal(err)
	}
	keyBytes := encodeCacheKey(cacheKey(sc))
	return keyBytes, sha256.Sum256(keyBytes), res
}

// reportCodec reports an artefact codec benchmark's artefact size and
// its time per stored trace sample.
func reportCodec(b *testing.B, res *RunResult, size int) {
	samples := len(res.Source.Samples) + len(res.Target.Samples) +
		len(res.SourceFeatures.Samples) + len(res.TargetFeatures.Samples)
	b.ReportMetric(float64(size), "bytes/artefact")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*samples), "ns/sample")
}

// BenchmarkArtefactEncode measures what a persistent-cache miss adds to
// the kernel run: encoding the memory-heavy live run's artefact,
// checksum included.
func BenchmarkArtefactEncode(b *testing.B) {
	keyBytes, hash, res := liveMemArtefact(b)
	b.ReportAllocs()
	b.ResetTimer()
	var data []byte
	for i := 0; i < b.N; i++ {
		data = encodeArtefact(keyBytes, hash, res)
	}
	reportCodec(b, res, len(data))
}

// BenchmarkArtefactDecode measures what a persistent-cache hit costs
// once the bytes are read: verifying the checksum, identity and
// canonical form of the same artefact, and decoding every trace (full,
// a RunCtx hit) or none (summary, a SummaryCtx hit).
func BenchmarkArtefactDecode(b *testing.B) {
	keyBytes, hash, res := liveMemArtefact(b)
	data := encodeArtefact(keyBytes, hash, res)
	for _, mode := range decodeModes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeArtefact(data, keyBytes, hash, mode.traces); err != nil {
					b.Fatal(err)
				}
			}
			reportCodec(b, res, len(data))
		})
	}
}
