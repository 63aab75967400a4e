package sim

import (
	"runtime"
	"testing"

	"repro/internal/migration"
)

// maxRunAllocs is the committed allocation ceiling for one sim.Run of a
// representative CPULOAD scenario and of the memory-heavy MEMLOAD point.
// The allocation-free kernel needs ~70 and ~50 allocations per run (all
// setup: hosts, guests, images, traces); the ceiling leaves headroom for
// incidental growth but fails CI long before a per-step allocation
// regression (each step used to cost two maps, ~3000 allocations per
// run).
const maxRunAllocs = 200

// TestSimRunAllocCeiling is the allocation-regression smoke: a per-step
// allocation anywhere in the kernel multiplies the count by the step
// total and trips the ceiling. The MEMLOAD point's pagedirtier draws its
// pages through the uniform dirtier's assembly kernel where the CPU runs
// it.
func TestSimRunAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, sc := range []Scenario{benchScenario(migration.Live), liveMemScenario()} {
		avg := testing.AllocsPerRun(3, func() {
			if _, err := Run(sc); err != nil {
				t.Fatal(err)
			}
		})
		if avg > maxRunAllocs {
			t.Fatalf("sim.Run of %s allocates %.0f times, ceiling %d — a per-step allocation crept back into the kernel", sc.Name, avg, maxRunAllocs)
		}
	}
}

// TestSummaryDecodeAllocBytes holds a summary-only decode of the
// memory-heavy live run's artefact (4,883 trace samples) under a fixed
// byte ceiling: it allocates the result and no trace sample, where the
// full decode of the same artefact allocates ~178 KB. Every warm
// scenario, cluster and daemon lookup pays this decode.
func TestSummaryDecodeAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the ceiling")
	}
	const ceiling = 4 << 10 // bytes per decode
	keyBytes, hash, res := liveMemArtefact(t)
	data := encodeArtefact(keyBytes, hash, res)
	decode := func() {
		if _, err := decodeArtefact(data, keyBytes, hash, false); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("%d-byte artefact: %d bytes per summary-only decode", len(data), perCall)
	if perCall > ceiling {
		t.Errorf("summary-only decode allocates %d bytes, ceiling is %d", perCall, ceiling)
	}
}
