package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestBenchReportRoundTrip(t *testing.T) {
	r := NewBenchReport("wavm3bench")
	r.Quick = true
	r.Seed = 7
	r.Workers = 2
	r.Add("fig2", 1500*time.Millisecond)
	delta := sim.CacheStats{Hits: 12, Misses: 3, DiskHits: 2, DiskMisses: 1}
	slo := cluster.SLO{AbortedFlights: 2, EvacuationDeadlineMet: false, FleetEnergy: 1.5e6}
	r.Artefacts = append(r.Artefacts, BenchArtefact{ID: "chaos", Seconds: 0.25, CacheStats: &delta, SLO: &slo})
	r.CacheStats = sim.CacheStats{Hits: 10, Misses: 4, Entries: 4, DiskHits: 2, DiskMisses: 1, KernelRuns: 1}
	r.TotalSeconds = 2.5

	path := filepath.Join(t.TempDir(), "bench.json")
	if err := r.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Tool != "wavm3bench" || !back.Quick || back.Seed != 7 || back.Workers != 2 {
		t.Errorf("configuration fields lost: %+v", back)
	}
	if len(back.Artefacts) != 2 || back.Artefacts[0].ID != "fig2" || back.Artefacts[0].Seconds != 1.5 {
		t.Fatalf("artefact timings lost: %+v", back.Artefacts)
	}
	if a := back.Artefacts[0]; a.CacheStats != nil || a.SLO != nil {
		t.Errorf("artefact recorded without attribution gained stats: %+v", a)
	}
	if a := back.Artefacts[1]; a.CacheStats == nil || *a.CacheStats != delta || a.SLO == nil || *a.SLO != slo {
		t.Errorf("per-artefact cache stats or SLO lost: %s", b)
	}
	if back.CacheStats != r.CacheStats {
		t.Errorf("session cache stats = %+v, want %+v", back.CacheStats, r.CacheStats)
	}
	if back.GoVersion == "" || back.NumCPU <= 0 {
		t.Errorf("platform stamp missing: %+v", back)
	}
}

func TestBenchReportJSONShape(t *testing.T) {
	r := NewBenchReport("wavm3bench")
	r.Add("fig3", time.Second)
	r.Artefacts = append(r.Artefacts, BenchArtefact{ID: "chaos", CacheStats: &sim.CacheStats{}, SLO: &cluster.SLO{}})
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"tool"`, `"go_version"`, `"artefacts"`, `"hits"`, `"misses"`, `"entries"`, `"kernel_runs"`, `"total_seconds"`} {
		if !strings.Contains(b.String(), key) {
			t.Errorf("JSON lacks %s:\n%s", key, b.String())
		}
	}
	// A missed evacuation deadline is a score, not an absent one.
	if !strings.Contains(b.String(), `"evacuation_deadline_met": false`) {
		t.Errorf("a chaos artefact's missed deadline is not recorded:\n%s", b.String())
	}
	if n := strings.Count(b.String(), `"hits"`); n != 2 {
		t.Errorf(`"hits" appears %d times, want 2 (the session's and the attributed artefact's):\n%s`, n, b.String())
	}
}
