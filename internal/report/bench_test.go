package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestBenchReportRoundTrip(t *testing.T) {
	r := NewBenchReport("wavm3bench")
	r.Quick = true
	r.Seed = 7
	r.Workers = 2
	r.Add("fig2", 1500*time.Millisecond)
	r.AddWithCache("table7", 250*time.Millisecond, CacheDelta{Hits: 12, Misses: 3, DiskHits: 2, DiskMisses: 1})
	r.CacheHits, r.CacheMisses, r.CacheEntries = 10, 4, 4
	r.DiskHits, r.DiskMisses, r.KernelRuns = 2, 1, 1
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
		t.Errorf("artefact timings lost: %+v", back.Artefacts)
	}
	if back.Artefacts[1].CacheHits != 12 || back.Artefacts[1].CacheMisses != 3 {
		t.Errorf("per-artefact cache stats lost: %+v", back.Artefacts[1])
	}
	if back.Artefacts[1].DiskHits != 2 || back.Artefacts[1].DiskMisses != 1 {
		t.Errorf("per-artefact disk stats lost: %+v", back.Artefacts[1])
	}
	if back.DiskHits != 2 || back.DiskMisses != 1 || back.KernelRuns != 1 {
		t.Errorf("session disk stats lost: %+v", back)
	}
	if back.Artefacts[0].CacheHits != 0 || back.Artefacts[0].CacheMisses != 0 {
		t.Errorf("cache-less artefact gained stats: %+v", back.Artefacts[0])
	}
	if back.CacheHits != 10 || back.CacheMisses != 4 || back.CacheEntries != 4 {
		t.Errorf("cache stats lost: %+v", back)
	}
	if back.GoVersion == "" || back.NumCPU <= 0 {
		t.Errorf("platform stamp missing: %+v", back)
	}
}

func TestBenchReportJSONShape(t *testing.T) {
	r := NewBenchReport("wavm3bench")
	r.Add("fig3", time.Second)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"tool"`, `"go_version"`, `"artefacts"`, `"cache_hits"`, `"total_seconds"`} {
		if !strings.Contains(b.String(), key) {
			t.Errorf("JSON lacks %s:\n%s", key, b.String())
		}
	}
}
