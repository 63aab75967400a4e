package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// BenchArtefact is the machine-readable timing of one generated artefact
// (a figure, a table, a scenario, or a shared campaign stage).
type BenchArtefact struct {
	// ID names the artefact ("fig3", "table7", "campaign-m", a scenario
	// name, ...).
	ID string `json:"id"`
	// Seconds is the wall-clock time to produce it.
	Seconds float64 `json:"seconds"`
	// CacheStats is the run-cache traffic this artefact made across both
	// tiers: the session cache's Snapshot().Delta over its production.
	// Nil, and its keys omitted, for artefacts recorded without cache
	// attribution.
	*sim.CacheStats
	// SLO scores a chaos (failure-injecting) cluster scenario. Nil, and
	// its keys omitted, for every other artefact, so historical snapshots
	// compare cleanly.
	*cluster.SLO
}

// BenchReport is the machine-readable outcome of one wavm3bench session:
// per-artefact wall-clock timings plus the run-cache's effectiveness.
// Committed snapshots (BENCH_<pr>.json) give later changes a perf
// trajectory to compare against.
type BenchReport struct {
	// Tool identifies the producer ("wavm3bench").
	Tool string `json:"tool"`
	// GoVersion is runtime.Version() of the producing binary.
	GoVersion string `json:"go_version"`
	// GOOS/GOARCH locate the numbers on an execution platform.
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// NumCPU is the machine's logical CPU count.
	NumCPU int `json:"num_cpu"`
	// Quick records whether the reduced sweeps were used.
	Quick bool `json:"quick"`
	// Seed and Workers reproduce the session's configuration.
	Seed    int64 `json:"seed"`
	Workers int   `json:"workers"`
	// Artefacts are the per-artefact timings in generation order.
	Artefacts []BenchArtefact `json:"artefacts"`
	// CacheStats describes the shared run cache at session end (zero
	// when caching is disabled). Its KernelRuns is zero for a fully
	// warm persistent cache, which is exactly what the CI warm-phase
	// gate asserts.
	sim.CacheStats
	// TotalSeconds is the whole session's wall-clock time.
	TotalSeconds float64 `json:"total_seconds"`
}

// NewBenchReport builds a report stamped with the execution platform.
func NewBenchReport(tool string) *BenchReport {
	return &BenchReport{
		Tool:      tool,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
}

// Add appends one artefact timing.
func (r *BenchReport) Add(id string, d time.Duration) {
	r.Artefacts = append(r.Artefacts, BenchArtefact{ID: id, Seconds: d.Seconds()})
}

// WriteJSON renders the report as indented JSON.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteJSONFile writes the report to path, creating or truncating it.
func (r *BenchReport) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
