package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// BenchArtefact is the machine-readable timing of one generated artefact
// (a figure, a table, a scenario, or a shared campaign stage).
type BenchArtefact struct {
	// ID names the artefact ("fig3", "table7", "campaign-m", a scenario
	// name, ...).
	ID string `json:"id"`
	// Seconds is the wall-clock time to produce it.
	Seconds float64 `json:"seconds"`
	// CacheHits/CacheMisses are the run-cache lookups this artefact
	// made (deltas over the session cache, so per-artefact cache
	// effectiveness is visible in committed BENCH snapshots). Omitted
	// for artefacts recorded without cache attribution.
	CacheHits   uint64 `json:"cache_hits,omitempty"`
	CacheMisses uint64 `json:"cache_misses,omitempty"`
	// DiskHits/DiskMisses are the persistent-tier probes this artefact's
	// memory misses made when a cache dir was in use: DiskHits answered
	// from committed artefacts on disk, DiskMisses ran the kernel and
	// published a new artefact. Omitted for memory-only sessions.
	DiskHits   uint64 `json:"disk_hits,omitempty"`
	DiskMisses uint64 `json:"disk_misses,omitempty"`
	// SLO scoring of chaos (failure-injecting) cluster scenarios; all
	// omitted for artefacts without failure injection, so historical
	// snapshots compare cleanly.
	AbortedFlights int `json:"aborted_flights,omitempty"`
	OrphanedVMs    int `json:"orphaned_vms,omitempty"`
	EvacuatedVMs   int `json:"evacuated_vms,omitempty"`
	// EvacuationDeadlineMet is a pointer so "not a chaos scenario"
	// (absent) and "deadline missed" (false) stay distinguishable.
	EvacuationDeadlineMet *bool `json:"evacuation_deadline_met,omitempty"`
	// FleetEnergyJ integrates the fleet power trace — idle floors plus
	// migration spans — over the scenario's span.
	FleetEnergyJ float64 `json:"fleet_energy_j,omitempty"`
}

// SLO describes the failure-injection outcome of a chaos scenario for
// AnnotateSLO.
type SLO struct {
	AbortedFlights int
	OrphanedVMs    int
	EvacuatedVMs   int
	DeadlineMet    bool
	FleetEnergyJ   float64
}

// AnnotateSLO attaches chaos-scenario SLO scores to the most recently
// added artefact (a no-op when nothing has been added).
func (r *BenchReport) AnnotateSLO(s SLO) {
	if len(r.Artefacts) == 0 {
		return
	}
	a := &r.Artefacts[len(r.Artefacts)-1]
	a.AbortedFlights = s.AbortedFlights
	a.OrphanedVMs = s.OrphanedVMs
	a.EvacuatedVMs = s.EvacuatedVMs
	met := s.DeadlineMet
	a.EvacuationDeadlineMet = &met
	a.FleetEnergyJ = s.FleetEnergyJ
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
	// CacheHits/CacheMisses/CacheEntries describe the shared run cache at
	// session end (zero when caching is disabled).
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	CacheEntries int    `json:"cache_entries"`
	// DiskHits/DiskMisses describe the persistent tier at session end
	// (omitted for memory-only sessions); KernelRuns counts simulations
	// actually executed — zero for a fully warm persistent cache, which
	// is exactly what the CI warm-phase gate asserts.
	DiskHits    uint64 `json:"disk_hits,omitempty"`
	DiskMisses  uint64 `json:"disk_misses,omitempty"`
	KernelRuns  uint64 `json:"kernel_runs"`
	Quarantined uint64 `json:"quarantined_artefacts,omitempty"`
	// Store resilience counters (omitted for memory-only sessions):
	// store ops that failed and were survived, re-attempts, per-op bound
	// hits, circuit-breaker trips with the breaker's end-of-session
	// state, and async publishes shed past the budget.
	StoreErrors   uint64 `json:"store_errors,omitempty"`
	StoreRetries  uint64 `json:"store_retries,omitempty"`
	StoreTimeouts uint64 `json:"store_timeouts,omitempty"`
	BreakerOpens  uint64 `json:"breaker_opens,omitempty"`
	BreakerState  string `json:"breaker_state,omitempty"`
	PublishDrops  uint64 `json:"publish_drops,omitempty"`
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

// CacheDelta is the run-cache traffic attributable to one artefact:
// memory-tier lookups plus (for cache-dir sessions) persistent-tier
// probes.
type CacheDelta struct {
	Hits, Misses         uint64
	DiskHits, DiskMisses uint64
}

// AddWithCache appends one artefact timing with its run-cache lookup
// deltas (traffic generated while producing this artefact).
func (r *BenchReport) AddWithCache(id string, d time.Duration, delta CacheDelta) {
	r.Artefacts = append(r.Artefacts, BenchArtefact{
		ID: id, Seconds: d.Seconds(),
		CacheHits: delta.Hits, CacheMisses: delta.Misses,
		DiskHits: delta.DiskHits, DiskMisses: delta.DiskMisses,
	})
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

// ReadBenchReport parses a committed benchmark snapshot, the counterpart
// of WriteJSONFile for trajectory comparisons.
func ReadBenchReport(path string) (*BenchReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	var r BenchReport
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("report: parsing %s: %w", path, err)
	}
	return &r, nil
}
