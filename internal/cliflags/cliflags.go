// Package cliflags wires the simulation-driving flags every command
// shares — -workers, -nocache, -cache-dir, the store resilience knobs
// (-cache-op-timeout, -cache-retries, -cache-breaker,
// -cache-breaker-cooldown), -benchjson, -timeout, -cpuprofile and
// -memprofile — so the binaries stay in flag parity by construction
// instead of by copy-paste. A command registers the common set next to
// its own flags, builds the session cache and execution context from
// it, starts the profilers around its compute, and finishes its
// benchmark report through it. The wavm3d daemon has no session to
// bound or report, so it refuses -timeout and -benchjson.
package cliflags

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/report"
	"repro/internal/sim"
)

// ExitDeadline is the documented exit code a command returns when its
// -timeout expires before the session finishes: distinct from 1 (any
// other failure) and 2 (usage errors), so scripts and CI gates can tell
// "too slow" from "wrong".
const ExitDeadline = 3

// Common is the shared flag set of the simulation commands.
type Common struct {
	// Workers bounds the session's concurrency (0 = all CPUs,
	// 1 = sequential; results identical for every value).
	Workers int
	// NoCache disables the cross-campaign run cache (results identical,
	// only slower). It overrides CacheDir: -nocache means no caching of
	// any kind.
	NoCache bool
	// CacheDir, when non-empty, backs the run cache with a persistent
	// content-addressed artefact directory shared across processes and
	// sessions: a warm dir answers every cacheable kernel run from disk
	// with bit-identical results.
	CacheDir string
	// CacheOpTimeout bounds one persistent-store Get/Put/Quarantine so a
	// hung store cannot stall a kernel run past it. 0 disables the bound.
	CacheOpTimeout time.Duration
	// CacheRetries is how many times a failed store op is re-attempted,
	// with capped doubling backoff, before being survived as a miss.
	CacheRetries int
	// CacheBreaker opens the store circuit breaker after this many
	// consecutive failures, running the cache memory-only until a
	// half-open probe finds the store healed. 0 disables the breaker.
	CacheBreaker int
	// CacheBreakerCooldown is how long the breaker stays open before
	// probing.
	CacheBreakerCooldown time.Duration
	// BenchJSON, when non-empty, is where the machine-readable timing
	// and cache metrics go.
	BenchJSON string
	// Timeout bounds the session's wall clock; 0 means unbounded. On
	// expiry the compute core abandons in-flight work at its next
	// cancellation boundary and the command exits with ExitDeadline.
	Timeout time.Duration
	// CPUProfile, when non-empty, writes a pprof CPU profile of the
	// session there (started by StartProfiles, stopped by its closer).
	CPUProfile string
	// MemProfile, when non-empty, writes a pprof allocation profile of
	// the session's end state there (a GC runs first so the heap numbers
	// are live objects, not garbage awaiting collection).
	MemProfile string
}

// Register binds the common flags on the given FlagSet (the default
// command line via flag.CommandLine).
func Register(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.IntVar(&c.Workers, "workers", 0, "concurrent simulations (0 = all CPUs, 1 = sequential; results identical)")
	fs.BoolVar(&c.NoCache, "nocache", false, "disable the run cache (results identical, only slower)")
	fs.StringVar(&c.CacheDir, "cache-dir", "", "persist run artefacts in this directory (created if missing; shareable across processes; results identical)")
	fs.DurationVar(&c.CacheOpTimeout, "cache-op-timeout", 2*time.Second, "bound one persistent-store operation (0 = unbounded); a slower store degrades to misses, never stalls")
	fs.IntVar(&c.CacheRetries, "cache-retries", 2, "re-attempts per failed store operation, with doubling backoff (0 = no retries)")
	fs.IntVar(&c.CacheBreaker, "cache-breaker", 5, "consecutive store failures that open the circuit breaker and degrade the cache to memory-only (0 = no breaker)")
	fs.DurationVar(&c.CacheBreakerCooldown, "cache-breaker-cooldown", time.Second, "how long the open breaker waits before half-open probing the store")
	fs.StringVar(&c.BenchJSON, "benchjson", "", "write machine-readable timing and cache metrics to this path")
	fs.DurationVar(&c.Timeout, "timeout", 0, "abort the session after this wall-clock span (e.g. 90s, 5m; 0 = unbounded; exit code 3 on expiry)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the session to this path")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a pprof heap profile of the session's end state to this path")
	return c
}

// StartProfiles starts the profilers the session asked for and returns
// a closer that must run before the command exits (it stops the CPU
// profile and snapshots the heap). With neither flag set it is a no-op
// returning a nil-error closer, so callers can wire it unconditionally:
//
//	stop, err := common.StartProfiles()
//	if err != nil { ... }
//	defer stop()
//
// Callers that exit through os.Exit must invoke the closer explicitly
// on those paths — deferred calls do not run.
func (c *Common) StartProfiles() (stop func() error, err error) {
	var cpu *os.File
	if c.CPUProfile != "" {
		cpu, err = os.Create(c.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("cliflags: -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cliflags: -cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cliflags: -cpuprofile: %w", err)
			}
			cpu = nil
		}
		if c.MemProfile != "" {
			f, err := os.Create(c.MemProfile)
			if err != nil {
				return fmt.Errorf("cliflags: -memprofile: %w", err)
			}
			defer f.Close()
			// Up-to-date live-object numbers: collect garbage before the
			// snapshot, as `go test -memprofile` does.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("cliflags: -memprofile: %w", err)
			}
		}
		return nil
	}, nil
}

// Context builds the session's execution context from -timeout: the
// background context when unbounded, a deadline-bearing one otherwise.
// The caller owns the cancel function.
func (c *Common) Context() (context.Context, context.CancelFunc) {
	if c.Timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), c.Timeout)
}

// IsDeadline reports whether err is (or wraps) the -timeout expiry, and
// therefore whether the command should exit with ExitDeadline.
func IsDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded)
}

// Cache builds the session run cache: nil when -nocache was given
// (uncached execution), a memory-only cache by default, and a cache
// backed by the persistent artefact directory when -cache-dir was
// given. Persistent stores are always wrapped in the resilience policy
// (timeouts, retries, breaker, async publishes) configured by the
// cache-* flags. The error is an unusable -cache-dir.
//
// Callers with a persistent cache must sim.Cache.Close it before
// trusting the store's contents — Finish does this; wavm3d closes
// through service.Shutdown.
func (c *Common) Cache() (*sim.Cache, error) {
	if c.NoCache {
		return nil, nil
	}
	if c.CacheDir == "" {
		return sim.NewCache(0), nil
	}
	dir, err := sim.NewDirStore(c.CacheDir)
	if err != nil {
		return nil, err
	}
	// Flag zero means "mechanism off", which the config spells as a
	// negative (its own zero selects the defaults).
	disabled := func(d time.Duration) time.Duration {
		if d <= 0 {
			return -1
		}
		return d
	}
	rc := sim.ResilienceConfig{
		OpTimeout:        disabled(c.CacheOpTimeout),
		Retries:          c.CacheRetries,
		BreakerThreshold: c.CacheBreaker,
		BreakerCooldown:  c.CacheBreakerCooldown,
		AsyncPublish:     true,
	}
	if rc.Retries <= 0 {
		rc.Retries = -1
	}
	if rc.BreakerThreshold <= 0 {
		rc.BreakerThreshold = -1
	}
	return sim.NewCacheWithStore(0, sim.NewResilientStore(dir, rc)), nil
}

// NewBenchReport starts a benchmark report for the named tool with the
// session's worker setting recorded.
func (c *Common) NewBenchReport(tool string) *report.BenchReport {
	perf := report.NewBenchReport(tool)
	perf.Workers = c.Workers
	return perf
}

// Finish seals a benchmark report — it first closes the cache's
// persistent tier (draining async artefact publishes so the store is
// complete before anything reads it), then records total wall clock
// since started and the cache's counters, logs the cache statistics to
// w (when a cache was in use) and writes the report to -benchjson
// (when requested). The returned error is a benchjson write failure; a
// publish-drain failure is logged and survived, consistent with the
// store tier's degrade-never-fail contract.
func (c *Common) Finish(w io.Writer, perf *report.BenchReport, cache *sim.Cache, started time.Time) error {
	if err := cache.Close(); err != nil {
		fmt.Fprintf(w, "%s: cache store close: %v\n", perf.Tool, err)
	}
	perf.TotalSeconds = time.Since(started).Seconds()
	stats := cache.Snapshot()
	perf.CacheHits, perf.CacheMisses = stats.Hits, stats.Misses
	perf.CacheEntries = stats.Entries
	perf.KernelRuns = stats.KernelRuns
	if cache.Persistent() {
		perf.DiskHits, perf.DiskMisses = stats.DiskHits, stats.DiskMisses
		perf.Quarantined = stats.Quarantined
		perf.StoreErrors = stats.StoreErrors
		perf.StoreRetries = stats.Retries
		perf.StoreTimeouts = stats.Timeouts
		perf.BreakerOpens = stats.BreakerOpens
		perf.BreakerState = stats.BreakerState
		perf.PublishDrops = stats.PublishDrops
	}
	if cache != nil {
		fmt.Fprintf(w, "%s: run cache: %d hits, %d misses, %d entries, %d kernel runs\n",
			perf.Tool, perf.CacheHits, perf.CacheMisses, perf.CacheEntries, perf.KernelRuns)
		if cache.Persistent() {
			fmt.Fprintf(w, "%s: cache dir: %d disk hits, %d disk misses, %d quarantined\n",
				perf.Tool, stats.DiskHits, stats.DiskMisses, stats.Quarantined)
			fmt.Fprintf(w, "%s: store policy: %d errors, %d retries, %d timeouts, %d breaker opens (%s), %d publish drops\n",
				perf.Tool, stats.StoreErrors, stats.Retries, stats.Timeouts, stats.BreakerOpens, stats.BreakerState, stats.PublishDrops)
		}
	}
	if c.BenchJSON == "" {
		return nil
	}
	if err := perf.WriteJSONFile(c.BenchJSON); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: wrote timing metrics to %s\n", perf.Tool, c.BenchJSON)
	return nil
}
