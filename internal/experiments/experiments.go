// Package experiments encodes the paper's experimental design (Table IIa):
// the CPULOAD and MEMLOAD scenario families, the campaign runner that
// executes them on the simulated testbed and converts runs into regression
// datasets, and the generators that reproduce every table (III–VII) and
// figure (2–7) of the evaluation.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/migration"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Family identifies one of the paper's experiment families.
type Family string

// The five families of Table IIa, plus the hot/cold extension.
const (
	CPULoadSource Family = "CPULOAD-SOURCE"
	CPULoadTarget Family = "CPULOAD-TARGET"
	MemLoadVM     Family = "MEMLOAD-VM"
	MemLoadSource Family = "MEMLOAD-SOURCE"
	MemLoadTarget Family = "MEMLOAD-TARGET"
	// MemLoadHotCold is an extension beyond the paper: the MEMLOAD-VM
	// sweep with a skewed (hot/cold) dirtier instead of the uniform
	// pagedirtier, probing how working-set locality changes migration
	// energy.
	MemLoadHotCold Family = "MEMLOAD-HOTCOLD"
)

// Families returns the paper's five families in presentation order
// (extension families are run explicitly, not as part of "all").
func Families() []Family {
	return []Family{CPULoadSource, CPULoadTarget, MemLoadVM, MemLoadSource, MemLoadTarget}
}

// Point is one experimental point within a family: a load level (CPULOAD
// families and the host-load MEMLOAD families) or a dirty ratio
// (MEMLOAD-VM), for one migration kind.
type Point struct {
	Family Family
	Kind   migration.Kind
	// LoadVMs is the co-located load-cpu VM count (CPULOAD staircases and
	// MEMLOAD-SOURCE/TARGET).
	LoadVMs int
	// DirtyRatio is the pagedirtier target (MEMLOAD families).
	DirtyRatio units.Fraction
}

// Label renders the point the way the figure legends do ("3 VM", "55%").
func (p Point) Label() string {
	if p.Family == MemLoadVM {
		return p.DirtyRatio.Percent()
	}
	return fmt.Sprintf("%d VM", p.LoadVMs)
}

// Points enumerates the experimental points of a family. The CPULOAD
// families run both live and non-live; the MEMLOAD families are live-only
// ("since non-live migrations have DR(v,t) = 0").
func Points(f Family) ([]Point, error) {
	var out []Point
	switch f {
	case CPULoadSource, CPULoadTarget:
		for _, kind := range []migration.Kind{migration.NonLive, migration.Live} {
			for _, n := range workload.LoadLevels() {
				out = append(out, Point{Family: f, Kind: kind, LoadVMs: n})
			}
		}
	case MemLoadVM, MemLoadHotCold:
		for _, dr := range workload.DirtyLevels() {
			out = append(out, Point{Family: f, Kind: migration.Live, DirtyRatio: dr})
		}
	case MemLoadSource, MemLoadTarget:
		for _, n := range workload.LoadLevels() {
			out = append(out, Point{Family: f, Kind: migration.Live, LoadVMs: n, DirtyRatio: 0.95})
		}
	default:
		return nil, fmt.Errorf("experiments: unknown family %q", f)
	}
	return out, nil
}

// Scenario converts an experimental point into a runnable sim.Scenario on
// the given machine pair, per the configuration matrix of Table IIa.
func (p Point) Scenario(pair string, seed int64) (sim.Scenario, error) {
	sc := sim.Scenario{
		Name: fmt.Sprintf("%s/%s/%s", p.Family, p.Kind, p.Label()),
		Pair: pair,
		Kind: p.Kind,
		Seed: seed,
	}
	switch p.Family {
	case CPULoadSource:
		// Source swept 0–100%+, idle target, migrating-cpu at 100%.
		sc.MigratingType = vm.TypeMigratingCPU
		sc.MigratingProfile = workload.MatrixMultProfile()
		sc.SourceLoadVMs = p.LoadVMs
	case CPULoadTarget:
		// Source runs the migrating VM only; target swept.
		sc.MigratingType = vm.TypeMigratingCPU
		sc.MigratingProfile = workload.MatrixMultProfile()
		sc.TargetLoadVMs = p.LoadVMs
	case MemLoadVM:
		// Idle hosts; migrating-mem with swept dirty ratio.
		sc.MigratingType = vm.TypeMigratingMem
		sc.MigratingProfile = workload.PagedirtierProfile(p.DirtyRatio)
	case MemLoadHotCold:
		// Extension: same sweep, skewed dirtier.
		sc.MigratingType = vm.TypeMigratingMem
		sc.MigratingProfile = workload.HotColdMemProfile(p.DirtyRatio)
	case MemLoadSource:
		// Memory-intensive VM at 95%, source CPU swept, idle target.
		sc.MigratingType = vm.TypeMigratingMem
		sc.MigratingProfile = workload.PagedirtierProfile(p.DirtyRatio)
		sc.SourceLoadVMs = p.LoadVMs
	case MemLoadTarget:
		// Memory-intensive VM at 95%, target CPU swept.
		sc.MigratingType = vm.TypeMigratingMem
		sc.MigratingProfile = workload.PagedirtierProfile(p.DirtyRatio)
		sc.TargetLoadVMs = p.LoadVMs
	default:
		return sim.Scenario{}, fmt.Errorf("experiments: unknown family %q", p.Family)
	}
	return sc, nil
}

// Config tunes a campaign's cost/fidelity trade-off.
type Config struct {
	// Pair is the machine pair to run on.
	Pair string
	// MinRuns is the repeat floor per point (the paper used ≥ 10).
	MinRuns int
	// VarianceTol is the convergence tolerance (the paper's 10%).
	VarianceTol float64
	// Seed derives all run seeds.
	Seed int64
	// LoadLevels optionally overrides the 0,1,3,5,7,8 staircase (tests use
	// shorter sweeps).
	LoadLevels []int
	// DirtyLevels optionally overrides the MEMLOAD-VM sweep.
	DirtyLevels []units.Fraction
	// Workers bounds the campaign's concurrency: how many experimental
	// points (and, when points are fewer than workers, repeated runs within
	// a point) execute at once. 0 means runtime.NumCPU(); 1 recovers the
	// strictly sequential runner. Results are bit-identical for every
	// value — per-point seeds derive from the point index alone.
	Workers int
	// Cache optionally memoizes runs across families and campaigns (see
	// sim.NewCache). Families share points — every family revisits the
	// zero-load baseline, and suite campaigns overlap figure campaigns —
	// and a shared cache simulates each distinct (scenario, seed) block
	// once. nil runs uncached; cached results are bit-identical.
	Cache *sim.Cache
	// Ctx optionally bounds every campaign run under this config: a done
	// context stops dispatching new points/runs and abandons in-flight
	// kernel steps, surfacing the context's error. nil means
	// context.Background(). Cancellation never changes results — any
	// campaign that completes is bit-identical.
	Ctx context.Context
}

// context returns the effective execution context.
func (c Config) context() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// DefaultConfig is the paper-faithful campaign configuration.
func DefaultConfig(pair string) Config {
	return Config{Pair: pair, MinRuns: 10, VarianceTol: 0.10, Seed: 1}
}

// withDefaults normalises a config.
func (c Config) withDefaults() Config {
	if c.Pair == "" {
		c.Pair = hw.PairM
	}
	if c.MinRuns <= 0 {
		c.MinRuns = 10
	}
	if c.VarianceTol <= 0 {
		c.VarianceTol = 0.10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.Workers = parallel.Workers(c.Workers)
	return c
}

// points enumerates a family under the config's level overrides.
func (c Config) points(f Family) ([]Point, error) {
	pts, err := Points(f)
	if err != nil {
		return nil, err
	}
	if c.LoadLevels == nil && c.DirtyLevels == nil {
		return pts, nil
	}
	keepLoad := func(n int) bool {
		if c.LoadLevels == nil {
			return true
		}
		for _, l := range c.LoadLevels {
			if l == n {
				return true
			}
		}
		return false
	}
	keepDirty := func(d units.Fraction) bool {
		if c.DirtyLevels == nil {
			return true
		}
		for _, l := range c.DirtyLevels {
			if l == d {
				return true
			}
		}
		return false
	}
	var out []Point
	for _, p := range pts {
		switch p.Family {
		case MemLoadVM, MemLoadHotCold:
			if keepDirty(p.DirtyRatio) {
				out = append(out, p)
			}
		default:
			if keepLoad(p.LoadVMs) {
				out = append(out, p)
			}
		}
	}
	return out, nil
}

// shrinkTimings tightens warm-up and tail; small campaigns (tests) use it
// to cut wall-clock without touching migration physics.
func shrinkTimings(sc sim.Scenario) sim.Scenario {
	sc.PreMigration = 11 * time.Second // just enough for stabilisation
	sc.PostMigration = 6 * time.Second
	return sc
}
