package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/consolidation"
	"repro/internal/migration"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkClusterTimeline measures a full 8-host policy-driven
// timeline: four planning rounds, every planned migration lowered to
// the kernel and answered through a shared run cache. It is the
// cluster-layer companion to the campaign benchmarks in bench_test.go
// at the repo root and runs in the CI bench smoke.
func BenchmarkClusterTimeline(b *testing.B) {
	cache := sim.NewCache(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := policyFleet()
		cfg.Cache = cache
		rep, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Timeline) == 0 {
			b.Fatal("timeline ran no migrations")
		}
	}
}

// BenchmarkClusterTimelineUncached is the same timeline without the run
// cache: the cost of simulating every migration fresh.
func BenchmarkClusterTimelineUncached(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(policyFleet()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFleet builds an n-host single-switch consolidation fixture that
// scales the scheduler's load with n: every fourth host runs a nearly
// idle straggler the energy-aware policy drains, the rest carry
// moderate phased load, so the first tick dispatches ~n/4 concurrent
// migrations that all contend on one switch — the worst case for the
// event loop (flight count, occupancy churn and view size all grow
// with n).
func benchFleet(n int) Config {
	hosts := make([]Host, n)
	for i := range hosts {
		name := fmt.Sprintf("h%04d", i)
		if i%4 == 3 {
			hosts[i] = Host{Name: name, Machine: "m02", VMs: []VM{{
				Name: fmt.Sprintf("idle%04d", i), MemBytes: gib(4),
				BusyVCPUs: 1, DirtyRatio: 0.05,
			}}}
			continue
		}
		vm := VM{
			Name: fmt.Sprintf("app%04d", i), MemBytes: gib(4),
			BusyVCPUs: 6 + float64(i%3)*2, DirtyRatio: 0.1,
		}
		if i%8 == 0 {
			vm.Phases = []workload.Phase{{Kind: workload.PhaseDiurnal, Duration: 24 * time.Hour, Level: 0.4, Peak: 1}}
		}
		hosts[i] = Host{Name: name, Machine: "m01", VMs: []VM{vm}}
	}
	return Config{
		Kind:         migration.Live,
		Hosts:        hosts,
		Policy:       consolidation.EnergyAware{Model: consolidation.HeuristicCost{}},
		PolicyConfig: consolidation.Config{Horizon: 24 * time.Hour},
		Tick:         30 * time.Minute,
		Horizon:      2 * time.Hour,
		Seed:         7,
	}
}

// benchTimeline runs the n-host fixture with a cache shared across
// iterations (like BenchmarkClusterTimeline): the first iteration pays
// the kernel runs, later ones measure the scheduling core.
func benchTimeline(b *testing.B, n int) {
	cache := sim.NewCache(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchFleet(n)
		cfg.Cache = cache
		rep, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.PeakFlights < n/8 {
			b.Fatalf("peak flights %d at %d hosts; fixture drift, the link is not contended", rep.PeakFlights, n)
		}
	}
}

// BenchmarkClusterTimeline64/256/1024 prove the scaling curve of the
// heap scheduler: wall clock per timeline must grow near-linearly in
// fleet size (the linear-scan loop grew quadratically). 1024 hosts is
// the ISSUE 5 target: a full policy-driven timeline in single-digit
// seconds.
func BenchmarkClusterTimeline64(b *testing.B)   { benchTimeline(b, 64) }
func BenchmarkClusterTimeline256(b *testing.B)  { benchTimeline(b, 256) }
func BenchmarkClusterTimeline1024(b *testing.B) { benchTimeline(b, 1024) }

// sparseFleet builds an n-host fixture shaped like a real large
// datacenter, mirroring the drain-100k-rolling scenario: most hosts are
// powered-on empty spares (never migration sources or targets), a
// quarter carry app guests whose drain fails the tight payback budget
// after a single cost probe, and a 512-host under-utilised pocket is
// worth merging. Planning rounds therefore scan ~n/4 populated hosts
// out of n while the kernel count stays bounded by the pocket — the
// shape that makes a 24-hour 100k-host timeline finish in seconds.
func sparseFleet(n int) Config {
	const lows = 512
	apps := n / 4
	hosts := make([]Host, 0, n)
	for i := 0; i < apps; i++ {
		hosts = append(hosts, Host{Name: fmt.Sprintf("app%06d", i), Machine: "m01", VMs: []VM{{
			Name: fmt.Sprintf("svc%06d", i), MemBytes: gib(8),
			BusyVCPUs: 5, DirtyRatio: 0.12,
		}}})
	}
	for i := 0; i < lows; i++ {
		hosts = append(hosts, Host{Name: fmt.Sprintf("low%06d", i), Machine: "m02", VMs: []VM{{
			Name: fmt.Sprintf("util%06d", i), MemBytes: gib(4),
			BusyVCPUs: 1, DirtyRatio: 0.04,
		}}})
	}
	for i := apps + lows; i < n; i++ {
		hosts = append(hosts, Host{Name: fmt.Sprintf("sp%06d", i), Machine: "m02"})
	}
	return Config{
		Kind:         migration.Live,
		Hosts:        hosts,
		Policy:       consolidation.EnergyAware{Model: consolidation.HeuristicCost{}},
		PolicyConfig: consolidation.Config{Horizon: 250 * time.Second, MaxMoves: 8},
		Tick:         15 * time.Minute,
		Horizon:      24 * time.Hour,
		Seed:         8,
	}
}

// benchSparseTimeline runs the n-host sparse fixture over a simulated
// 24-hour maintenance day, cache shared across iterations.
func benchSparseTimeline(b *testing.B, n int) {
	cache := sim.NewCache(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := sparseFleet(n)
		cfg.Cache = cache
		runSparseDay(b, cfg)
	}
}

// runSparseDay runs one sparse-fixture day and checks its shape.
func runSparseDay(b *testing.B, cfg Config) {
	rep, err := Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if len(rep.Timeline) == 0 || rep.ReplanRounds != 96 {
		b.Fatalf("fixture drift: %d moves over %d rounds, want a converging 96-round day", len(rep.Timeline), rep.ReplanRounds)
	}
}

// BenchmarkClusterTimeline8k/100k are the fleet-scale targets of the
// SoA re-plan work: a full 24-hour policy-driven day — 96 planning
// rounds over a sparse datacenter — must close in single-digit seconds
// at 100,000 hosts. Unlike the dense fixtures above, the migration
// count is bounded by the drainable pocket, so these measure the
// planner's scan and the incremental view, not kernel throughput.
func BenchmarkClusterTimeline8k(b *testing.B)   { benchSparseTimeline(b, 8192) }
func BenchmarkClusterTimeline100k(b *testing.B) { benchSparseTimeline(b, 100000) }

// BenchmarkClusterTimeline100kPrepared times what a compiled scenario's
// run costs: the 100,000-host fixture is built and prepared before the
// timer starts, as scenario compilation does, so each iteration builds
// only the run's mutable state before the day runs.
func BenchmarkClusterTimeline100kPrepared(b *testing.B) {
	cfg, err := Prepare(sparseFleet(100000))
	if err != nil {
		b.Fatal(err)
	}
	cfg.Cache = sim.NewCache(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSparseDay(b, cfg)
	}
}
