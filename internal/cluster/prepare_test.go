package cluster

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/consolidation"
	"repro/internal/sim"
)

// countingViewPolicy wraps a view policy and counts its planning
// rounds, as a tracing wrapper around a compiled scenario's policy does.
type countingViewPolicy struct {
	consolidation.ViewPolicy
	calls *atomic.Int64
}

func (p countingViewPolicy) PlanView(v *consolidation.View, cfg consolidation.Config) (*consolidation.Plan, error) {
	p.calls.Add(1)
	return p.ViewPolicy.PlanView(v, cfg)
}

// planOnly hides a policy's PlanView: a policy that plans only through
// the classic HostState entry point.
type planOnly struct{ consolidation.Policy }

// TestPreparedRunMatchesFresh checks that a prepared config runs exactly
// as the same config checked and laid out afresh — the same report or
// the same error — on every equivalence fleet and both fleet fixtures,
// and that the reuse rule never lets a changed config skip validation.
func TestPreparedRunMatchesFresh(t *testing.T) {
	cache := sim.NewCache(0)
	fleets := append(equivalenceFleets(), policyFleet(), sparseFleet(8192))
	for i, cfg := range fleets {
		cfg.Cache = cache
		want, errFresh := Run(cfg)
		p, err := Prepare(cfg)
		if err != nil {
			t.Fatalf("fleet %d: Prepare: %v", i, err)
		}
		got, errPrep := Run(p)
		if (errFresh == nil) != (errPrep == nil) || (errFresh != nil && errFresh.Error() != errPrep.Error()) {
			t.Fatalf("fleet %d: fresh and prepared runs disagree on failure:\nfresh: %v\nprepared: %v", i, errFresh, errPrep)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("fleet %d (policy=%v, %d moves, %d failures): fresh and prepared reports differ:\nfresh: %+v\nprepared: %+v",
				i, cfg.Policy != nil, len(cfg.Moves), len(cfg.Failures), want, got)
		}
	}

	prepared, err := Prepare(policyFleet())
	if err != nil {
		t.Fatal(err)
	}
	prepared.Cache = cache
	for _, c := range []struct {
		name   string
		change func(*Config)
		want   string
	}{
		{"repeated host", func(c *Config) { c.Hosts = append(slices.Clone(c.Hosts), c.Hosts[0]) }, "duplicate host"},
		{"zero tick", func(c *Config) { c.Tick = 0 }, "positive tick period"},
		{"unknown crash", func(c *Config) {
			c.Failures = []FailureEvent{{At: 0, Kind: FailHostCrash, Host: "nowhere"}}
		}, `crashes unknown host "nowhere"`},
		// The layout records only that a policy is set, so the engine
		// itself refuses one it cannot plan against its view.
		{"policy without PlanView", func(c *Config) { c.Policy = planOnly{c.Policy} },
			"policy energy-aware does not implement consolidation.ViewPolicy"},
	} {
		cfg := prepared
		c.change(&cfg)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s after Prepare: err = %v, want %q", c.name, err, c.want)
		}
	}

	// A shallow copy with a wrapped policy keeps the layout and plans
	// with the wrapper.
	var calls atomic.Int64
	wrapped := prepared
	wrapped.Policy = countingViewPolicy{ViewPolicy: prepared.Policy.(consolidation.ViewPolicy), calls: &calls}
	e, err := newEngine(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.layout != prepared.layout {
		t.Error("a copy with a wrapped policy was laid out afresh")
	}
	want, err := Run(prepared)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Error("the wrapped policy never planned")
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("wrapped-policy report differs from the prepared one:\nprepared: %+v\nwrapped: %+v", want, got)
	}
}

// TestPreparedConfigConcurrentRuns runs one prepared config from four
// goroutines on a shared run cache: the runs share the layout, so any
// write a run makes into it is a data race under -race, and every
// report must equal a serial run's.
func TestPreparedConfigConcurrentRuns(t *testing.T) {
	cfg, err := Prepare(sparseFleet(8192))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = sim.NewCache(0)
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*Report, 4)
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = Run(cfg)
		}(i)
	}
	wg.Wait()
	for i, rep := range reps {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(want, rep) {
			t.Errorf("concurrent run %d differs from the serial run", i)
		}
	}
}

// TestPreparedEngineAllocCeiling is the allocation gate for building a
// run: on a prepared config, newEngine allocates only the run's mutable
// state — a fixed number of arrays, whatever the fleet size — and no
// per-host or per-VM objects such as name maps.
func TestPreparedEngineAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the ceiling")
	}
	const ceiling = 32 // objects per newEngine call
	for _, n := range []int{8192, 100000} {
		cfg, err := Prepare(sparseFleet(n))
		if err != nil {
			t.Fatal(err)
		}
		build := func() {
			if _, err := newEngine(cfg); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(5, build)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		t.Logf("%d hosts: newEngine allocates %.0f objects, %d bytes", n, allocs, after.TotalAlloc-before.TotalAlloc)
		if allocs > ceiling {
			t.Errorf("%d hosts: newEngine on a prepared config allocates %.0f objects, ceiling is %d", n, allocs, ceiling)
		}
	}
}
