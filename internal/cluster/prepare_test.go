package cluster

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// run: on a prepared config whose t=0 view and run facts a first run
// has built, newEngine allocates only the run's mutable state — 16
// objects, whatever the fleet size: the engine, its host and guest
// pointer arrays, the report and switch map (5), the view (1) and the
// copies of its mutable arrays (10) — and no per-host or per-VM objects
// such as name maps or the runtime state of a host no event has
// touched. The bytes are held per host too, at 64 (46 a host at 100k
// hosts, 49 at 8k, most of it the view's copy): a run that builds every
// host's and guest's runtime state up front (163 bytes a host at 100k
// hosts, 171 at 8k) or lays out its own t=0 view again (207 and 215)
// breaks it. Once a finished run has handed its view back, the next
// newEngine rewinds that view instead of copying it: 5 objects and 16
// bytes a host (10 measured at both sizes, nearly all of it the host
// and guest pointer arrays), which a run that copies the view again
// breaks.
func TestPreparedEngineAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the ceiling")
	}
	for _, n := range []int{8192, 100000} {
		cfg, err := Prepare(sparseFleet(n))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name                 string
			ceiling, byteCeiling int // objects per newEngine call, bytes per host
			build                func()
		}{
			{"cold", 16, 64, func() {
				if _, err := newEngine(cfg); err != nil {
					t.Fatal(err)
				}
			}},
			{"warm", 5, 16, func() {
				e, err := newEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.layout.keepView(e.pview) // as a finished run hands it back
			}},
		} {
			c.build() // build the t=0 view and run facts; the warm case keeps a view
			allocs := testing.AllocsPerRun(5, c.build)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c.build()
			runtime.ReadMemStats(&after)
			bytes := after.TotalAlloc - before.TotalAlloc
			t.Logf("%d hosts, %s: newEngine allocates %.0f objects, %d bytes (%d a host)", n, c.name, allocs, bytes, bytes/uint64(n))
			if allocs > float64(c.ceiling) {
				t.Errorf("%d hosts, %s: newEngine on a prepared config allocates %.0f objects, ceiling is %d", n, c.name, allocs, c.ceiling)
			}
			if bytes > uint64(c.byteCeiling*n) {
				t.Errorf("%d hosts, %s: newEngine on a prepared config allocates %d bytes, ceiling is %d a host", n, c.name, bytes, c.byteCeiling)
			}
		}
	}
}

// TestRunBuildsOnlyTouchedHosts runs a prepared 100,000-host fleet on
// an explicit timeline of three moves and one host crash: each run must
// build exactly the hosts those events name, and report what a run that
// builds every host reports. Two runs start at once on a new layout, so
// the run facts they share are built under -race by whichever comes
// first.
func TestRunBuildsOnlyTouchedHosts(t *testing.T) {
	cfg := sparseFleet(100000)
	cfg.Policy, cfg.PolicyConfig, cfg.Tick = nil, consolidation.Config{}, 0
	cfg.Moves = []TimedMove{
		{VM: "util000000", From: "low000000", To: "low000001"},
		{VM: "svc000007", From: "app000007", To: "sp050000", At: 10 * time.Second},
		{VM: "util000003", From: "low000003", To: "sp099999", At: 30 * time.Second},
	}
	cfg.Failures = []FailureEvent{{At: time.Minute, Kind: FailHostCrash, Host: "low000010"}}
	named := []string{"app000007", "low000000", "low000001", "low000003", "low000010", "sp050000", "sp099999"}
	cfg, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = sim.NewCache(0)
	engines := make([]*engine, 2)
	reps := make([]*Report, len(engines))
	errs := make([]error, len(engines))
	var wg sync.WaitGroup
	for i := range engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if engines[i], errs[i] = newEngine(cfg); errs[i] == nil {
				reps[i], errs[i] = engines[i].run()
			}
		}(i)
	}
	wg.Wait()
	want, _, err := runDense(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Timeline) != len(cfg.Moves) || want.OrphanedVMs != 1 {
		t.Fatalf("fixture drift: %d moves landed and %d VMs orphaned, want %d and 1", len(want.Timeline), want.OrphanedVMs, len(cfg.Moves))
	}
	for i, e := range engines {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		var built []string
		for _, h := range e.hosts {
			if h != nil {
				built = append(built, h.Name)
			}
		}
		if !slices.Equal(built, named) {
			t.Errorf("run %d built %d hosts, first %v, want exactly those its events name, %v", i, len(built), built[:min(len(built), 10)], named)
		}
		if !reflect.DeepEqual(want, reps[i]) {
			t.Errorf("run %d differs from a run that builds every host:\nsparse: %+v\ndense: %+v", i, reps[i], want)
		}
	}
}

// viewFleets are the policy fleets the kept-view tests run: the policy
// fixture, the policy fleets among the equivalence fleets (phased
// guests, whose t=0 demand is a phase factor) and the sparse 8k fleet.
func viewFleets() []namedFleet {
	out := []namedFleet{{"policy fleet", policyFleet()}, {"sparse 8k fleet", sparseFleet(8192)}}
	for i, cfg := range equivalenceFleets() {
		if cfg.Policy != nil {
			out = append(out, namedFleet{fmt.Sprintf("equivalence fleet %d", i), cfg})
		}
	}
	return out
}

// TestPreparedViewMatchesRebuild checks the layout's kept t=0 view and
// the views runs start from: the view a run starts from must equal one
// laid out afresh from the engine's host state at t=0, both for the run
// that built the kept view, which plans on a copy of it, and for the
// next run, which must plan on that copy again, rewound after the first
// run planned on it to the end of its timeline. A run started while
// another is live gets a copy of its own. Every run shares the per-host
// constants with the layout and owns everything it writes.
func TestPreparedViewMatchesRebuild(t *testing.T) {
	cache := sim.NewCache(0)
	for _, f := range viewFleets() {
		cfg, err := Prepare(f.cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		cfg.Cache = cache
		check := func(what string, e *engine) {
			hosts, _, _ := (&scanEngine{engine: e}).snapshot(0)
			if diff := viewDiff(e.pview, consolidation.NewView(hosts)); diff != "" {
				t.Errorf("%s: %s view differs from a fresh layout: %s", f.name, what, diff)
			}
			kept, v := cfg.layout.view, e.pview
			if &v.HostName[0] != &kept.HostName[0] || &v.Threads[0] != &kept.Threads[0] ||
				&v.MemCap[0] != &kept.MemCap[0] || &v.IdlePower[0] != &kept.IdlePower[0] {
				t.Errorf("%s: %s view copied the layout's per-host constants", f.name, what)
			}
			if &v.Down[0] == &kept.Down[0] || &v.Busy[0] == &kept.Busy[0] || &v.Mem[0] == &kept.Mem[0] ||
				&v.VMStart[0] == &kept.VMStart[0] || &v.VMCount[0] == &kept.VMCount[0] ||
				(len(v.Live) > 0 && &v.Live[0] == &kept.Live[0]) || (len(v.VMName) > 0 && &v.VMName[0] == &kept.VMName[0]) {
				t.Errorf("%s: %s view shares an array it writes with the layout's view", f.name, what)
			}
		}
		first, err := newEngine(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		check("the building run's", first)
		used := first.pview
		if _, err := first.run(); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if first.pview != nil {
			t.Errorf("%s: a finished run still holds the view it handed back", f.name)
		}
		second, err := newEngine(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if second.pview != used {
			t.Errorf("%s: the run after a finished one did not start from the finished run's view", f.name)
		}
		check("the recycled", second)
		third, err := newEngine(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if third.pview == second.pview {
			t.Errorf("%s: two live runs share a view", f.name)
		}
		check("a concurrent run's", third)
	}
}

// TestPreparedRunTwice runs each kept-view fleet twice on one prepared
// config, the first run building the layout's view and planning on a
// copy of it, the second planning on that copy rewound: both reports
// must equal a run of the config laid out afresh.
func TestPreparedRunTwice(t *testing.T) {
	cache := sim.NewCache(0)
	for _, f := range viewFleets() {
		cfg := f.cfg
		cfg.Cache = cache
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		p, err := Prepare(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		for run := 1; run <= 2; run++ {
			got, err := Run(p)
			if err != nil {
				t.Fatalf("%s: run %d: %v", f.name, run, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: run %d of the prepared config differs from a fresh run:\nfresh: %+v\nprepared: %+v", f.name, run, want, got)
			}
		}
	}
}

// TestPreparedViewConcurrentFirstRun starts four runs of one new
// prepared config at once: the view is built once, by whichever run
// gets there first, and shared by all (a second build, or a run writing
// into the shared view, is a data race under -race), and every report
// equals a serial run's.
func TestPreparedViewConcurrentFirstRun(t *testing.T) {
	cache := sim.NewCache(0)
	serial := sparseFleet(8192)
	serial.Cache = cache
	want, err := Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Prepare(sparseFleet(8192))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = cache
	views := make([]*consolidation.View, 4)
	reps := make([]*Report, len(views))
	errs := make([]error, len(views))
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := newEngine(cfg)
			if errs[i] = err; err == nil {
				views[i] = e.pview
				reps[i], errs[i] = e.run()
			}
		}(i)
	}
	wg.Wait()
	for i, rep := range reps {
		if errs[i] != nil {
			t.Fatalf("concurrent first run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(want, rep) {
			t.Errorf("concurrent first run %d differs from the serial run", i)
		}
		if &views[i].HostName[0] != &cfg.layout.view.HostName[0] {
			t.Errorf("concurrent first run %d started from a view of its own", i)
		}
	}
}
