package cluster_test

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/consolidation"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// libraryClusters compiles every cluster scenario of the committed
// library and calls check with each compiled config, on one shared run
// cache, and the report of a run of the config laid out afresh (its
// Hosts a new slice, so the run validates and lays out its own layout
// and copies that layout's t=0 view). The two largest fleets are left
// out under -short, and the 100k-host one under the race detector.
// Scenarios with an explicit timeline plan on no view, so their runs
// have a nil view.
func libraryClusters(t *testing.T, check func(name string, cfg cluster.Config, fresh *cluster.Report)) {
	specs, err := scenario.LoadDir("../../scenarios")
	if err != nil {
		t.Fatal(err)
	}
	cache := sim.NewCache(0)
	checked, planning := 0, 0
	for _, s := range specs {
		c, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if c.Cluster == nil {
			continue
		}
		switch {
		case testing.Short() && (s.Name == "fleet-8k" || s.Name == "drain-100k-rolling"):
			continue
		case cluster.RaceEnabled && s.Name == "drain-100k-rolling":
			continue
		}
		cfg := c.Cluster.Config
		cfg.Cache = cache
		fresh := cfg
		fresh.Hosts = slices.Clone(cfg.Hosts)
		want, err := cluster.Run(fresh)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		check(s.Name, cfg, want)
		checked++
		if cfg.Policy != nil {
			planning++
		}
	}
	if checked < 10 || planning < 5 {
		t.Fatalf("only %d library cluster scenarios checked, %d of them planning", checked, planning)
	}
}

// TestLibraryPhysics runs the physics checker of TestReportInvariants
// over every cluster scenario of the committed library, compiled
// through internal/scenario, three times in a row on one compiled
// config. Where a policy plans, the first run plans on a copy of the
// layout's t=0 view, and each later run must plan on the view the run
// before it handed back, rewound. Every report must pass every check,
// with its end placement, and equal a fresh run's, and every planning
// round must keep the hosts it fills within their caps (capCheck).
func TestLibraryPhysics(t *testing.T) {
	rounds := 0
	libraryClusters(t, func(name string, compiled cluster.Config, want *cluster.Report) {
		cfg, caps := withCapCheck(t, name, compiled)
		var last *consolidation.View
		for run := 1; run <= 3; run++ {
			v, start, err := cluster.StartRun(cfg)
			if err != nil {
				t.Fatalf("%s: run %d: %v", name, run, err)
			}
			if run > 1 && cfg.Policy != nil && v != last {
				t.Errorf("%s: run %d did not plan on the view run %d handed back", name, run, run-1)
			}
			rep, final, err := start()
			if err != nil {
				t.Fatalf("%s: run %d: %v", name, run, err)
			}
			for _, msg := range cluster.ReportViolations(cfg, rep, final) {
				t.Errorf("%s: run %d: %s", name, run, msg)
			}
			if !reflect.DeepEqual(want, rep) {
				t.Errorf("%s: run %d of the compiled config differs from a fresh run", name, run)
			}
			last = v
		}
		if caps != nil {
			rounds += caps.rounds
		}
	})
	t.Logf("%d planning rounds held to their caps", rounds)
	if rounds == 0 {
		t.Fatal("no planning round was held to its caps")
	}
}

// TestLibraryRecycledViewsConcurrent runs every cluster scenario of the
// committed library in three rounds of three concurrent runs on one
// compiled config. Each round builds its runs at once and starts none
// before all are built, so their views are live together and must be
// distinct; from the second round on, one of them plans on the view a
// run of the round before handed back. The runs then go at once, and
// every report must equal a fresh run's; under -race, a view taken or
// handed back without a happens-before edge shows as a race.
func TestLibraryRecycledViewsConcurrent(t *testing.T) {
	libraryClusters(t, func(name string, cfg cluster.Config, want *cluster.Report) {
		const runs = 3
		var handed []*consolidation.View // the views the last round handed back
		for round := 1; round <= 3; round++ {
			views := make([]*consolidation.View, runs)
			starts := make([]func() (*cluster.Report, []cluster.PlacedHost, error), runs)
			reps := make([]*cluster.Report, runs)
			errs := make([]error, runs)
			var wg sync.WaitGroup
			for i := range views {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					views[i], starts[i], errs[i] = cluster.StartRun(cfg)
				}(i)
			}
			wg.Wait()
			recycled := 0
			for i, v := range views {
				if errs[i] != nil {
					t.Fatalf("%s: round %d run %d: %v", name, round, i, errs[i])
				}
				if v != nil && slices.Contains(views[:i], v) {
					t.Fatalf("%s: round %d: two live runs share a view", name, round)
				}
				if v != nil && slices.Contains(handed, v) {
					recycled++
				}
			}
			if round > 1 && cfg.Policy != nil && recycled != 1 {
				t.Errorf("%s: round %d: %d runs planned on a view the round before handed back, want 1", name, round, recycled)
			}
			for i := range starts {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					reps[i], _, errs[i] = starts[i]()
				}(i)
			}
			wg.Wait()
			for i, rep := range reps {
				if errs[i] != nil {
					t.Fatalf("%s: round %d run %d: %v", name, round, i, errs[i])
				}
				if !reflect.DeepEqual(want, rep) {
					t.Errorf("%s: round %d run %d differs from a fresh run", name, round, i)
				}
			}
			handed = views
		}
	})
}
