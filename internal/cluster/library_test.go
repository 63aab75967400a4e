package cluster_test

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestLibraryPhysics runs the physics checker of TestReportInvariants
// over every cluster scenario of the committed library, compiled
// through internal/scenario, twice on one compiled config: the first
// run builds the layout's t=0 view, the second starts from a copy of
// it. Both reports must pass every check, with their end placements,
// and equal each other, and every planning round must keep the hosts
// it fills within their caps (capCheck). The two largest fleets are
// left out under -short, and the 100k-host one under the race detector.
func TestLibraryPhysics(t *testing.T) {
	specs, err := scenario.LoadDir("../../scenarios")
	if err != nil {
		t.Fatal(err)
	}
	cache := sim.NewCache(0)
	checked, rounds := 0, 0
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
		cfg, caps := withCapCheck(t, s.Name, c.Cluster.Config)
		cfg.Cache = cache
		var reps [2]*cluster.Report
		for run := range reps {
			rep, final, err := cluster.RunPlaced(cfg)
			if err != nil {
				t.Fatalf("%s: run %d: %v", s.Name, run+1, err)
			}
			for _, msg := range cluster.ReportViolations(cfg, rep, final) {
				t.Errorf("%s: run %d: %s", s.Name, run+1, msg)
			}
			reps[run] = rep
		}
		if !reflect.DeepEqual(reps[0], reps[1]) {
			t.Errorf("%s: the second run's report differs from the first's", s.Name)
		}
		checked++
		if caps != nil {
			rounds += caps.rounds
		}
	}
	t.Logf("%d library cluster scenarios checked, %d planning rounds held to their caps", checked, rounds)
	if checked < 10 || rounds == 0 {
		t.Fatalf("only %d library cluster scenarios and %d planning rounds checked", checked, rounds)
	}
}
