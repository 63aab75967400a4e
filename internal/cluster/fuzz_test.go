package cluster_test

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
)

// compileThenRunSeeds are one spec per form and per behaviour: each
// form's plain run, a policy of each kind, a failure schedule, a fleet,
// and one input per refusal class that once passed wavm3scen -check and
// then failed the run.
var compileThenRunSeeds = []string{
	// A migration block, and a phase timeline of two blocks.
	`{"version":1,"name":"f-mig","migrating":{"workload":{"profile":"matrixmult"}},"source_load_vms":2}`,
	`{"version":1,"name":"f-phases","migrating":{"workload":{"profile":"pagedirtier","dirty_target":0.3}},
	  "phases":[{"kind":"steady","duration_s":60},{"kind":"burst","duration_s":60,"peak":2}]}`,
	// A data-centre plan, explicit (and one into a host whose residents
	// lower to more load VMs than the testbed holds) and planned by
	// first-fit-decreasing.
	`{"version":1,"name":"f-dc","datacenter":{"hosts":[
	  {"name":"a","threads":32,"mem_gib":32,"idle_power_w":440,"vms":[{"name":"v","mem_gib":4,"busy_vcpus":4,"dirty_ratio":0.1}]},
	  {"name":"b","threads":32,"mem_gib":32,"idle_power_w":440}],
	  "moves":[{"vm":"v","from":"a","to":"b"}]}}`,
	`{"version":1,"name":"f-dc-piled","datacenter":{"hosts":[
	  {"name":"a","threads":32,"mem_gib":32,"idle_power_w":440,"vms":[{"name":"v","mem_gib":4,"busy_vcpus":4}]},
	  {"name":"b","threads":32,"mem_gib":32,"idle_power_w":440,"vms":[{"name":"w","mem_gib":4,"busy_vcpus":240}]}],
	  "moves":[{"vm":"v","from":"a","to":"b"}]}}`,
	`{"version":1,"name":"f-dc-ffd","datacenter":{"hosts":[
	  {"name":"a","threads":32,"mem_gib":32,"idle_power_w":440,"vms":[{"name":"v","mem_gib":4,"busy_vcpus":2}]},
	  {"name":"b","threads":32,"mem_gib":32,"idle_power_w":440,"vms":[{"name":"w","mem_gib":4,"busy_vcpus":4}]}]}}`,
	// A cluster timeline of two contending moves.
	`{"version":1,"name":"f-timeline","cluster":{"horizon_s":600,"hosts":[
	  {"name":"a","machine":"m01","vms":[{"name":"v1","mem_gib":4,"busy_vcpus":4,"dirty_ratio":0.1,
	    "phases":[{"kind":"diurnal","duration_s":300,"level":0.5,"peak":1.5}]}]},
	  {"name":"b","machine":"m01","vms":[{"name":"v2","mem_gib":2,"busy_vcpus":2}]},
	  {"name":"c","machine":"m01"}],
	  "moves":[{"vm":"v1","from":"a","to":"c"},{"vm":"v2","from":"b","to":"c"}]}}`,
	// A policy of each kind.
	`{"version":1,"name":"f-energy-aware","cluster":{"horizon_s":600,"tick_s":300,"policy":"energy-aware","payback_s":86400,"hosts":[
	  {"name":"a","machine":"m01","vms":[{"name":"v1","mem_gib":4,"busy_vcpus":2,"dirty_ratio":0.1}]},
	  {"name":"b","machine":"m01","vms":[{"name":"v2","mem_gib":4,"busy_vcpus":8,"dirty_ratio":0.1}]},
	  {"name":"c","machine":"m01","vms":[{"name":"v3","mem_gib":4,"busy_vcpus":6}]}]}}`,
	`{"version":1,"name":"f-ffd","cluster":{"horizon_s":600,"tick_s":300,"policy":"first-fit-decreasing","hosts":[
	  {"name":"a","machine":"m01","vms":[{"name":"v1","mem_gib":4,"busy_vcpus":2}]},
	  {"name":"b","machine":"m01","vms":[{"name":"v2","mem_gib":4,"busy_vcpus":8}]}]}}`,
	// A failure schedule: an abort, an outage window and a crash that
	// orphans a guest.
	`{"version":1,"name":"f-chaos","cluster":{"horizon_s":900,"hosts":[
	  {"name":"a","machine":"m01","vms":[{"name":"v1","mem_gib":4,"busy_vcpus":4,"dirty_ratio":0.5}]},
	  {"name":"b","machine":"m01","vms":[{"name":"v2","mem_gib":4,"busy_vcpus":2}]},
	  {"name":"c","machine":"m01"}],
	  "moves":[{"vm":"v1","from":"a","to":"c","at_s":10},{"vm":"v1","from":"a","to":"c","at_s":400}],
	  "failures":[{"at_s":20,"kind":"flight-abort","vm":"v1"},
	    {"at_s":100,"kind":"switch-outage","switch":"Cisco Catalyst 3750"},
	    {"at_s":200,"kind":"switch-restore","switch":"Cisco Catalyst 3750"},
	    {"at_s":300,"kind":"host-crash","host":"b"}],
	  "evacuation_deadline_s":600}}`,
	// A jittered fleet under a policy.
	`{"version":1,"name":"f-fleet","cluster":{"horizon_s":1200,"tick_s":600,"policy":"energy-aware","fleet":[
	  {"name":"web","count":4,"machine":"m01","phase_jitter_s":300,"vms":[{"name":"fe","mem_gib":4,"busy_vcpus":3,
	    "phases":[{"kind":"diurnal","duration_s":1200,"level":0.3,"peak":1}]}]}]}}`,
	// A guest busier than its host, beyond int range and beyond the
	// testbed, with a move into its host; and one no host can hold.
	`{"version":1,"name":"f-busy-1e300","cluster":{"hosts":[
	  {"name":"a","machine":"m01","vms":[{"name":"v","mem_gib":4,"busy_vcpus":4}]},
	  {"name":"b","machine":"m01","vms":[{"name":"w","mem_gib":4,"busy_vcpus":1e300}]}],
	  "moves":[{"vm":"v","from":"a","to":"b"}]}}`,
	`{"version":1,"name":"f-busy-400","cluster":{"hosts":[
	  {"name":"a","machine":"m01","vms":[{"name":"v","mem_gib":4,"busy_vcpus":4}]},
	  {"name":"b","machine":"m01","vms":[{"name":"w","mem_gib":4,"busy_vcpus":400}]}],
	  "moves":[{"vm":"v","from":"a","to":"b"}]}}`,
	`{"version":1,"name":"f-ffd-40","cluster":{"horizon_s":600,"tick_s":300,"policy":"first-fit-decreasing","hosts":[
	  {"name":"a","machine":"m01","vms":[{"name":"v","mem_gib":4,"busy_vcpus":40}]},
	  {"name":"b","machine":"m01"}]}}`,
	// Three guests that no first-fit-decreasing repack can place within
	// the 0.9 CPU cap, on hosts none of which is over its threads.
	`{"version":1,"name":"f-ffd-stuck","cluster":{"horizon_s":600,"tick_s":300,"policy":"first-fit-decreasing","hosts":[
	  {"name":"h01","machine":"m01","vms":[{"name":"v1","mem_gib":4,"busy_vcpus":15},{"name":"v2","mem_gib":4,"busy_vcpus":15}]},
	  {"name":"h02","machine":"m01","vms":[{"name":"v3","mem_gib":4,"busy_vcpus":15}]}]}}`,
	// A first-fit-decreasing round cut short by its move budget, whose
	// one move would land on a host that the guests left in place push
	// past its threads.
	`{"version":1,"name":"f-ffd-budget","cluster":{"horizon_s":900,"tick_s":300,"policy":"first-fit-decreasing","max_moves":1,"hosts":[
	  {"name":"h01","machine":"m01","vms":[{"name":"v1","mem_gib":4,"busy_vcpus":14},{"name":"v2","mem_gib":4,"busy_vcpus":14}]},
	  {"name":"h02","machine":"m01","vms":[{"name":"v3","mem_gib":4,"busy_vcpus":20}]}]}}`,
	// A move into a host piled past the testbed: eight guests of 30
	// busy vCPUs lower to 60 load VMs.
	`{"version":1,"name":"f-piled","cluster":{"hosts":[
	  {"name":"a","machine":"m01","vms":[{"name":"v","mem_gib":4,"busy_vcpus":4}]},
	  {"name":"b","machine":"m01","vms":[
	    {"name":"p0","mem_gib":2,"busy_vcpus":30},{"name":"p1","mem_gib":2,"busy_vcpus":30},
	    {"name":"p2","mem_gib":2,"busy_vcpus":30},{"name":"p3","mem_gib":2,"busy_vcpus":30},
	    {"name":"p4","mem_gib":2,"busy_vcpus":30},{"name":"p5","mem_gib":2,"busy_vcpus":30},
	    {"name":"p6","mem_gib":2,"busy_vcpus":30},{"name":"p7","mem_gib":2,"busy_vcpus":30}]}],
	  "moves":[{"vm":"v","from":"a","to":"b"}]}}`,
	// A move into a host that crashes first, and a move of a VM still
	// in flight.
	`{"version":1,"name":"f-crash-first","cluster":{"hosts":[
	  {"name":"a","machine":"m01","vms":[{"name":"v","mem_gib":4,"busy_vcpus":4}]},
	  {"name":"b","machine":"m01"}],
	  "moves":[{"vm":"v","from":"a","to":"b","at_s":60}],
	  "failures":[{"at_s":10,"kind":"host-crash","host":"b"}]}}`,
	`{"version":1,"name":"f-in-flight","cluster":{"hosts":[
	  {"name":"a","machine":"m01","vms":[{"name":"v","mem_gib":4,"busy_vcpus":4,"dirty_ratio":0.5}]},
	  {"name":"b","machine":"m01"},{"name":"c","machine":"m01"}],
	  "moves":[{"vm":"v","from":"a","to":"b"},{"vm":"v","from":"b","to":"c","at_s":1}]}}`,
}

// FuzzCompileThenRun holds wavm3scen -check to its promise: a spec that
// passes it runs. Every input scenario.Parse accepts, with at most 64
// hosts, 16 plan moves and 4 blocks, must run under a 3 s context, or
// fail only by that context or with a *scenario.Error once Spec.RunError
// has mapped it; a 500 from wavm3d is left for the daemon's own faults.
// Every cluster report must pass the physics checker of
// TestReportInvariants, with its end placement.
func FuzzCompileThenRun(f *testing.F) {
	for _, seed := range compileThenRunSeeds {
		f.Add([]byte(seed))
	}
	cache := sim.NewCache(64)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := scenario.Parse("fuzz", data)
		if err != nil {
			return // FuzzSpecDecode holds what Parse refuses to a field path
		}
		c, err := s.Compile()
		if err != nil {
			t.Fatalf("Parse accepted a spec Compile refuses: %v", err)
		}
		switch {
		case len(c.Runs) > 4,
			c.Plan != nil && (len(c.Plan.Hosts) > 64 || len(c.Plan.Plan.Moves) > 16),
			c.Cluster != nil && (len(c.Cluster.Config.Hosts) > 64 || len(c.Cluster.Config.Moves) > 16):
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if c.Cluster != nil {
			cfg := c.Cluster.Config
			cfg.Ctx, cfg.Cache, cfg.Workers = ctx, cache, 1
			rep, final, err := cluster.RunPlaced(cfg)
			if err == nil {
				for _, msg := range cluster.ReportViolations(cfg, rep, final) {
					t.Errorf("%s", msg)
				}
			}
			wantRunOrRefusal(t, s, ctx, err)
			return
		}
		_, err = service.Exec(ctx, io.Discard, c, 1, cache)
		wantRunOrRefusal(t, s, ctx, err)
	})
}

// wantRunOrRefusal fails the test unless a compiled spec's run
// succeeded, ran out of its context or was refused at a field of the
// spec.
func wantRunOrRefusal(t *testing.T, s *scenario.Spec, ctx context.Context, err error) {
	t.Helper()
	var serr *scenario.Error
	switch {
	case err == nil, ctx.Err() != nil && errors.Is(err, ctx.Err()):
	case !errors.As(s.RunError(err), &serr):
		t.Fatalf("a spec that compiled failed to run: %v", err)
	}
}
