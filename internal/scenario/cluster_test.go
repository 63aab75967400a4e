package scenario

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/consolidation"
	"repro/internal/migration"
	"repro/internal/sim"
)

// clusterBase is a minimal valid cluster spec used by the validation
// matrix: two hosts, one phased VM, one explicit move.
func clusterBase() *Spec {
	return &Spec{
		Version: CurrentVersion,
		Name:    "cl-test",
		Cluster: &ClusterSpec{
			HorizonS: 3600,
			Hosts: []ClusterHostSpec{
				{Name: "a", Machine: "m01", VMs: []ClusterVMSpec{
					{Name: "v1", MemGiB: 4, BusyVCPUs: 2, DirtyRatio: 0.1,
						Phases: []PhaseSpec{{Kind: "diurnal", DurationS: 3600, Level: 0.5, Peak: 1.5}}},
				}},
				{Name: "b", Machine: "m01"},
			},
			Moves: []TimedMoveSpec{{VM: "v1", From: "a", To: "b", AtS: 60}},
		},
	}
}

// clusterPolicyBase swaps the explicit move for an energy-aware tick.
func clusterPolicyBase() *Spec {
	s := clusterBase()
	s.Cluster.Moves = nil
	s.Cluster.Policy = PolicyEnergyAware
	s.Cluster.TickS = 600
	s.Cluster.PaybackS = 86400
	return s
}

func TestClusterValidationPaths(t *testing.T) {
	at := func(v float64) *float64 { return &v }
	if _, err := clusterBase().Compile(); err != nil {
		t.Fatalf("valid cluster spec rejected: %v", err)
	}
	if _, err := clusterPolicyBase().Compile(); err != nil {
		t.Fatalf("valid policy cluster spec rejected: %v", err)
	}
	cases := []struct {
		name     string
		mutate   func(*Spec)
		wantPath string
	}{
		{"both forms", func(s *Spec) { s.Datacenter = &Datacenter{} }, "cluster"},
		{"pair set", func(s *Spec) { s.Pair = "m01-m02" }, "pair"},
		{"migrating set", func(s *Spec) { s.Migrating.Workload.Profile = ProfileIdle }, "migrating"},
		{"spec phases set", func(s *Spec) { s.Phases = []PhaseSpec{{Kind: "steady", DurationS: 1}} }, "phases"},
		{"load vms set", func(s *Spec) { s.SourceLoadVMs = 1 }, "source_load_vms"},
		{"load workload set", func(s *Spec) { s.LoadWorkload = &Workload{Profile: ProfileMatrixMult} }, "load_workload"},
		{"repeat set", func(s *Spec) { s.Repeat = &Repeat{MinRuns: 3} }, "repeat"},
		{"meter set", func(s *Spec) { s.Meter = &Meter{PeriodMS: 1000} }, "meter"},
		{"post-copy", func(s *Spec) { s.Kind = "post-copy" }, "kind"},
		{"no hosts", func(s *Spec) { s.Cluster.Hosts = nil }, "cluster.hosts"},
		{"bad policy", func(s *Spec) { s.Cluster.Policy = "round-robin" }, "cluster.policy"},
		{"no moves no policy", func(s *Spec) { s.Cluster.Moves = nil }, "cluster.moves"},
		{"tick without policy", func(s *Spec) { s.Cluster.TickS = 60 }, "cluster.tick_s"},
		{"cap without policy", func(s *Spec) { s.Cluster.CPUCap = 0.8 }, "cluster.cpu_cap"},
		{"unnamed host", func(s *Spec) { s.Cluster.Hosts[1].Name = "" }, "cluster.hosts[1].name"},
		{"duplicate host", func(s *Spec) { s.Cluster.Hosts[1].Name = "a" }, "cluster.hosts[1].name"},
		{"unknown machine", func(s *Spec) { s.Cluster.Hosts[1].Machine = "vax" }, "cluster.hosts[1].machine"},
		{"unnamed vm", func(s *Spec) { s.Cluster.Hosts[0].VMs[0].Name = "" }, "cluster.hosts[0].vms[0].name"},
		{"duplicate vm", func(s *Spec) {
			s.Cluster.Hosts[1].VMs = []ClusterVMSpec{{Name: "v1", MemGiB: 4}}
		}, "cluster.hosts[1].vms[0].name"},
		{"no memory", func(s *Spec) { s.Cluster.Hosts[0].VMs[0].MemGiB = 0 }, "cluster.hosts[0].vms[0].mem_gib"},
		{"memory overflows", func(s *Spec) { s.Cluster.Hosts[0].VMs[0].MemGiB = 1e10 }, "cluster.hosts[0].vms[0].mem_gib"},
		{"memory below a byte", func(s *Spec) { s.Cluster.Hosts[0].VMs[0].MemGiB = 1e-12 }, "cluster.hosts[0].vms[0].mem_gib"},
		{"negative busy", func(s *Spec) { s.Cluster.Hosts[0].VMs[0].BusyVCPUs = -1 }, "cluster.hosts[0].vms[0].busy_vcpus"},
		{"dirty out of range", func(s *Spec) { s.Cluster.Hosts[0].VMs[0].DirtyRatio = 1.5 }, "cluster.hosts[0].vms[0].dirty_ratio"},
		{"vm phase bad kind", func(s *Spec) {
			s.Cluster.Hosts[0].VMs[0].Phases[0].Kind = "spiky"
		}, "cluster.hosts[0].vms[0].phases[0].kind"},
		{"vm phase with at", func(s *Spec) {
			s.Cluster.Hosts[0].VMs[0].Phases[0].At = at(0.5)
		}, "cluster.hosts[0].vms[0].phases[0].at"},
		{"unknown move vm", func(s *Spec) { s.Cluster.Moves[0].VM = "ghost" }, "cluster.moves[0].vm"},
		{"unknown from", func(s *Spec) { s.Cluster.Moves[0].From = "ghost" }, "cluster.moves[0].from"},
		{"unknown to", func(s *Spec) { s.Cluster.Moves[0].To = "ghost" }, "cluster.moves[0].to"},
		{"self move", func(s *Spec) { s.Cluster.Moves[0].To = "a" }, "cluster.moves[0].to"},
		{"negative at", func(s *Spec) { s.Cluster.Moves[0].AtS = -1 }, "cluster.moves[0].at_s"},
		{"at overflows a duration", func(s *Spec) { s.Cluster.Moves[0].AtS = 1e11 }, "cluster.moves[0].at_s"},
		{"horizon overflows a duration", func(s *Spec) { s.Cluster.HorizonS = 1e11 }, "cluster.horizon_s"},
		{"vm phase overflows a duration", func(s *Spec) {
			s.Cluster.Hosts[0].VMs[0].Phases[0].DurationS = 1e11
		}, "cluster.hosts[0].vms[0].phases[0].duration_s"},
		{"cross-switch move", func(s *Spec) { s.Cluster.Hosts[1].Machine = "o1" }, "cluster.moves[0].to"},
		// A guest busier than its host's threads: a move into its host
		// lowers its demand to load VMs, beyond int range from 1e300
		// vCPUs and beyond the testbed's RAM from 400.
		{"vm demand beyond int range", func(s *Spec) {
			s.Cluster.Hosts[1].VMs = []ClusterVMSpec{{Name: "w", MemGiB: 4, BusyVCPUs: 1e300}}
		}, "cluster.hosts[1].vms[0].busy_vcpus"},
		{"vm demand beyond the testbed", func(s *Spec) {
			s.Cluster.Hosts[1].VMs = []ClusterVMSpec{{Name: "w", MemGiB: 4, BusyVCPUs: 400}}
		}, "cluster.hosts[1].vms[0].busy_vcpus"},
		{"first move not from the initial host", func(s *Spec) {
			s.Cluster.Hosts = append(s.Cluster.Hosts, ClusterHostSpec{Name: "c", Machine: "m01"})
			s.Cluster.Moves[0].From = "c"
		}, "cluster.moves[0].from"},
		{"later move not from where the last one landed", func(s *Spec) {
			s.Cluster.Moves = append(s.Cluster.Moves, TimedMoveSpec{VM: "v1", From: "a", To: "b", AtS: 1200})
		}, "cluster.moves[1].from"},
		{"moves replayed in dispatch order", func(s *Spec) {
			s.Cluster.Moves = []TimedMoveSpec{{VM: "v1", From: "a", To: "b", AtS: 1200}, {VM: "v1", From: "b", To: "a", AtS: 60}}
		}, "cluster.moves[1].from"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := clusterBase()
			tc.mutate(s)
			wantSpecError(t, s, tc.wantPath)
		})
	}
	policyCases := []struct {
		name     string
		mutate   func(*Spec)
		wantPath string
	}{
		{"policy with moves", func(s *Spec) {
			s.Cluster.Moves = []TimedMoveSpec{{VM: "v1", From: "a", To: "b"}}
		}, "cluster.moves"},
		{"policy no tick", func(s *Spec) { s.Cluster.TickS = 0 }, "cluster.tick_s"},
		{"policy no horizon", func(s *Spec) { s.Cluster.HorizonS = 0 }, "cluster.horizon_s"},
		{"policy one host", func(s *Spec) { s.Cluster.Hosts = s.Cluster.Hosts[:1] }, "cluster.hosts"},
		{"cap out of range", func(s *Spec) { s.Cluster.CPUCap = 1.5 }, "cluster.cpu_cap"},
		{"negative payback", func(s *Spec) { s.Cluster.PaybackS = -1 }, "cluster.payback_s"},
		{"payback overflows a duration", func(s *Spec) { s.Cluster.PaybackS = 1e11 }, "cluster.payback_s"},
		{"horizon overflows a duration", func(s *Spec) { s.Cluster.HorizonS = 1e11 }, "cluster.horizon_s"},
		{"tick overflows a duration", func(s *Spec) { s.Cluster.TickS = 1e11 }, "cluster.tick_s"},
		{"vm demand no host can hold", func(s *Spec) {
			s.Cluster.Policy = PolicyFirstFit
			s.Cluster.Hosts[0].VMs[0].BusyVCPUs = 40
			s.Cluster.Hosts[0].VMs[0].Phases = nil
		}, "cluster.hosts[0].vms[0].busy_vcpus"},
	}
	for _, tc := range policyCases {
		t.Run(tc.name, func(t *testing.T) {
			s := clusterPolicyBase()
			tc.mutate(s)
			wantSpecError(t, s, tc.wantPath)
		})
	}
}

// TestClusterMoveSourceReplay checks the sources the compile-time replay
// of explicit moves accepts: moves listed out of time order run in
// dispatch order, and after a move a failure could abort, a VM's next
// move may start where that move began as well as where it ends. Such
// a move that the run finds impossible is refused there, at its path.
func TestClusterMoveSourceReplay(t *testing.T) {
	s := clusterBase()
	s.Cluster.Moves = []TimedMoveSpec{{VM: "v1", From: "b", To: "a", AtS: 1200}, {VM: "v1", From: "a", To: "b", AtS: 60}}
	if _, err := s.Compile(); err != nil {
		t.Errorf("moves listed out of time order: %v", err)
	}
	for _, f := range []FailureSpec{{AtS: 61, Kind: "flight-abort", VM: "v1"}, {AtS: 61, Kind: "host-crash", Host: "a"}} {
		s := clusterBase()
		s.Cluster.Moves = append(s.Cluster.Moves, TimedMoveSpec{VM: "v1", From: "a", To: "b", AtS: 1200})
		s.Cluster.Failures = []FailureSpec{f}
		if _, err := s.Compile(); err != nil {
			t.Errorf("%s after the first move: a second move from its source refused: %v", f.Kind, err)
		}
		// A failure at the dispatch instant applies before it.
		s.Cluster.Failures[0].AtS = 60
		wantSpecError(t, s, "cluster.moves[1].from")
	}

	// A flight-abort at 1,100 s could abort the first move as far as the
	// spec says, but that flight has landed by then: the run finds v1 on
	// b and refuses the second move, which RunError roots at its path.
	s = clusterBase()
	s.Cluster.Moves = append(s.Cluster.Moves, TimedMoveSpec{VM: "v1", From: "a", To: "b", AtS: 1200})
	s.Cluster.Failures = []FailureSpec{{AtS: 1100, Kind: "flight-abort", VM: "v1"}}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.Cluster.Config
	cfg.Cache = sim.NewCache(0)
	_, err = cluster.Run(cfg)
	wantPathError(t, s.RunError(err), "cluster.moves[1].from")
}

// clusterFailureBase extends clusterBase with a legal failure schedule:
// an outage window after the move's flight and a crash of the move's
// target well after dispatch.
func clusterFailureBase() *Spec {
	s := clusterBase()
	s.Cluster.Failures = []FailureSpec{
		{AtS: 30, Kind: "flight-abort", VM: "v1"},
		{AtS: 600, Kind: "switch-outage", Switch: "Cisco Catalyst 3750"},
		{AtS: 700, Kind: "switch-restore", Switch: "Cisco Catalyst 3750"},
		{AtS: 900, Kind: "host-crash", Host: "b"},
	}
	s.Cluster.EvacuationDeadlineS = 600
	return s
}

func TestClusterFailureValidationPaths(t *testing.T) {
	if _, err := clusterFailureBase().Compile(); err != nil {
		t.Fatalf("valid failure schedule rejected: %v", err)
	}
	cases := []struct {
		name     string
		mutate   func(*Spec)
		wantPath string
	}{
		{"negative at", func(s *Spec) { s.Cluster.Failures[0].AtS = -1 }, "cluster.failures[0].at_s"},
		{"unknown kind", func(s *Spec) { s.Cluster.Failures[0].Kind = "meteor" }, "cluster.failures[0].kind"},
		{"crash without host", func(s *Spec) { s.Cluster.Failures[3].Host = "" }, "cluster.failures[3].host"},
		{"crash unknown host", func(s *Spec) { s.Cluster.Failures[3].Host = "ghost" }, "cluster.failures[3].host"},
		{"crash targets vm too", func(s *Spec) { s.Cluster.Failures[3].VM = "v1" }, "cluster.failures[3]"},
		{"abort without vm", func(s *Spec) { s.Cluster.Failures[0].VM = "" }, "cluster.failures[0].vm"},
		{"abort unknown vm", func(s *Spec) { s.Cluster.Failures[0].VM = "ghost" }, "cluster.failures[0].vm"},
		{"abort targets host too", func(s *Spec) { s.Cluster.Failures[0].Host = "a" }, "cluster.failures[0]"},
		{"outage without switch", func(s *Spec) { s.Cluster.Failures[1].Switch = "" }, "cluster.failures[1].switch"},
		{"outage targets host too", func(s *Spec) { s.Cluster.Failures[1].Host = "a" }, "cluster.failures[1]"},
		{"negative deadline", func(s *Spec) { s.Cluster.EvacuationDeadlineS = -1 }, "cluster.evacuation_deadline_s"},
		{"at overflows a duration", func(s *Spec) { s.Cluster.Failures[3].AtS = 1e11 }, "cluster.failures[3].at_s"},
		{"deadline overflows a duration", func(s *Spec) { s.Cluster.EvacuationDeadlineS = 1e11 }, "cluster.evacuation_deadline_s"},
		{"deadline without failures", func(s *Spec) {
			s.Cluster.Failures = nil
		}, "cluster.evacuation_deadline_s"},
		// What the engine sees only by replaying the schedule.
		{"unknown switch domain", func(s *Spec) {
			s.Cluster.Failures[1].Switch = "HP 1810-8G"
		}, "cluster.failures[1].switch"},
		{"restore without outage", func(s *Spec) {
			s.Cluster.Failures = s.Cluster.Failures[2:]
		}, "cluster.failures[0].switch"},
		{"move into crashed host", func(s *Spec) { s.Cluster.Failures[3].AtS = 10 }, "cluster.moves[0].to"},
		{"move inside outage window", func(s *Spec) {
			s.Cluster.Failures[1].AtS = 50
			s.Cluster.Moves[0].AtS = 55
		}, "cluster.moves[0].at_s"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := clusterFailureBase()
			tc.mutate(s)
			wantSpecError(t, s, tc.wantPath)
		})
	}
}

func TestClusterFailureCompile(t *testing.T) {
	c, err := clusterFailureBase().Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.Cluster.Config
	if len(cfg.Failures) != 4 {
		t.Fatalf("failures = %+v, want 4 lowered events", cfg.Failures)
	}
	f := cfg.Failures[0]
	if f.At != 30*time.Second || f.Kind != cluster.FailFlightAbort || f.VM != "v1" {
		t.Errorf("failure 0 lowered to %+v", f)
	}
	if cfg.Failures[3].Kind != cluster.FailHostCrash || cfg.Failures[3].Host != "b" {
		t.Errorf("failure 3 lowered to %+v", cfg.Failures[3])
	}
	if cfg.EvacuationDeadline != 600*time.Second {
		t.Errorf("evacuation deadline = %v, want 10m", cfg.EvacuationDeadline)
	}
}

// TestChaosScenariosDeterministic pins the chaos family's bit-identical
// determinism across run-cache instances and worker counts: the same
// spec must yield byte-for-byte the same report whether kernels run
// serially, on eight workers, or with no shared cache at all.
func TestChaosScenariosDeterministic(t *testing.T) {
	specs, err := LoadDir(libraryDir)
	if err != nil {
		t.Fatal(err)
	}
	chaos := map[string]bool{
		"chaos-crash-cascade-16":    true,
		"drain-under-crash-256":     true,
		"partitioned-switch-evac-8": true,
	}
	found := 0
	for _, s := range specs {
		if !chaos[s.Name] {
			continue
		}
		found++
		c, err := s.Compile()
		if err != nil {
			t.Fatalf("compiling %s: %v", s.Name, err)
		}
		variants := []*sim.Cache{sim.NewCache(1), sim.NewCache(8), nil}
		var first *cluster.Report
		for vi, cache := range variants {
			cfg := c.Cluster.Config
			cfg.Cache = cache
			rep, err := cluster.Run(cfg)
			if err != nil {
				t.Fatalf("%s variant %d: %v", s.Name, vi, err)
			}
			if first == nil {
				first = rep
				continue
			}
			if !reflect.DeepEqual(first, rep) {
				t.Errorf("%s: variant %d report differs from variant 0", s.Name, vi)
			}
		}
	}
	if found != len(chaos) {
		t.Fatalf("found %d of %d chaos scenarios in the library", found, len(chaos))
	}
}

func TestClusterCompile(t *testing.T) {
	s := clusterBase()
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Cluster == nil || c.Plan != nil || len(c.Runs) != 0 {
		t.Fatalf("cluster spec compiled to runs=%d plan=%v cluster=%v", len(c.Runs), c.Plan, c.Cluster)
	}
	cfg := c.Cluster.Config
	if c.Cluster.Policy != "timeline" {
		t.Errorf("policy label = %q, want timeline", c.Cluster.Policy)
	}
	if cfg.Kind != migration.Live {
		t.Errorf("kind = %v", cfg.Kind)
	}
	if cfg.Seed != s.EffectiveSeed() {
		t.Errorf("seed = %d, want %d", cfg.Seed, s.EffectiveSeed())
	}
	if len(cfg.Hosts) != 2 || cfg.Hosts[0].Machine != "m01" {
		t.Errorf("hosts = %+v", cfg.Hosts)
	}
	if len(cfg.Hosts[0].VMs[0].Phases) != 1 || cfg.Hosts[0].VMs[0].Phases[0].Duration != 3600*time.Second {
		t.Errorf("vm phases = %+v", cfg.Hosts[0].VMs[0].Phases)
	}
	if len(cfg.Moves) != 1 || cfg.Moves[0].At != time.Minute {
		t.Errorf("moves = %+v", cfg.Moves)
	}

	p, err := clusterPolicyBase().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if p.Cluster.Policy != "energy-aware" {
		t.Errorf("policy label = %q", p.Cluster.Policy)
	}
	pc := p.Cluster.Config
	if _, ok := pc.Policy.(consolidation.EnergyAware); !ok {
		t.Errorf("policy = %T, want EnergyAware", pc.Policy)
	}
	if pc.Tick != 600*time.Second || pc.Horizon != 3600*time.Second {
		t.Errorf("tick/horizon = %v/%v", pc.Tick, pc.Horizon)
	}
	if pc.PolicyConfig.Horizon != 86400*time.Second {
		t.Errorf("payback horizon = %v", pc.PolicyConfig.Horizon)
	}
}
