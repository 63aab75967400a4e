package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// fleetSpec builds a minimal valid fleet-template cluster spec.
func fleetSpec() *Spec {
	return &Spec{
		Version: CurrentVersion,
		Name:    "fleet-under-test",
		Kind:    "live",
		Cluster: &ClusterSpec{
			HorizonS: 3600,
			TickS:    900,
			Policy:   PolicyEnergyAware,
			Fleet: []FleetGroupSpec{
				{Name: "web", Count: 6, Machine: "m01", PhaseJitterS: 600,
					VMs: []ClusterVMSpec{{Name: "fe", MemGiB: 4, BusyVCPUs: 4, DirtyRatio: 0.1,
						Phases: []PhaseSpec{{Kind: "diurnal", DurationS: 3600, Level: 0.3, Peak: 1}}}}},
				{Name: "idle", Count: 4, Machine: "m02",
					VMs: []ClusterVMSpec{{Name: "low", MemGiB: 4, BusyVCPUs: 1, DirtyRatio: 0.05}}},
			},
		},
	}
}

func TestFleetExpansion(t *testing.T) {
	s := fleetSpec()
	if _, err := s.Compile(); err != nil {
		t.Fatalf("valid fleet spec rejected: %v", err)
	}
	hosts := s.expandedClusterHosts()
	if len(hosts) != 10 || s.Cluster.hostCount() != 10 {
		t.Fatalf("expanded to %d hosts (hostCount %d), want 10", len(hosts), s.Cluster.hostCount())
	}
	if hosts[0].Name != "web-0000" || hosts[5].Name != "web-0005" || hosts[6].Name != "idle-0000" {
		t.Errorf("replica names drifted: %s, %s, %s", hosts[0].Name, hosts[5].Name, hosts[6].Name)
	}
	if hosts[0].VMs[0].Name != "fe-0000" || hosts[9].VMs[0].Name != "low-0003" {
		t.Errorf("VM names drifted: %s, %s", hosts[0].VMs[0].Name, hosts[9].VMs[0].Name)
	}
	if p := s.Cluster.hostPath(0); p != "cluster.fleet[0].replica[0]" {
		t.Errorf("replica path label = %q", p)
	}
	if p := s.Cluster.hostPath(7); p != "cluster.fleet[1].replica[1]" {
		t.Errorf("second group's replica path label = %q", p)
	}
	// Jittered groups prepend a whole-second steady lead-in below the cap,
	// holding the diurnal timeline's entry intensity.
	jittered := 0
	seenLead := map[float64]bool{}
	for _, h := range hosts[:6] {
		ph := h.VMs[0].Phases
		switch len(ph) {
		case 1: // zero jitter drawn — no lead-in
		case 2:
			lead := ph[0]
			if lead.Kind != "steady" || lead.Name != "lead-in" {
				t.Fatalf("lead-in shape drifted: %+v", lead)
			}
			if lead.DurationS <= 0 || lead.DurationS >= 600 || lead.DurationS != float64(int64(lead.DurationS)) {
				t.Errorf("lead-in duration %v outside (0, 600) whole seconds", lead.DurationS)
			}
			if lead.Level != ph[1].factor(0) {
				t.Errorf("lead-in level %v does not hold the entry factor %v", lead.Level, ph[1].factor(0))
			}
			jittered++
			seenLead[lead.DurationS] = true
		default:
			t.Fatalf("replica %s has %d phases", h.Name, len(ph))
		}
	}
	if jittered < 4 || len(seenLead) < 3 {
		t.Errorf("jitter is not spreading: %d jittered replicas, %d distinct lead-ins", jittered, len(seenLead))
	}
	// Unjittered group: template phases unchanged (none here — no phases).
	if len(hosts[6].VMs[0].Phases) != 0 {
		t.Errorf("unphased template grew phases: %+v", hosts[6].VMs[0].Phases)
	}

	// Deterministic: expansion is a pure function of the spec.
	again := fleetSpec().expandedClusterHosts()
	if !reflect.DeepEqual(hosts, again) {
		t.Error("two expansions of one spec differ")
	}

	// Seed-dependent: a different seed moves the lead-ins but not the
	// names.
	reseeded := fleetSpec()
	reseeded.Seed = 99991
	rh := reseeded.expandedClusterHosts()
	if rh[0].Name != hosts[0].Name {
		t.Error("seed changed replica names")
	}
	moved := false
	for i := range rh[:6] {
		a, b := hosts[i].VMs[0].Phases, rh[i].VMs[0].Phases
		if len(a) != len(b) || (len(a) == 2 && a[0].DurationS != b[0].DurationS) {
			moved = true
		}
	}
	if !moved {
		t.Error("reseeding did not move any lead-in")
	}

	// The expanded spec compiles into a runnable cluster config.
	comp, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Cluster.Config.Hosts) != 10 {
		t.Errorf("compiled config has %d hosts, want 10", len(comp.Cluster.Config.Hosts))
	}
}

// TestFleetMovesAddressReplicas: explicit timed moves can reference
// stamped replica hosts and VMs.
func TestFleetMovesAddressReplicas(t *testing.T) {
	s := fleetSpec()
	s.Cluster.Policy = ""
	s.Cluster.TickS = 0
	s.Cluster.Moves = []TimedMoveSpec{
		{VM: "low-0001", From: "idle-0001", To: "idle-0000", AtS: 5},
	}
	if _, err := s.Compile(); err != nil {
		t.Fatalf("move addressing a replica rejected: %v", err)
	}
	s.Cluster.Moves[0].VM = "low-9999"
	if _, err := s.Compile(); err == nil || !strings.Contains(err.Error(), "unknown VM") {
		t.Fatalf("move to a non-existent replica: err = %v", err)
	}
}

func TestFleetValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"bad group name", func(s *Spec) { s.Cluster.Fleet[0].Name = "Web!" }, "cluster.fleet[0].name"},
		{"dup group name", func(s *Spec) { s.Cluster.Fleet[1].Name = "web" }, "cluster.fleet[1].name"},
		{"zero count", func(s *Spec) { s.Cluster.Fleet[0].Count = 0 }, "cluster.fleet[0].count"},
		{"count over cap", func(s *Spec) { s.Cluster.Fleet[0].Count = MaxFleetReplicas + 1 }, "cluster.fleet[0].count"},
		{"unknown machine", func(s *Spec) { s.Cluster.Fleet[0].Machine = "z9" }, "cluster.fleet[0].machine"},
		{"negative jitter", func(s *Spec) { s.Cluster.Fleet[0].PhaseJitterS = -1 }, "phase_jitter_s"},
		{"sub-second jitter", func(s *Spec) { s.Cluster.Fleet[0].PhaseJitterS = 0.5 }, "phase_jitter_s"},
		{"fractional jitter", func(s *Spec) { s.Cluster.Fleet[0].PhaseJitterS = 600.9 }, "whole number of seconds"},
		{"jitter without phases", func(s *Spec) { s.Cluster.Fleet[1].PhaseJitterS = 60 }, "no template VM has phases"},
		{"jitter overflows a duration", func(s *Spec) { s.Cluster.Fleet[0].PhaseJitterS = 1e11 }, "cluster.fleet[0].phase_jitter_s"},
		{"replica collides with explicit host", func(s *Spec) {
			s.Cluster.Hosts = []ClusterHostSpec{{Name: "web-0002", Machine: "m01",
				VMs: []ClusterVMSpec{{Name: "x", MemGiB: 4, BusyVCPUs: 1}}}}
		}, "duplicate host"},
		{"replica VM collides across groups", func(s *Spec) { s.Cluster.Fleet[1].VMs[0].Name = "fe" }, "already exists"},
		{"bad template VM", func(s *Spec) { s.Cluster.Fleet[0].VMs[0].MemGiB = 0 }, "mem_gib"},
		{"template VM memory overflows", func(s *Spec) { s.Cluster.Fleet[0].VMs[0].MemGiB = 1e10 }, "cluster.fleet[0].replica[0].vms[0].mem_gib"},
		{"template VM memory below a byte", func(s *Spec) { s.Cluster.Fleet[0].VMs[0].MemGiB = 1e-12 }, "cluster.fleet[0].replica[0].vms[0].mem_gib"},
	}
	for _, tc := range cases {
		s := fleetSpec()
		tc.mut(s)
		_, err := s.Compile()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestFleetErrorText pins the full text of replica-level errors, whose
// paths are formatted only for the error returned: the replica index
// counts within its group, after any explicit hosts, and a phase index
// counts a jittered replica's lead-in.
func TestFleetErrorText(t *testing.T) {
	at := func(v float64) *float64 { return &v }
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"VM field in the second group's first replica", func(s *Spec) {
			s.Cluster.Fleet[1].VMs[0].DirtyRatio = 2
		}, `scenario "fleet-under-test": cluster.fleet[1].replica[0].vms[0].dirty_ratio: 2 outside [0, 1]`},
		{"replica after explicit hosts", func(s *Spec) {
			s.Cluster.Hosts = []ClusterHostSpec{{Name: "edge", Machine: "m01"}, {Name: "idle-0003", Machine: "m02"}}
		}, `scenario "fleet-under-test": cluster.fleet[1].replica[3].name: duplicate host "idle-0003"`},
		{"VM field in a replica after explicit hosts", func(s *Spec) {
			s.Cluster.Hosts = []ClusterHostSpec{{Name: "edge", Machine: "m01"}}
			s.Cluster.Fleet[0].VMs[0].BusyVCPUs = -1
		}, `scenario "fleet-under-test": cluster.fleet[0].replica[0].vms[0].busy_vcpus: must be non-negative, got -1`},
		{"phase field in an unjittered replica VM", func(s *Spec) {
			s.Cluster.Fleet[1].VMs[0].Phases = []PhaseSpec{{Kind: "steady", DurationS: 60}, {Kind: "ramp", DurationS: 0}}
		}, `scenario "fleet-under-test": cluster.fleet[1].replica[0].vms[0].phases[1].duration_s: must be positive, got 0`},
		{"phase field behind a lead-in", func(s *Spec) {
			s.Cluster.Fleet[0].VMs[0].Phases[0].At = at(0.5)
		}, `scenario "fleet-under-test": cluster.fleet[0].replica[0].vms[0].phases[1].at: meaningless for a cluster VM phase (the timeline plays out continuously)`},
	}
	for _, tc := range cases {
		s := fleetSpec()
		tc.mut(s)
		if _, err := s.Compile(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate error\n  got  %v\n  want %s", tc.name, err, tc.want)
		}
		if _, err := s.Compile(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Compile error\n  got  %v\n  want %s", tc.name, err, tc.want)
		}
	}
}

// TestFleetCompileAllocCeiling holds Compile of every library fleet spec
// under a per-host allocation ceiling. The fleet expands once and no
// field path is formatted while nothing is wrong, so what a host costs
// is its name, its guests' names and lead-in phase lists, and the
// engine's layout; formatting each host's path again would break it.
// The specs are decoded, not parsed, so each Compile lowers the spec
// rather than return the compile Parse keeps.
func TestFleetCompileAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the ceiling")
	}
	const ceiling = 1.0 // allocations per expanded host
	files, err := filepath.Glob(filepath.Join(libraryDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	fleets := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Decode(file, data)
		if err != nil {
			t.Fatal(err)
		}
		if s.Cluster == nil || len(s.Cluster.Fleet) == 0 {
			continue
		}
		fleets++
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := s.Compile(); err != nil {
				t.Fatal(err)
			}
		})
		hosts := s.Cluster.hostCount()
		perHost := allocs / float64(hosts)
		t.Logf("%s: %d hosts, Compile allocates %.0f objects, %.2f per host", s.Name, hosts, allocs, perHost)
		if perHost > ceiling {
			t.Errorf("%s: Compile allocates %.2f objects per host, ceiling is %v", s.Name, perHost, ceiling)
		}
	}
	if fleets < 3 {
		t.Fatalf("library has %d fleet specs, want at least 3", fleets)
	}
}

// TestFleetWarmRunAllocBytes holds a warm run of the 100k-host
// drain-100k-rolling day under a byte ceiling: the spec compiles once,
// a first run fills one memory cache, builds the layout's t=0 view and
// run facts and hands its own view back, and the second run, which runs
// no kernel and plans on that view rewound, is measured. What it
// allocates is the runtime state of the few hundred hosts its moves
// touch, the planning rounds and the report, whose freed-host list
// names ~75k hosts. So a run that copies the t=0 view (10.9 MB in all),
// builds every host's and guest's runtime state up front (22.0 MB in
// all), lays out and sorts its own t=0 view (26.3 MB in all), builds a
// list with one entry per empty host on every planning round (about 75k
// names a round), keeps dense per-host overlay arrays in its planning
// workspace (41.3 MB in all), or snapshots every host and its guests
// into the report (37.1 MB in all), breaks the ceiling.
func TestFleetWarmRunAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the ceiling")
	}
	const ceiling = 4 << 20 // bytes allocated by the warm run (2.9 MB measured)
	s, err := Load(filepath.Join(libraryDir, "drain-100k-rolling.json"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := c.Cluster.Config
	cfg.Cache = sim.NewCache(0)
	cold, err := cluster.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	warm, err := cluster.Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Timeline) == 0 || len(warm.Timeline) != len(cold.Timeline) {
		t.Fatalf("fixture drift: the warm run made %d moves, the cold run %d", len(warm.Timeline), len(cold.Timeline))
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm %s run: %d moves, %d planning rounds, %.1f MB allocated", s.Name, len(warm.Timeline), warm.ReplanRounds, float64(bytes)/1e6)
	if bytes > ceiling {
		t.Errorf("warm %s run allocates %d bytes, ceiling is %d", s.Name, bytes, ceiling)
	}
}

// TestReplicaNames holds the replica name stamp to the "%s-%04d" format
// the committed fleet goldens and cache keys were built with, for every
// index a fleet group may have.
func TestReplicaNames(t *testing.T) {
	names := replicaNames("spare", MaxFleetReplicas)
	if len(names) != MaxFleetReplicas {
		t.Fatalf("stamped %d names, want %d", len(names), MaxFleetReplicas)
	}
	for i, got := range names {
		if want := fmt.Sprintf("spare-%04d", i); got != want {
			t.Fatalf("name %d = %q, want %q", i, got, want)
		}
	}
}

// TestFleetJitterStability pins the jitter derivation: committed fleet
// scenarios bake these offsets into their golden timelines, so the
// function must never drift.
func TestFleetJitterStability(t *testing.T) {
	// Distribution sanity on a committed-scenario-sized draw.
	seen := map[int64]bool{}
	for i := 0; i < 96; i++ {
		j := fleetJitter(12345, "web", i, 14400)
		if j < 0 || j >= 14400 {
			t.Fatalf("jitter %d outside [0, 14400)", j)
		}
		seen[j] = true
	}
	if len(seen) < 80 {
		t.Errorf("only %d distinct jitters across 96 replicas", len(seen))
	}
	// Anchor a few values: a change here silently rewrites every
	// committed fleet scenario's timeline.
	anchors := []struct {
		group string
		i     int
		want  int64
	}{
		{"web", 0, 10516},
		{"web", 1, 4451},
		{"web", 95, 4527},
		{"db", 0, 2275},
		{"db", 95, 3163},
	}
	for _, a := range anchors {
		if got := fleetJitter(12345, a.group, a.i, 14400); got != a.want {
			t.Errorf("fleetJitter(12345, %q, %d, 14400) = %d, want %d", a.group, a.i, got, a.want)
		}
	}
}
