package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/migration"
	"repro/internal/vm"
)

// minimal returns the smallest valid migration spec.
func minimal() *Spec {
	return &Spec{
		Version:   CurrentVersion,
		Name:      "test-minimal",
		Migrating: Guest{Workload: Workload{Profile: ProfileMatrixMult}},
	}
}

// write drops a scenario JSON file into dir and returns its path.
func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// mustJSON serialises a spec for the file-based tests.
func mustJSON(t *testing.T, s *Spec) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// wantPathError asserts err is a *Error whose Path contains want.
func wantPathError(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected an error with path %q, got nil", want)
	}
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("expected *scenario.Error with path %q, got %T: %v", want, err, err)
	}
	if !strings.Contains(se.Path, want) {
		t.Fatalf("error path %q does not contain %q (full error: %v)", se.Path, want, se)
	}
}

// wantSpecError checks that s fails Validate with a pathed error under
// want, and that Compile, whose final engine check is cluster.Prepare,
// fails with the identical error.
func wantSpecError(t *testing.T, s *Spec, want string) {
	t.Helper()
	err := s.Validate()
	wantPathError(t, err, want)
	if _, cerr := s.Compile(); cerr == nil || cerr.Error() != err.Error() {
		t.Fatalf("Compile error %v differs from Validate's %v", cerr, err)
	}
}

func TestMinimalSpecValidatesAndCompiles(t *testing.T) {
	s := minimal()
	if err := s.Validate(); err != nil {
		t.Fatalf("minimal spec rejected: %v", err)
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Runs) != 1 || c.Plan != nil {
		t.Fatalf("minimal spec compiled to %d runs, plan=%v", len(c.Runs), c.Plan)
	}
	r := c.Runs[0]
	if r.Scenario.Name != "scen/test-minimal" {
		t.Errorf("scenario name = %q", r.Scenario.Name)
	}
	if r.Scenario.MigratingType != vm.TypeMigratingCPU {
		t.Errorf("inferred type = %q, want migrating-cpu", r.Scenario.MigratingType)
	}
	if r.MinRuns != DefaultMinRuns || r.VarianceTol != DefaultVarianceTol {
		t.Errorf("default repeat = (%d, %v)", r.MinRuns, r.VarianceTol)
	}
	if err := r.Scenario.Validate(); err != nil {
		t.Errorf("compiled scenario rejected by sim: %v", err)
	}
}

func TestGuestTypeInference(t *testing.T) {
	s := minimal()
	s.Migrating.Workload = Workload{Profile: ProfilePagedirtier, DirtyTarget: 0.9}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Runs[0].Scenario.MigratingType; got != vm.TypeMigratingMem {
		t.Errorf("dirtying workload inferred type %q, want migrating-mem", got)
	}
}

func TestEffectiveSeedStableAndPositive(t *testing.T) {
	a := &Spec{Name: "alpha"}
	if a.EffectiveSeed() != a.EffectiveSeed() {
		t.Fatal("derived seed is not stable")
	}
	if a.EffectiveSeed() <= 0 {
		t.Fatalf("derived seed %d not positive", a.EffectiveSeed())
	}
	b := &Spec{Name: "beta"}
	if a.EffectiveSeed() == b.EffectiveSeed() {
		t.Fatal("distinct names derived the same seed")
	}
	pinned := &Spec{Name: "alpha", Seed: 42}
	if pinned.EffectiveSeed() != 42 {
		t.Fatalf("explicit seed not honoured: %d", pinned.EffectiveSeed())
	}
}

// TestValidationFailurePaths is the satellite-task matrix: every way a
// spec can be malformed yields a distinct, pathed error.
func TestValidationFailurePaths(t *testing.T) {
	at := func(v float64) *float64 { return &v }
	cases := []struct {
		name     string
		mutate   func(*Spec)
		wantPath string
	}{
		{"bad version", func(s *Spec) { s.Version = 99 }, "version"},
		{"empty name", func(s *Spec) { s.Name = "" }, "name"},
		{"uppercase name", func(s *Spec) { s.Name = "Bad Name" }, "name"},
		{"unknown pair", func(s *Spec) { s.Pair = "warehouse-42" }, "pair"},
		{"unknown machine in custom pair", func(s *Spec) { s.Pair = "m01/warehouse" }, "pair"},
		{"cross-switch custom pair", func(s *Spec) { s.Pair = "m01/o1" }, "pair"},
		{"pre window below stabilisation", func(s *Spec) {
			s.Meter = &Meter{PeriodMS: 1000}
			s.Timing = &Timing{PreS: 16}
		}, "timing.pre_s"},
		{"default pre window with slow meter", func(s *Spec) {
			s.Meter = &Meter{PeriodMS: 1000} // 20 samples need 20 s > default 11 s
		}, "timing.pre_s"},
		{"unknown kind", func(s *Spec) { s.Kind = "teleport" }, "kind"},
		{"negative seed", func(s *Spec) { s.Seed = -5 }, "seed"},
		{"unknown workload", func(s *Spec) { s.Migrating.Workload.Profile = "cryptomine" }, "migrating.workload.profile"},
		{"dirty target out of range", func(s *Spec) {
			s.Migrating.Workload = Workload{Profile: ProfilePagedirtier, DirtyTarget: 1.5}
		}, "migrating.workload.dirty_target"},
		{"dirty target on non-dirtying profile", func(s *Spec) {
			s.Migrating.Workload = Workload{Profile: ProfileMatrixMult, DirtyTarget: 0.5}
		}, "migrating.workload.dirty_target"},
		{"unknown guest type", func(s *Spec) { s.Migrating.Type = "mainframe" }, "migrating.type"},
		{"negative source load", func(s *Spec) { s.SourceLoadVMs = -1 }, "source_load_vms"},
		{"negative target load", func(s *Spec) { s.TargetLoadVMs = -2 }, "target_load_vms"},
		// dom-0 (0.5 GiB), the 4 GiB guest and 56 load VMs of 0.5 GiB
		// need 32.5 GiB of m01's and m02's 32 GiB; 55 fit.
		{"source load VMs overfill the host", func(s *Spec) { s.SourceLoadVMs = 56 }, "source_load_vms"},
		{"target load VMs overfill the host", func(s *Spec) { s.TargetLoadVMs = 56 }, "target_load_vms"},
		{"burst phase scales load VMs past the host", func(s *Spec) {
			s.SourceLoadVMs = 40 // 1.5 × 40 = 60 at the burst's peak
			s.Phases = []PhaseSpec{
				{Kind: "steady", DurationS: 60},
				{Kind: "burst", DurationS: 60, Level: 1, Peak: 1.5},
			}
		}, "phases[1]"},
		{"bad load workload", func(s *Spec) { s.LoadWorkload = &Workload{Profile: "nope"} }, "load_workload.profile"},
		{"zero-length phase", func(s *Spec) {
			s.Phases = []PhaseSpec{{Kind: "steady", DurationS: 0}}
		}, "phases[0].duration_s"},
		{"unknown phase kind", func(s *Spec) {
			s.Phases = []PhaseSpec{{Kind: "spiky", DurationS: 10}}
		}, "phases[0].kind"},
		{"phase at out of range", func(s *Spec) {
			s.Phases = []PhaseSpec{{Kind: "steady", DurationS: 10, At: at(1.5)}}
		}, "phases[0].at"},
		{"phase level above bound", func(s *Spec) {
			s.Phases = []PhaseSpec{{Kind: "steady", DurationS: 60, Level: 400_000}}
		}, "phases[0].level"},
		{"negative phase level", func(s *Spec) {
			s.Phases = []PhaseSpec{{Kind: "steady", DurationS: 60, Level: -1}}
		}, "phases[0].level"},
		{"phase peak above bound", func(s *Spec) {
			s.Phases = []PhaseSpec{
				{Kind: "steady", DurationS: 10},
				{Kind: "burst", DurationS: 10, Level: 1, Peak: 101},
			}
		}, "phases[1].peak"},
		{"negative phase peak", func(s *Spec) {
			s.Phases = []PhaseSpec{{Kind: "ramp", DurationS: 10, Peak: -0.5}}
		}, "phases[0].peak"},
		{"phase duration overflows a duration", func(s *Spec) {
			s.Phases = []PhaseSpec{{Kind: "steady", DurationS: 1e11}}
		}, "phases[0].duration_s"},
		{"pre window overflows a duration", func(s *Spec) { s.Timing = &Timing{PreS: 1e11} }, "timing.pre_s"},
		{"post window overflows a duration", func(s *Spec) { s.Timing = &Timing{PostS: 1e11} }, "timing.post_s"},
		{"initiation overflows a duration", func(s *Spec) { s.Migration = &MigrationTuning{InitiationS: 1e11} }, "migration.initiation_s"},
		{"activation overflows a duration", func(s *Spec) { s.Migration = &MigrationTuning{ActivationS: 1e11} }, "migration.activation_s"},
		{"second phase bad", func(s *Spec) {
			s.Phases = []PhaseSpec{
				{Kind: "steady", DurationS: 10},
				{Kind: "burst", DurationS: -3},
			}
		}, "phases[1].duration_s"},
		{"negative pre window", func(s *Spec) { s.Timing = &Timing{PreS: -1} }, "timing.pre_s"},
		{"negative post window", func(s *Spec) { s.Timing = &Timing{PostS: -1} }, "timing.post_s"},
		{"negative initiation", func(s *Spec) { s.Migration = &MigrationTuning{InitiationS: -1} }, "migration.initiation_s"},
		{"negative data factor", func(s *Spec) { s.Migration = &MigrationTuning{MaxDataFactor: -2} }, "migration.max_data_factor"},
		{"bad meter period", func(s *Spec) { s.Meter = &Meter{PeriodMS: 250} }, "meter"},
		{"meter period overflows a duration", func(s *Spec) { s.Meter = &Meter{PeriodMS: 1 << 58} }, "meter.period_ms"},
		{"one repeat run", func(s *Spec) { s.Repeat = &Repeat{MinRuns: 1} }, "repeat.min_runs"},
		{"negative variance tol", func(s *Spec) { s.Repeat = &Repeat{VarianceTol: -0.1} }, "repeat.variance_tol"},
		{"duplicate phase names", func(s *Spec) {
			s.Phases = []PhaseSpec{
				{Name: "peak", Kind: "steady", DurationS: 10},
				{Name: "peak", Kind: "burst", DurationS: 10},
			}
		}, "phases[1].name"},
		{"phase name collides with generated label", func(s *Spec) {
			s.Phases = []PhaseSpec{
				{Name: "burst1", Kind: "steady", DurationS: 10},
				{Kind: "burst", DurationS: 10},
			}
		}, "phases[1].name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := minimal()
			tc.mutate(s)
			wantSpecError(t, s, tc.wantPath)
		})
	}
}

// TestSecondsOverflowText pins the message of a seconds or
// milliseconds field that no time.Duration can hold, and of a mem_gib
// field that no byte count can hold or that lowers to less than one
// byte: it names the field, where a wrapped or truncated value used to
// surface as a negative window, a silently replaced horizon, the default
// meter period or a VM with no memory.
func TestSecondsOverflowText(t *testing.T) {
	const limit = "exceeds the longest representable duration (2562047h47m16.854775807s)"
	pre := minimal()
	pre.Timing = &Timing{PreS: 1e11}
	payback := clusterPolicyBase()
	payback.Cluster.PaybackS = 1e11
	period := minimal()
	period.Meter = &Meter{PeriodMS: 1 << 58}
	mem := clusterPolicyBase()
	mem.Cluster.Hosts[0].VMs[0].MemGiB = 1e10
	subByte := clusterPolicyBase()
	subByte.Cluster.Hosts[0].VMs[0].MemGiB = 1e-12
	for _, tc := range []struct {
		s    *Spec
		want string
	}{
		{pre, `scenario "test-minimal": timing.pre_s: 1e+11 s ` + limit},
		{payback, `scenario "cl-test": cluster.payback_s: 1e+11 s ` + limit},
		{period, `scenario "test-minimal": meter.period_ms: 288230376151711744 ms ` + limit},
		{mem, `scenario "cl-test": cluster.hosts[0].vms[0].mem_gib: 1e+10 GiB exceeds the largest representable size (8589934591 GiB)`},
		{subByte, `scenario "cl-test": cluster.hosts[0].vms[0].mem_gib: must be at least one byte, got 1e-12 GiB`},
	} {
		if err := tc.s.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("error\n  got  %v\n  want %s", err, tc.want)
		}
	}
}

func TestDatacenterValidationPaths(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Version: CurrentVersion,
			Name:    "dc-test",
			Datacenter: &Datacenter{
				Hosts: []HostSpec{
					{Name: "a", Threads: 32, MemGiB: 32, IdlePowerW: 440, VMs: []VMSpec{
						{Name: "v1", MemGiB: 4, BusyVCPUs: 2, DirtyRatio: 0.1},
					}},
					{Name: "b", Threads: 32, MemGiB: 32, IdlePowerW: 440},
				},
				Moves: []MoveSpec{{VM: "v1", From: "a", To: "b"}},
			},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid datacenter spec rejected: %v", err)
	}

	cases := []struct {
		name     string
		mutate   func(*Spec)
		wantPath string
	}{
		{"migrating set", func(s *Spec) { s.Migrating.Workload.Profile = ProfileIdle }, "migrating"},
		{"phases set", func(s *Spec) { s.Phases = []PhaseSpec{{Kind: "steady", DurationS: 1}} }, "phases"},
		{"post-copy plan", func(s *Spec) { s.Kind = "post-copy" }, "kind"},
		{"one host", func(s *Spec) { s.Datacenter.Hosts = s.Datacenter.Hosts[:1] }, "datacenter.hosts"},
		{"invalid host", func(s *Spec) { s.Datacenter.Hosts[1].Threads = 0 }, "datacenter.hosts[1]"},
		{"host memory overflows", func(s *Spec) { s.Datacenter.Hosts[0].MemGiB = 1e10 }, "datacenter.hosts[0].mem_gib"},
		{"vm memory overflows", func(s *Spec) { s.Datacenter.Hosts[0].VMs[0].MemGiB = 1e10 }, "datacenter.hosts[0].vms[0].mem_gib"},
		{"host without memory", func(s *Spec) { s.Datacenter.Hosts[0].MemGiB = 0 }, "datacenter.hosts[0].mem_gib"},
		{"host memory negative", func(s *Spec) { s.Datacenter.Hosts[0].MemGiB = -1 }, "datacenter.hosts[0].mem_gib"},
		{"host memory below a byte", func(s *Spec) { s.Datacenter.Hosts[0].MemGiB = 1e-12 }, "datacenter.hosts[0].mem_gib"},
		{"vm without memory", func(s *Spec) { s.Datacenter.Hosts[0].VMs[0].MemGiB = 0 }, "datacenter.hosts[0].vms[0].mem_gib"},
		{"vm memory negative", func(s *Spec) { s.Datacenter.Hosts[0].VMs[0].MemGiB = -1 }, "datacenter.hosts[0].vms[0].mem_gib"},
		{"vm memory below a byte", func(s *Spec) { s.Datacenter.Hosts[0].VMs[0].MemGiB = 1e-12 }, "datacenter.hosts[0].vms[0].mem_gib"},
		{"duplicate host", func(s *Spec) { s.Datacenter.Hosts[1].Name = "a" }, "datacenter.hosts[1].name"},
		{"duplicate vm", func(s *Spec) {
			s.Datacenter.Hosts[1].VMs = []VMSpec{{Name: "v1", MemGiB: 4}}
		}, "datacenter.hosts[1].vms"},
		{"unknown move vm", func(s *Spec) { s.Datacenter.Moves[0].VM = "ghost" }, "datacenter.moves[0].vm"},
		{"unknown from host", func(s *Spec) { s.Datacenter.Moves[0].From = "ghost" }, "datacenter.moves[0].from"},
		{"unknown to host", func(s *Spec) { s.Datacenter.Moves[0].To = "ghost" }, "datacenter.moves[0].to"},
		{"self move", func(s *Spec) { s.Datacenter.Moves[0].To = "a" }, "datacenter.moves[0].to"},
		{"stale placement", func(s *Spec) {
			s.Datacenter.Moves = append(s.Datacenter.Moves, MoveSpec{VM: "v1", From: "a", To: "b"})
		}, "datacenter.moves[1].from"},
		{"repeat set", func(s *Spec) { s.Repeat = &Repeat{MinRuns: 3} }, "repeat"},
		{"meter set", func(s *Spec) { s.Meter = &Meter{PeriodMS: 1000} }, "meter"},
		{"load vms set", func(s *Spec) { s.SourceLoadVMs = 2 }, "source_load_vms"},
		{"load workload set", func(s *Spec) { s.LoadWorkload = &Workload{Profile: ProfileMatrixMult} }, "load_workload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(s)
			wantSpecError(t, s, tc.wantPath)
		})
	}
}

func TestDatacenterCompile(t *testing.T) {
	s := &Spec{
		Version: CurrentVersion,
		Name:    "dc-compile",
		Kind:    "non-live",
		Datacenter: &Datacenter{
			Hosts: []HostSpec{
				{Name: "a", Threads: 32, MemGiB: 32, IdlePowerW: 440, VMs: []VMSpec{
					{Name: "v1", MemGiB: 4, BusyVCPUs: 2, DirtyRatio: 0.3},
				}},
				{Name: "b", Threads: 32, MemGiB: 32, IdlePowerW: 440},
			},
			Moves: []MoveSpec{{VM: "v1", From: "a", To: "b"}},
		},
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Plan == nil || len(c.Runs) != 0 {
		t.Fatalf("datacenter spec compiled to runs=%d plan=%v", len(c.Runs), c.Plan)
	}
	if c.Plan.Executor.Kind != migration.NonLive {
		t.Errorf("executor kind = %v", c.Plan.Executor.Kind)
	}
	if len(c.Plan.Plan.Moves) != 1 || c.Plan.Plan.Moves[0].VM != "v1" {
		t.Errorf("plan moves = %+v", c.Plan.Plan.Moves)
	}
	if c.Plan.Executor.Seed != s.EffectiveSeed() {
		t.Errorf("executor seed = %d, want %d", c.Plan.Executor.Seed, s.EffectiveSeed())
	}
}

func TestDatacenterImplicitFFDPlan(t *testing.T) {
	s := &Spec{
		Version: CurrentVersion,
		Name:    "dc-ffd",
		Datacenter: &Datacenter{
			Hosts: []HostSpec{
				{Name: "a", Threads: 32, MemGiB: 32, IdlePowerW: 440, VMs: []VMSpec{
					{Name: "v1", MemGiB: 4, BusyVCPUs: 2},
				}},
				{Name: "b", Threads: 32, MemGiB: 32, IdlePowerW: 440, VMs: []VMSpec{
					{Name: "v2", MemGiB: 4, BusyVCPUs: 4},
				}},
			},
		},
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Plan.Plan == nil {
		t.Fatal("no implicit plan")
	}
	if c.Plan.Policy != "first-fit-decreasing" {
		t.Errorf("policy = %q", c.Plan.Policy)
	}
}

func TestPhaseCompilation(t *testing.T) {
	s := minimal()
	s.Name = "phased"
	s.SourceLoadVMs = 4
	s.Migrating.Workload = Workload{Profile: ProfilePagedirtier, DirtyTarget: 0.5}
	s.Phases = []PhaseSpec{
		{Name: "night", Kind: "steady", DurationS: 3600, Level: 0.25},
		{Kind: "burst", DurationS: 600, Level: 1, Peak: 2},
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Runs) != 2 {
		t.Fatalf("compiled %d runs, want 2", len(c.Runs))
	}
	night, burst := c.Runs[0], c.Runs[1]
	if night.Label != "phased/night" || burst.Label != "phased/burst1" {
		t.Errorf("labels = %q, %q", night.Label, burst.Label)
	}
	// Night runs at quarter intensity: quarter dirty rate, one load VM.
	base, _ := s.baseScenario(migration.Live)
	if night.Scenario.MigratingProfile.DirtyPagesPerSecond != base.MigratingProfile.DirtyPagesPerSecond*0.25 {
		t.Errorf("night dirty rate not scaled: %v", night.Scenario.MigratingProfile.DirtyPagesPerSecond)
	}
	if night.Scenario.SourceLoadVMs != 1 {
		t.Errorf("night load VMs = %d, want 1", night.Scenario.SourceLoadVMs)
	}
	// Burst peaks at 2x: double dirty rate, double load VMs.
	if burst.Scenario.MigratingProfile.DirtyPagesPerSecond != base.MigratingProfile.DirtyPagesPerSecond*2 {
		t.Errorf("burst dirty rate not scaled: %v", burst.Scenario.MigratingProfile.DirtyPagesPerSecond)
	}
	if burst.Scenario.SourceLoadVMs != 8 {
		t.Errorf("burst load VMs = %d, want 8", burst.Scenario.SourceLoadVMs)
	}
	// Distinct seeds and names per phase (distinct cache identities).
	if night.Scenario.Seed == burst.Scenario.Seed {
		t.Error("phases share a seed")
	}
	if night.Scenario.Name == burst.Scenario.Name {
		t.Error("phases share a scenario name")
	}
	for _, r := range c.Runs {
		if err := r.Scenario.Validate(); err != nil {
			t.Errorf("compiled phase scenario %q invalid: %v", r.Label, err)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := minimal()
	s.Description = "round-trip probe"
	s.Pair = "o1-o2"
	s.Kind = "post-copy"
	s.SourceLoadVMs = 3
	s.Phases = []PhaseSpec{{Kind: "diurnal", DurationS: 86400, Level: 0.2, Peak: 1}}
	s.Timing = &Timing{PreS: 22, PostS: 8}
	s.Migration = &MigrationTuning{MaxRounds: 10, MaxDataFactor: 2}
	s.Meter = &Meter{PeriodMS: 1000, Accuracy: 0.01}
	s.Repeat = &Repeat{MinRuns: 3, VarianceTol: 0.2}

	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	ca, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := back.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(ca.Runs) != len(cb.Runs) {
		t.Fatalf("round trip changed run count: %d vs %d", len(ca.Runs), len(cb.Runs))
	}
	for i := range ca.Runs {
		if ca.Runs[i].Scenario != cb.Runs[i].Scenario {
			t.Errorf("round trip changed compiled scenario %d:\n%+v\nvs\n%+v", i, ca.Runs[i].Scenario, cb.Runs[i].Scenario)
		}
	}
}

func TestLoadRejectsMalformedJSON(t *testing.T) {
	dir := t.TempDir()
	path := write(t, dir, "broken.json", `{"version": 1, "name": "broken",`)
	_, err := Load(path)
	wantPathError(t, err, "(json)")
	if !strings.Contains(err.Error(), "byte") {
		t.Errorf("syntax error lacks an offset: %v", err)
	}
}

// TestLoadVMsThatFitCompile pins the edge of the load-VM rule: 55 load
// VMs beside the guest fill m01 and m02 exactly, on either side, and so
// does a phase that scales 40 to 55.
func TestLoadVMsThatFitCompile(t *testing.T) {
	for _, mut := range []func(*Spec){
		func(s *Spec) { s.SourceLoadVMs = 55 },
		func(s *Spec) { s.TargetLoadVMs = 55 },
		func(s *Spec) {
			s.SourceLoadVMs = 40
			s.Phases = []PhaseSpec{{Kind: "steady", DurationS: 60, Level: 1.375}}
		},
	} {
		s := minimal()
		mut(s)
		if _, err := s.Compile(); err != nil {
			t.Errorf("%+v: %v", s, err)
		}
	}
}

// TestDecodeKeyPaths is the table of keys the strict decoder refuses
// with the key's path: a key repeated within one object, at the top
// level or nested, and a key that names a field only when case is
// ignored. encoding/json alone accepts each of these, and the last
// value wins. testdata/fuzz/FuzzSpecDecode holds the two committed
// inputs among them.
func TestDecodeKeyPaths(t *testing.T) {
	cases := []struct {
		name, body, wantPath string
	}{
		{"case-folded key after the exact one",
			`{"version":1,"name":"k","migrating":{"workload":{"profile":"matrixmult"}},"source_load_vms":2,"SOURCE_LOAD_VMS":3}`,
			"SOURCE_LOAD_VMS"},
		{"case-folded key alone", `{"version":1,"Pair":"m01-m02","name":"k"}`, "Pair"},
		{"repeated key", `{"version":1,"name":"k","source_load_vms":2,"source_load_vms":3}`, "source_load_vms"},
		{"case-folded key before a repeated key",
			`{"version":1,"name":"k","Pair":"m01-m02","source_load_vms":2,"source_load_vms":3}`, "Pair"},
		{"repeated key in an array element",
			`{"version":1,"name":"k","cluster":{"hosts":[{"name":"a","machine":"m01"},{"name":"b","machine":"m01","name":"c"}]}}`,
			"cluster.hosts[1].name"},
		{"case-folded key in a pointer field", `{"version":1,"name":"k","timing":{"Pre_S":12}}`, "timing.Pre_S"},
		{"escaped spelling of a key already given",
			`{"version":1,"name":"k","source_load_vms":2, "source_load_vm\u0073" : 3}`, "source_load_vms"},
		{"repeated key in a nested array element, with white space",
			"{ \"version\" : 1 ,\n \"name\" : \"k\" , \"phases\" : [ { \"kind\" : \"steady\" } ,\n\t{ \"kind\" : \"burst\" , \"at\" : null , \"kind\" : \"ramp\" } ] }",
			"phases[1].kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode("keys", []byte(tc.body))
			wantPathError(t, err, tc.wantPath)
			var se *Error
			if errors.As(err, &se); se.Path != tc.wantPath {
				t.Errorf("path %q, want exactly %q", se.Path, tc.wantPath)
			}
			var loose Spec
			if err := json.Unmarshal([]byte(tc.body), &loose); err != nil {
				t.Errorf("encoding/json refuses the body itself: %v", err)
			}
		})
	}
	// Equal keys in distinct objects are not repeats, and values, escaped
	// strings and nested arrays among them, are not keys.
	if _, err := Decode("keys", []byte(`{"version":1,"name":"k","description":"a \"quoted\" {\"name\":1}, [x]","migrating":{"type":"migrating-cpu","workload":{"profile":"idle"}},"load_workload":{"profile":"idle"},"cluster":{"hosts":[{"name":"a","machine":"m01","vms":[{"name":"v","mem_gib":1e0,"phases":[]}]},{"name":"b","machine":"m01","vms":[]}]}}`)); err != nil {
		t.Errorf("distinct objects with equal keys refused: %v", err)
	}
}

// TestCompileKeepsParseResult checks the compile a parsed spec keeps:
// LoadDir compiles every library spec once, and Compile on an unedited
// spec returns that result, lowering nothing again (a fleet spec's
// compile allocates megabytes), while a spec edited after Parse, in a
// field or as an edited copy, compiles afresh and a copy never gets the
// original's result.
func TestCompileKeepsParseResult(t *testing.T) {
	specs, err := LoadDir(libraryDir)
	if err != nil {
		t.Fatal(err)
	}
	fleets := 0
	for _, s := range specs {
		first, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := s.Compile(); again != first || first.Spec != s {
			t.Errorf("%s: a second Compile of the loaded spec lowered it again", s.Name)
		}
		if s.Cluster == nil || len(s.Cluster.Fleet) == 0 || raceEnabled {
			continue
		}
		fleets++
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.Compile(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
			t.Errorf("%s: Compile of the loaded spec allocates %d bytes; the fleet expanded again", s.Name, b)
		}
	}
	if !raceEnabled && fleets < 3 {
		t.Fatalf("library has %d fleet specs, want at least 3", fleets)
	}

	s, err := Load(filepath.Join(libraryDir, "c1-cpuload-live.json"))
	if err != nil {
		t.Fatal(err)
	}
	kept, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cp := *s
	if c, err := cp.Compile(); err != nil || c == kept || c.Spec != &cp {
		t.Errorf("an unedited copy got the original's compile (%v)", err)
	}
	cp.Name = "c1-copy"
	if c, err := cp.Compile(); err != nil || c.Runs[0].Label != "c1-copy" {
		t.Errorf("an edited copy did not compile afresh: %+v, %v", c, err)
	}
	s.SourceLoadVMs = 7
	edited, err := s.Compile()
	if err != nil || edited == kept || edited.Runs[0].Scenario.SourceLoadVMs != 7 {
		t.Fatalf("a spec edited after Parse did not compile afresh: %v", err)
	}
	if kept.Runs[0].Scenario.SourceLoadVMs != 5 {
		t.Error("compiling the edited spec changed the kept result")
	}
	s.SourceLoadVMs = 56
	if _, err := s.Compile(); err == nil {
		t.Error("an edit Compile should refuse was accepted")
	}
	s.SourceLoadVMs = 5
	if c, _ := s.Compile(); c != kept {
		t.Error("the spec edited back to what Parse read did not get the kept compile")
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	path := write(t, dir, "typo.json", `{"version": 1, "name": "typo", "migratng": {}}`)
	if _, err := Load(path); err == nil {
		t.Fatal("typoed field accepted")
	}
}

func TestLoadRejectsTrailingData(t *testing.T) {
	dir := t.TempDir()
	s := mustJSON(t, minimal())
	for i, trail := range []string{`{"another": 1}`, "}", "\n]\n", " x"} {
		path := write(t, dir, fmt.Sprintf("trail%d.json", i), s+trail)
		_, err := Load(path)
		wantPathError(t, err, "(json)")
	}
	if _, err := Load(write(t, dir, "space.json", s+" \n\t")); err != nil {
		t.Errorf("trailing white space refused: %v", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "nope.json"))
	wantPathError(t, err, "(file)")
}

func TestLoadDirDetectsNameCollision(t *testing.T) {
	dir := t.TempDir()
	a := minimal()
	a.Name = "twin"
	b := minimal()
	b.Name = "twin"
	b.Seed = 999 // distinct seed so only the name collides
	write(t, dir, "a.json", mustJSON(t, a))
	write(t, dir, "b.json", mustJSON(t, b))
	_, err := LoadDir(dir)
	wantPathError(t, err, "name")
}

func TestLoadDirDetectsSeedCollision(t *testing.T) {
	dir := t.TempDir()
	a := minimal()
	a.Name = "first"
	a.Seed = 1234
	b := minimal()
	b.Name = "second"
	b.Seed = 1234
	write(t, dir, "a.json", mustJSON(t, a))
	write(t, dir, "b.json", mustJSON(t, b))
	_, err := LoadDir(dir)
	wantPathError(t, err, "seed")
	if !strings.Contains(err.Error(), "first") {
		t.Errorf("seed collision error does not name the other scenario: %v", err)
	}
}

func TestLoadDirEmpty(t *testing.T) {
	_, err := LoadDir(t.TempDir())
	wantPathError(t, err, "(glob)")
}

func TestCheckUniqueAcrossSources(t *testing.T) {
	// Runners combine -dir and positional files; the combined set is held
	// to the same uniqueness invariant a single directory is.
	a := minimal()
	a.Name = "same"
	b := minimal()
	b.Name = "same"
	wantPathError(t, CheckUnique([]*Spec{a, b}), "name")

	c := minimal()
	c.Name = "other"
	c.Seed = a.EffectiveSeed() // explicit seed colliding with a derived one
	wantPathError(t, CheckUnique([]*Spec{a, c}), "seed")

	d := minimal()
	d.Name = "distinct"
	if err := CheckUnique([]*Spec{a, d}); err != nil {
		t.Fatalf("disjoint specs rejected: %v", err)
	}
}

func TestList(t *testing.T) {
	dir := t.TempDir()
	a := minimal()
	a.Name = "zeta"
	a.Description = "last alphabetically"
	b := minimal()
	b.Name = "alpha"
	b.Phases = []PhaseSpec{{Kind: "steady", DurationS: 10}}
	write(t, dir, "01-zeta.json", mustJSON(t, a))
	write(t, dir, "02-alpha.json", mustJSON(t, b))
	specs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	infos := List(specs)
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "zeta" {
		t.Fatalf("list = %+v", infos)
	}
	if infos[0].Phases != 1 || infos[1].Description != "last alphabetically" {
		t.Errorf("list metadata wrong: %+v", infos)
	}
}
