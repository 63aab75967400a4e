package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/consolidation"
	"repro/internal/migration"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

func gib(n float64) units.Bytes { return units.Bytes(n * float64(units.GiB)) }

// fleet builds n hosts of one machine model, named h00, h01, …, each
// with the given VMs (vms[i] goes to host i; nil entries leave the host
// empty).
func fleet(machine string, vms ...[]VM) []Host {
	out := make([]Host, len(vms))
	for i := range vms {
		out[i] = Host{
			Name:    "h0" + string(rune('0'+i)),
			Machine: machine,
			VMs:     vms[i],
		}
	}
	return out
}

func vmSpec(name string, busy float64, dirty units.Fraction) VM {
	return VM{Name: name, MemBytes: gib(4), BusyVCPUs: busy, DirtyRatio: dirty}
}

// at is where a refusal is expected: an InputError's Field, Index, VM
// and Attr.
func at(field string, index, vm int, attr string) InputError {
	return InputError{Field: field, Index: index, VM: vm, Attr: attr}
}

// wantRefusal checks that err is an *InputError located at want whose
// message mentions msg.
func wantRefusal(t *testing.T, name string, err error, want InputError, msg string) {
	t.Helper()
	var ie *InputError
	switch {
	case err == nil:
		t.Errorf("%s: accepted", name)
	case !errors.As(err, &ie):
		t.Errorf("%s: %T %q is not an *InputError", name, err, err)
	case ie.Field != want.Field || ie.Index != want.Index || ie.VM != want.VM || ie.Attr != want.Attr:
		t.Errorf("%s: refused at %s[%d] VM %d .%s, want %s[%d] VM %d .%s (%v)",
			name, ie.Field, ie.Index, ie.VM, ie.Attr, want.Field, want.Index, want.VM, want.Attr, err)
	case !strings.Contains(err.Error(), msg):
		t.Errorf("%s: error %q does not mention %q", name, err, msg)
	}
}

func TestValidate(t *testing.T) {
	good := Config{
		Kind:  migration.Live,
		Hosts: fleet("m01", []VM{vmSpec("a", 4, 0.1)}, nil),
		Moves: []TimedMove{{VM: "a", From: "h00", To: "h01"}},
	}
	if _, err := Prepare(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	policy := func(c *Config, p consolidation.Policy) {
		c.Moves = nil
		c.Policy = p
		c.Tick = time.Hour
		c.Horizon = time.Hour
	}
	energyAware := consolidation.EnergyAware{Model: consolidation.HeuristicCost{}}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
		at   InputError
	}{
		{"no hosts", func(c *Config) { c.Hosts = nil }, "no hosts", at("Hosts", -1, -1, "")},
		{"post-copy", func(c *Config) { c.Kind = migration.PostCopy }, "unsupported migration kind", at("Kind", -1, -1, "")},
		{"unknown machine", func(c *Config) { c.Hosts[0].Machine = "z9" }, "unknown machine model", at("Hosts", 0, -1, "Machine")},
		{"no machine", func(c *Config) { c.Hosts[0].Machine = "" }, "needs a machine model", at("Hosts", 0, -1, "Machine")},
		{"dup host", func(c *Config) { c.Hosts[1].Name = "h00" }, "duplicate host", at("Hosts", 1, -1, "Name")},
		{"dup vm", func(c *Config) { c.Hosts[1].VMs = []VM{vmSpec("a", 1, 0)} }, "already exists", at("Hosts", 1, 0, "Name")},
		{"unknown move vm", func(c *Config) { c.Moves[0].VM = "ghost" }, "unknown VM", at("Moves", 0, -1, "VM")},
		{"unknown move host", func(c *Config) { c.Moves[0].To = "h99" }, "unknown host", at("Moves", 0, -1, "To")},
		{"same host move", func(c *Config) { c.Moves[0].To = "h00" }, "does not change hosts", at("Moves", 0, -1, "To")},
		{"negative at", func(c *Config) { c.Moves[0].At = -time.Second }, "before the timeline", at("Moves", 0, -1, "At")},
		{"policy and moves", func(c *Config) {
			c.Policy = energyAware
			c.Tick = time.Hour
			c.Horizon = time.Hour
		}, "mutually exclusive", at("Moves", -1, -1, "")},
		{"policy no tick", func(c *Config) {
			policy(c, energyAware)
			c.Tick = 0
		}, "tick period", at("Tick", -1, -1, "")},
		{"policy no horizon", func(c *Config) {
			policy(c, energyAware)
			c.Horizon = 0
		}, "horizon", at("Horizon", -1, -1, "")},
		{"policy with mixed switches", func(c *Config) {
			// Topology-blind policies would plan a cross-switch move and
			// abort mid-timeline; Prepare must refuse the population.
			policy(c, energyAware)
			c.Hosts[1].Machine = "o1"
		}, "one switch", at("Hosts", 1, -1, "Machine")},
		{"same vm dispatched twice at one instant", func(c *Config) {
			c.Moves = append(c.Moves, TimedMove{VM: "a", From: "h00", To: "h01"})
		}, "twice", at("Moves", 1, -1, "At")},
		{"reserved vm name under policy", func(c *Config) {
			policy(c, energyAware)
			c.Hosts[1].VMs = []VM{vmSpec("a+incoming", 1, 0)}
		}, "reserved", at("Hosts", 1, 0, "Name")},
		// A guest busier than its host's threads: no placement carries
		// it, and a move into its host would lower to load VMs beyond the
		// testbed (or, from 1e300 vCPUs, to a count that wraps negative).
		{"vm demand beyond int range", func(c *Config) {
			c.Hosts[1].VMs = []VM{vmSpec("b", 1e300, 0)}
		}, "exceeds the 32 threads", at("Hosts", 1, 0, "BusyVCPUs")},
		{"vm demand beyond the testbed", func(c *Config) {
			c.Hosts[1].VMs = []VM{vmSpec("b", 400, 0)}
		}, "exceeds the 32 threads", at("Hosts", 1, 0, "BusyVCPUs")},
		{"vm demand no host of the plan can hold", func(c *Config) {
			policy(c, consolidation.FirstFitDecreasing{Model: consolidation.HeuristicCost{}})
			c.Hosts[0].VMs = []VM{vmSpec("a", 40, 0.1)}
		}, "exceeds the 32 threads", at("Hosts", 0, 0, "BusyVCPUs")},
		{"vm demand beyond its host at a phase peak", func(c *Config) {
			v := vmSpec("b", 20, 0)
			v.Phases = []workload.Phase{{Kind: workload.PhaseSteady, Duration: time.Minute}, {Kind: workload.PhaseBurst, Duration: time.Minute, Peak: 2}}
			c.Hosts[1].VMs = []VM{v}
		}, "peak demand of 40 busy vCPUs", at("Hosts", 1, 0, "BusyVCPUs")},
	}
	for _, tc := range cases {
		cfg := Config{
			Kind:  good.Kind,
			Hosts: fleet("m01", []VM{vmSpec("a", 4, 0.1)}, nil),
			Moves: []TimedMove{{VM: "a", From: "h00", To: "h01"}},
		}
		tc.mut(&cfg)
		_, err := Prepare(cfg)
		wantRefusal(t, tc.name, err, tc.at, tc.want)
	}
}

func TestVMPhaseFactor(t *testing.T) {
	v := VM{Name: "v", MemBytes: gib(4), BusyVCPUs: 8, DirtyRatio: 0.4,
		Phases: []workload.Phase{
			{Kind: workload.PhaseSteady, Duration: 100 * time.Second, Level: 0.5},
			{Kind: workload.PhaseBurst, Duration: 100 * time.Second, Level: 1, Peak: 2},
		}}
	if got := v.busyAt(50 * time.Second); got != 4 {
		t.Errorf("steady half level: busy = %v, want 4", got)
	}
	if got := v.busyAt(150 * time.Second); got != 16 {
		t.Errorf("burst peak: busy = %v, want 16", got)
	}
	// After the timeline the final factor holds (burst ends at level 1).
	if got := v.busyAt(300 * time.Second); got != 8 {
		t.Errorf("post-timeline: busy = %v, want 8", got)
	}
	// Dirty ratios scale with the factor but stay physical.
	if got := v.dirtyAt(150 * time.Second); got != 0.8 {
		t.Errorf("burst dirty = %v, want 0.8", got)
	}
	hot := VM{Name: "h", MemBytes: gib(4), DirtyRatio: 0.9,
		Phases: []workload.Phase{{Kind: workload.PhaseSteady, Duration: time.Second, Level: 3}}}
	if got := hot.dirtyAt(0); got != 1 {
		t.Errorf("overdriven dirty ratio = %v, want clamped to 1", got)
	}
}

// explicitPair is a 4-host single-switch cluster with two migrations.
func explicitPair(secondAt time.Duration) Config {
	return Config{
		Kind: migration.Live,
		Hosts: fleet("m01",
			[]VM{vmSpec("va", 4, 0.5)},
			nil,
			[]VM{vmSpec("vb", 4, 0.5)},
			nil,
		),
		Moves: []TimedMove{
			{VM: "va", From: "h00", To: "h01", At: 0},
			{VM: "vb", From: "h02", To: "h03", At: secondAt},
		},
		Seed: 42,
	}
}

// TestLinkContention is the tentpole's physical claim: two transfers
// sharing one switch each progress at half rate, so they finish later
// than the same transfers run far apart — and the stretched transfer
// costs more energy.
func TestLinkContention(t *testing.T) {
	contended, err := Run(explicitPair(0))
	if err != nil {
		t.Fatal(err)
	}
	// The second move starts long after the first has landed: private link.
	private, err := Run(explicitPair(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(contended.Timeline) != 2 || len(private.Timeline) != 2 {
		t.Fatalf("timelines: %d and %d moves", len(contended.Timeline), len(private.Timeline))
	}
	for i := range contended.Timeline {
		c, p := contended.Timeline[i], private.Timeline[i]
		// Identical physics underneath: same scenario, same seed.
		if c.IntrinsicEnergy != p.IntrinsicEnergy || c.BytesSent != p.BytesSent {
			t.Errorf("move %d intrinsic drifted between configs", i)
		}
		if c.Stretch <= 1.5 {
			t.Errorf("move %d stretch = %v, want ≈2 under a shared link", i, c.Stretch)
		}
		if p.Stretch != 1 {
			t.Errorf("private move %d stretch = %v, want exactly 1", i, p.Stretch)
		}
		if c.Duration <= p.Duration {
			t.Errorf("move %d contended duration %v not longer than private %v", i, c.Duration, p.Duration)
		}
		if c.Energy <= c.IntrinsicEnergy {
			t.Errorf("move %d contended energy %v not above intrinsic %v", i, c.Energy, c.IntrinsicEnergy)
		}
		if p.Energy != p.IntrinsicEnergy {
			t.Errorf("private move %d energy %v != intrinsic %v", i, p.Energy, p.IntrinsicEnergy)
		}
	}
	if contended.Makespan <= private.Timeline[0].Duration {
		t.Errorf("contended makespan %v not beyond one private transfer %v",
			contended.Makespan, private.Timeline[0].Duration)
	}
}

// TestDisjointSwitchesDoNotContend runs the same concurrent shape on
// two different switches: no stretching.
func TestDisjointSwitchesDoNotContend(t *testing.T) {
	cfg := Config{
		Kind: migration.Live,
		Hosts: []Host{
			{Name: "a1", Machine: "m01", VMs: []VM{vmSpec("va", 4, 0.5)}},
			{Name: "a2", Machine: "m01"},
			{Name: "b1", Machine: "o1", VMs: []VM{vmSpec("vb", 4, 0.5)}},
			{Name: "b2", Machine: "o1"},
		},
		Moves: []TimedMove{
			{VM: "va", From: "a1", To: "a2", At: 0},
			{VM: "vb", From: "b1", To: "b2", At: 0},
		},
		Seed: 42,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range rep.Timeline {
		if rec.Stretch != 1 {
			t.Errorf("move %d on a private switch stretched by %v", i, rec.Stretch)
		}
	}
	// Topology reached the cache key: one move ran on m01 hardware, the
	// other on o1 hardware.
	if rep.Timeline[0].Pair != "m01/m01" || rep.Timeline[1].Pair != "o1/o1" {
		t.Errorf("pairs = %q, %q; want m01/m01 and o1/o1",
			rep.Timeline[0].Pair, rep.Timeline[1].Pair)
	}
}

func TestCrossSwitchMoveRefused(t *testing.T) {
	cfg := Config{
		Kind: migration.Live,
		Hosts: []Host{
			{Name: "a1", Machine: "m01", VMs: []VM{vmSpec("va", 4, 0.5)}},
			{Name: "b1", Machine: "o1"},
		},
		Moves: []TimedMove{{VM: "va", From: "a1", To: "b1"}},
	}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "different switches") {
		t.Fatalf("cross-switch move: err = %v, want a different-switches refusal", err)
	}
}

// policyFleet is an 8-host diurnal cluster the energy-aware policy can
// consolidate: two nearly idle hosts worth draining, the rest with
// moderate load and headroom.
func policyFleet() Config {
	hosts := fleet("m01",
		[]VM{vmSpec("web1", 8, 0.1), vmSpec("web2", 6, 0.1)},
		[]VM{vmSpec("db1", 10, 0.3)},
		[]VM{vmSpec("an1", 12, 0.2)},
		[]VM{vmSpec("batch1", 9, 0.05)},
		[]VM{vmSpec("cache1", 2, 0.9)},
		[]VM{vmSpec("idle1", 1, 0.05)},
		[]VM{vmSpec("web3", 7, 0.1)},
		[]VM{vmSpec("db2", 8, 0.25)},
	)
	return Config{
		Kind:   migration.Live,
		Hosts:  hosts,
		Policy: consolidation.EnergyAware{Model: consolidation.HeuristicCost{}},
		PolicyConfig: consolidation.Config{
			Horizon: 24 * time.Hour,
		},
		Tick:    30 * time.Minute,
		Horizon: 2 * time.Hour,
		Seed:    7,
	}
}

// TestHostOrderIndependence: the engine iterates hosts and each host's
// VMs in name order whatever order the config lists them in, and it
// never reorders the caller's lists. Reversing both yields the report
// of the name-ordered config.
func TestHostOrderIndependence(t *testing.T) {
	want, err := Run(policyFleet())
	if err != nil {
		t.Fatal(err)
	}
	cfg := policyFleet()
	slices.Reverse(cfg.Hosts)
	for i := range cfg.Hosts {
		slices.Reverse(cfg.Hosts[i].VMs)
	}
	listed := make([][]VM, len(cfg.Hosts))
	for i, h := range cfg.Hosts {
		listed[i] = slices.Clone(h.VMs)
	}
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reversed host and VM lists changed the report:\n%+v\nwant\n%+v", got, want)
	}
	for i, h := range cfg.Hosts {
		if !reflect.DeepEqual(h.VMs, listed[i]) {
			t.Errorf("Run reordered host %s's VM list: %v, was %v", h.Name, h.VMs, listed[i])
		}
	}
}

func TestPolicyTimelineConsolidates(t *testing.T) {
	rep, final, err := runPlaced(policyFleet())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ticks) != 4 {
		t.Fatalf("ticks = %d, want 4 (0, 30, 60, 90 min inside a 2 h horizon)", len(rep.Ticks))
	}
	if len(rep.Timeline) == 0 {
		t.Fatal("policy timeline planned no migrations")
	}
	if len(rep.FreedHosts) == 0 {
		t.Error("consolidation freed no hosts")
	}
	if rep.IdleSavings <= 0 {
		t.Error("freed hosts reclaim no idle power")
	}
	// Conservation: every VM still placed exactly once.
	n := 0
	for _, h := range final {
		n += len(h.VMs)
	}
	if n != 9 {
		t.Errorf("final state has %d VMs, want 9", n)
	}
	if rep.TotalEnergy <= 0 {
		t.Error("no energy measured")
	}
}

// TestDeterministicAcrossWorkersAndCache is the repo-wide guarantee
// applied to the cluster layer: the full report — timeline, ticks,
// energies, stretches — is bit-identical for every worker count and
// cache setting.
func TestDeterministicAcrossWorkersAndCache(t *testing.T) {
	base := policyFleet()
	base.Workers = 1
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, alt := range []struct {
		name    string
		workers int
		cache   *sim.Cache
	}{
		{"workers=8", 8, nil},
		{"workers=3+cache", 3, sim.NewCache(0)},
		{"cache", 1, sim.NewCache(0)},
	} {
		cfg := policyFleet()
		cfg.Workers = alt.workers
		cfg.Cache = alt.cache
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", alt.name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: report differs from the sequential uncached run", alt.name)
		}
	}
}

// TestRetickPinsInflight fires a re-planning tick while the previous
// plan's migration is still in flight: the policy must plan around the
// pinned VM and the engine must never double-dispatch it.
func TestRetickPinsInflight(t *testing.T) {
	// One drainable host with a very dirty VM: the transfer (3x data
	// valve over a ~95 MB/s link on 4 GiB) far outlives the 60 s tick.
	cfg := Config{
		Kind: migration.Live,
		Hosts: fleet("m01",
			[]VM{vmSpec("dirty", 2, 0.9)},
			[]VM{vmSpec("w1", 10, 0.1)},
			[]VM{vmSpec("w2", 12, 0.1)},
		),
		Policy:       consolidation.EnergyAware{Model: consolidation.HeuristicCost{}},
		PolicyConfig: consolidation.Config{Horizon: 24 * time.Hour},
		Tick:         60 * time.Second,
		Horizon:      3 * time.Minute,
		Seed:         3,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ticks) != 3 {
		t.Fatalf("ticks = %d, want 3", len(rep.Ticks))
	}
	if rep.Ticks[0].Moves == 0 {
		t.Fatal("first tick planned nothing; fixture drift")
	}
	if rep.Timeline[0].Duration <= cfg.Tick {
		t.Fatalf("fixture drift: migration (%v) no longer outlives the tick (%v)",
			rep.Timeline[0].Duration, cfg.Tick)
	}
	pinnedSeen := false
	for _, tick := range rep.Ticks[1:] {
		// Pinned reports the placement entries the round actually
		// pinned: every in-flight migration contributes two —
		// the migrating VM on its source and its "+incoming"
		// destination reservation. Reconcile against the timeline:
		// flights spanning the tick instant (dispatched before, landed
		// after) are exactly the in-flight set the round saw.
		inFlight := 0
		for _, rec := range rep.Timeline {
			if rec.Start < tick.At && rec.End > tick.At {
				inFlight++
			}
		}
		if tick.Pinned != 2*inFlight {
			t.Errorf("tick at %v pinned %d entries with %d migrations in flight, want %d",
				tick.At, tick.Pinned, inFlight, 2*inFlight)
		}
		if tick.Pinned > 0 {
			pinnedSeen = true
			if tick.Moves != 0 {
				t.Errorf("tick at %v planned %d moves while the drain was in flight", tick.At, tick.Moves)
			}
		}
	}
	if !pinnedSeen {
		t.Error("no re-planning tick observed the in-flight migration")
	}
	moved := map[string]int{}
	for _, rec := range rep.Timeline {
		moved[rec.VM]++
	}
	if moved["dirty"] != 1 {
		t.Errorf("dirty VM migrated %d times, want exactly 1", moved["dirty"])
	}
}

// TestPhaseShiftsDriveReplanning gives a VM a two-phase timeline whose
// boundary is recorded as an event and whose intensity change is
// visible to later planning rounds.
func TestPhaseShiftsDriveReplanning(t *testing.T) {
	v := vmSpec("spiky", 4, 0.1)
	v.Phases = []workload.Phase{
		{Name: "calm", Kind: workload.PhaseSteady, Duration: 60 * time.Second, Level: 0.5},
		{Name: "rush", Kind: workload.PhaseSteady, Duration: 60 * time.Second, Level: 4},
	}
	cfg := Config{
		Kind:    migration.Live,
		Hosts:   fleet("m01", []VM{v}, []VM{vmSpec("w1", 8, 0.1)}),
		Horizon: 2 * time.Minute,
		Moves:   []TimedMove{{VM: "w1", From: "h01", To: "h00", At: 90 * time.Second}},
		Seed:    5,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shifts) != 1 || rep.Shifts[0].At != 60*time.Second ||
		rep.Shifts[0].VM != "spiky" || rep.Shifts[0].Phase != "rush" {
		t.Fatalf("shifts = %+v, want one shift of spiky into rush at 60 s", rep.Shifts)
	}
	// At the move's dispatch (90 s) spiky runs at 4x: 16 busy vCPUs on
	// the target → 4 load VMs in the lowered scenario. The engine records
	// only measured outcomes, so assert indirectly: rerun with the move
	// during the calm phase and compare intrinsic energies (loaded
	// targets cost more).
	calm := cfg
	calm.Moves = []TimedMove{{VM: "w1", From: "h01", To: "h00", At: 30 * time.Second}}
	calmRep, err := Run(calm)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeline[0].IntrinsicEnergy <= calmRep.Timeline[0].IntrinsicEnergy {
		t.Errorf("migrating into the rush phase (%v) not dearer than into calm (%v)",
			rep.Timeline[0].IntrinsicEnergy, calmRep.Timeline[0].IntrinsicEnergy)
	}
}

// TestSerialMatchesEventLoop: the plan executor runs its moves one
// after another with no timeline, and the event loop, with the same
// moves spaced far enough apart that nothing overlaps, measures each
// move the same: both lower it alike, residual loads included, and
// neither path contends.
func TestSerialMatchesEventLoop(t *testing.T) {
	hosts := fleet("m01",
		[]VM{vmSpec("va", 4, 0.1), vmSpec("vc", 8, 0.1)},
		nil,
		[]VM{vmSpec("vb", 8, 0.5)},
		[]VM{vmSpec("vd", 12, 0.1)},
	)
	spaced, err := Run(Config{
		Kind:  migration.Live,
		Hosts: hosts,
		Moves: []TimedMove{
			{VM: "va", From: "h00", To: "h01"},
			{VM: "vb", From: "h02", To: "h03", At: time.Hour},
		},
		Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	dc := make([]consolidation.HostState, len(hosts))
	for i, h := range hosts {
		dc[i].Name, dc[i].Threads, dc[i].IdlePower = h.Name, 32, 440
		for _, v := range h.VMs {
			dc[i].VMs = append(dc[i].VMs, consolidation.VMState{Name: v.Name, MemBytes: v.MemBytes, BusyVCPUs: v.BusyVCPUs, DirtyRatio: v.DirtyRatio})
		}
	}
	plan := &consolidation.Plan{Moves: []consolidation.Move{{VM: "va", From: "h00", To: "h01"}, {VM: "vb", From: "h02", To: "h03"}}}
	serial, err := Executor{Pair: "m01/m01", Kind: migration.Live, Seed: 9}.ExecutePlan("serial", plan, dc)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Moves) != len(spaced.Timeline) {
		t.Fatalf("executor measured %d moves, event loop %d", len(serial.Moves), len(spaced.Timeline))
	}
	for i, s := range serial.Moves {
		p := spaced.Timeline[i]
		if s.MeasuredEnergy != p.Energy || s.BytesSent != p.BytesSent || s.Duration != p.Duration {
			t.Errorf("move %d: executor and spaced event-loop measurements differ:\n  %+v\n  %+v", i, s, p)
		}
	}
}

// TestRunRefusesOverlappingMovesOfOneVM: a VM dispatched again while
// its first flight is still in the air must error, not double-migrate.
func TestRunRefusesOverlappingMovesOfOneVM(t *testing.T) {
	cfg := explicitPair(0)
	cfg.Moves = []TimedMove{
		{VM: "va", From: "h00", To: "h01", At: 0},
		{VM: "va", From: "h01", To: "h03", At: time.Second},
	}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "already migrating") {
		t.Fatalf("overlapping dispatch of one VM: err = %v, want already-migrating refusal", err)
	}
}

// TestRunRefusesMoveBeyondTheTestbed: an explicit move whose lowered
// migration puts more load VMs on one end than the testbed host's RAM
// holds is refused as the move's own input, at that end; the batch
// commits nothing. A planned move's kernel failure stays a plain error.
func TestRunRefusesMoveBeyondTheTestbed(t *testing.T) {
	mover := vmSpec("a", 4, 0.1)
	piled := make([]VM, 8)
	for i := range piled {
		piled[i] = vmSpec(fmt.Sprintf("p%d", i), 30, 0.1)
	}
	for _, tc := range []struct {
		name  string
		hosts []Host
		side  string
	}{
		{"piled target", fleet("m01", []VM{mover}, piled), "To"},
		{"piled source", fleet("m01", append([]VM{mover}, piled...), nil), "From"},
	} {
		_, err := Run(Config{Kind: migration.Live, Hosts: tc.hosts, Moves: []TimedMove{{VM: "a", From: "h00", To: "h01"}}})
		wantRefusal(t, tc.name, err, at("Moves", 0, -1, tc.side), "60 load VMs do not fit")
		if fit := (*sim.FitError)(nil); !errors.As(err, &fit) {
			t.Errorf("%s: the refusal %v does not carry the kernel's *sim.FitError", tc.name, err)
		}
	}
	cfg := policyFleet()
	cfg.simOverride = func(sim.Scenario) (*sim.RunResult, error) {
		return nil, &sim.FitError{Target: true, Host: "m01", LoadVMs: 60, Max: 6}
	}
	var ie *InputError
	if _, err := Run(cfg); err == nil || errors.As(err, &ie) {
		t.Errorf("planned move the kernel refused: err = %v, want a plain error", err)
	}
}

func TestRunErrorsOnVMNotAtSource(t *testing.T) {
	// Second move references the VM's pre-first-move host: by the time it
	// dispatches, the VM has landed elsewhere.
	cfg := explicitPair(0)
	cfg.Moves = []TimedMove{
		{VM: "va", From: "h00", To: "h01", At: 0},
		{VM: "va", From: "h00", To: "h03", At: time.Hour},
	}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "not") {
		t.Fatalf("stale move source: err = %v", err)
	}
}
