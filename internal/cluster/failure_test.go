package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/consolidation"
	"repro/internal/migration"
	"repro/internal/sim"
)

// singleMove is a 2-host cluster with one explicit migration — the
// minimal timeline failure events can hit.
func singleMove() Config {
	return Config{
		Kind: migration.Live,
		Hosts: fleet("m01",
			[]VM{vmSpec("va", 4, 0.5), vmSpec("vb", 2, 0.1)},
			nil,
		),
		Moves: []TimedMove{{VM: "va", From: "h00", To: "h01"}},
		Seed:  42,
	}
}

// mustRun is the test-side Run that fails the test on error.
func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// mustRunPlaced is runPlaced failing the test on error: the report and
// the end placement.
func mustRunPlaced(t *testing.T, cfg Config) (*Report, []placedHost) {
	t.Helper()
	rep, final, err := runPlaced(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep, final
}

func TestHostCrashAbortsFlightAndOrphans(t *testing.T) {
	base := mustRun(t, singleMove())
	if len(base.Timeline) != 1 {
		t.Fatalf("baseline moved %d times, want 1", len(base.Timeline))
	}
	mid := base.Timeline[0].End / 2

	cfg := singleMove()
	cfg.Failures = []FailureEvent{{At: mid, Kind: FailHostCrash, Host: "h00"}}
	rep, final := mustRunPlaced(t, cfg)

	if len(rep.Timeline) != 0 {
		t.Errorf("crashed timeline completed %d migrations, want 0", len(rep.Timeline))
	}
	if rep.AbortedFlights != 1 || len(rep.Aborted) != 1 {
		t.Fatalf("AbortedFlights = %d (%d records), want 1", rep.AbortedFlights, len(rep.Aborted))
	}
	a := rep.Aborted[0]
	if a.VM != "va" || a.Reason != "host-crash h00" || a.End != mid {
		t.Errorf("abort record = %+v, want va killed by host-crash h00 at %v", a, mid)
	}
	if a.Energy <= 0 || a.Energy >= base.Timeline[0].Energy {
		t.Errorf("abort energy %v not in (0, full migration %v)", a.Energy, base.Timeline[0].Energy)
	}
	if rep.TotalEnergy != a.Energy {
		t.Errorf("TotalEnergy = %v, want the aborted flight's charge %v", rep.TotalEnergy, a.Energy)
	}
	// Both residents of h00 — including va, which the abort returned to
	// its source — are orphaned, and nothing evacuated them.
	if rep.OrphanedVMs != 2 || rep.EvacuatedVMs != 0 || rep.EvacuationDeadlineMet {
		t.Errorf("SLO = %d orphaned / %d evacuated / met=%v, want 2/0/false",
			rep.OrphanedVMs, rep.EvacuatedVMs, rep.EvacuationDeadlineMet)
	}
	// The crashed host is not a "freed" host even though the fleet's
	// empty-host scan runs after it dropped out of the power floor.
	for _, h := range rep.FreedHosts {
		if h == "h00" {
			t.Error("crashed host h00 reported as freed")
		}
	}
	if !hostNamed(t, final, "h00").Down {
		t.Error("final placement does not mark h00 down")
	}
}

func TestFlightAbortReturnsVMForRedispatch(t *testing.T) {
	base := mustRun(t, singleMove())
	end := base.Timeline[0].End

	cfg := singleMove()
	cfg.Failures = []FailureEvent{
		{At: end / 2, Kind: FailFlightAbort, VM: "va"},
		// vb never flies: aborting it is a documented no-op.
		{At: end / 2, Kind: FailFlightAbort, VM: "vb"},
	}
	// Retry the move after the abort; va is back on h00, so the same
	// route dispatches cleanly.
	cfg.Moves = append(cfg.Moves, TimedMove{VM: "va", From: "h00", To: "h01", At: end + time.Minute})
	rep, final := mustRunPlaced(t, cfg)

	if len(rep.Aborted) != 1 || rep.Aborted[0].Reason != "flight-abort" {
		t.Fatalf("aborts = %+v, want exactly va's flight-abort", rep.Aborted)
	}
	if len(rep.Timeline) != 1 || rep.Timeline[0].Start != end+time.Minute {
		t.Fatalf("timeline = %+v, want only the retry dispatched at %v", rep.Timeline, end+time.Minute)
	}
	// The retry runs on a private link from a clean start: its physics
	// match the baseline's (same scenario, next dispatch index → only
	// the seed differs, and energy is the same measured quantity class).
	if h01 := hostNamed(t, final, "h01"); len(h01.VMs) != 1 || h01.VMs[0] != "va" {
		t.Errorf("va did not land on h01 after the retry: %v", h01.VMs)
	}
	if rep.OrphanedVMs != 0 || !rep.EvacuationDeadlineMet {
		t.Errorf("flight-abort alone orphaned %d VMs (met=%v); crashes only do that",
			rep.OrphanedVMs, rep.EvacuationDeadlineMet)
	}
}

// hostNamed finds one host in an end placement.
func hostNamed(t *testing.T, final []placedHost, name string) placedHost {
	t.Helper()
	for _, h := range final {
		if h.Name == name {
			return h
		}
	}
	t.Fatalf("host %q missing from final placement", name)
	return placedHost{}
}

func TestSwitchOutageStallsTransferExactly(t *testing.T) {
	base := mustRun(t, singleMove())
	end := base.Timeline[0].End
	const stall = 30 * time.Second

	cfg := singleMove()
	cfg.Failures = []FailureEvent{
		{At: end / 2, Kind: FailSwitchOutage, Switch: "Cisco Catalyst 3750"},
		{At: end/2 + stall, Kind: FailSwitchRestore, Switch: "Cisco Catalyst 3750"},
	}
	rep := mustRun(t, cfg)
	if len(rep.Timeline) != 1 {
		t.Fatalf("stalled timeline completed %d migrations, want 1", len(rep.Timeline))
	}
	got := rep.Timeline[0]
	// The outage freezes the transfer's virtual clock for exactly the
	// window span: completion slips by the stall, to the nanosecond.
	if got.End != end+stall {
		t.Errorf("stalled completion at %v, want %v + %v = %v", got.End, end, stall, end+stall)
	}
	if got.Stretch <= 1 {
		t.Errorf("stall did not register as stretch: %v", got.Stretch)
	}
	// The stretched transfer sustains transfer power through the stall,
	// so it costs more than the intrinsic run — same convention as link
	// contention.
	if got.Energy <= got.IntrinsicEnergy {
		t.Errorf("stalled energy %v not above intrinsic %v", got.Energy, got.IntrinsicEnergy)
	}
	if len(rep.Aborted) != 0 {
		t.Errorf("restored outage aborted flights: %+v", rep.Aborted)
	}
}

func TestUnrestoredOutageStrandsFlight(t *testing.T) {
	base := mustRun(t, singleMove())
	mid := base.Timeline[0].End / 2

	cfg := singleMove()
	cfg.Failures = []FailureEvent{{At: mid, Kind: FailSwitchOutage, Switch: "Cisco Catalyst 3750"}}
	rep, final := mustRunPlaced(t, cfg)
	if len(rep.Timeline) != 0 {
		t.Errorf("stranded timeline completed %d migrations, want 0", len(rep.Timeline))
	}
	if len(rep.Aborted) != 1 || rep.Aborted[0].Reason != "stranded" || rep.Aborted[0].End != mid {
		t.Fatalf("aborts = %+v, want va stranded at the drain instant %v", rep.Aborted, mid)
	}
	// The VM never left its source and the source is alive: no orphan.
	if rep.OrphanedVMs != 0 || !rep.EvacuationDeadlineMet {
		t.Errorf("stranding orphaned %d VMs (met=%v)", rep.OrphanedVMs, rep.EvacuationDeadlineMet)
	}
	if src := hostNamed(t, final, "h00"); len(src.VMs) != 2 {
		t.Errorf("source lost a VM to a stranded flight: %v", src.VMs)
	}
}

// evacFleet is a 3-host policy cluster whose tick-0 plan drains the
// small host — giving a flight to crash and an orphan to evacuate.
func evacFleet() Config {
	return Config{
		Kind: migration.Live,
		Hosts: fleet("m01",
			[]VM{vmSpec("small", 2, 0.1)},
			[]VM{vmSpec("big1", 10, 0.1)},
			[]VM{vmSpec("big2", 12, 0.1)},
		),
		Policy:       consolidation.EnergyAware{Model: consolidation.HeuristicCost{}},
		PolicyConfig: consolidation.Config{Horizon: 24 * time.Hour},
		Tick:         time.Minute,
		Horizon:      10 * time.Minute,
		Seed:         3,
	}
}

func TestCrashEvacuationMeetsDeadline(t *testing.T) {
	base := mustRun(t, evacFleet())
	if len(base.Timeline) == 0 || base.Timeline[0].Start != 0 {
		t.Fatalf("fixture drift: tick 0 planned no drain (%+v)", base.Timeline)
	}
	crashAt := base.Timeline[0].End / 2

	cfg := evacFleet()
	cfg.Failures = []FailureEvent{{At: crashAt, Kind: FailHostCrash, Host: "h00"}}
	cfg.EvacuationDeadline = 9 * time.Minute
	rep := mustRun(t, cfg)

	if len(rep.Aborted) != 1 || !strings.HasPrefix(rep.Aborted[0].Reason, "host-crash") {
		t.Fatalf("aborts = %+v, want the in-flight drain killed by the crash", rep.Aborted)
	}
	if rep.OrphanedVMs != 1 || rep.EvacuatedVMs != 1 {
		t.Fatalf("SLO = %d orphaned / %d evacuated, want 1/1", rep.OrphanedVMs, rep.EvacuatedVMs)
	}
	if !rep.EvacuationDeadlineMet {
		t.Error("evacuation within 9 min not credited")
	}
	// The evacuation is a real migration off the dead host.
	evacs := 0
	for _, rec := range rep.Timeline {
		if rec.VM == "small" && rec.From == "h00" {
			evacs++
		}
	}
	if evacs != 1 {
		t.Errorf("timeline has %d evacuation moves of small off h00, want 1", evacs)
	}
	for _, h := range rep.FreedHosts {
		if h == "h00" {
			t.Error("dead host h00 counted as freed after evacuation emptied it")
		}
	}

	// The same timeline against an impossible deadline: the evacuation
	// happens, but too late.
	tight := evacFleet()
	tight.Failures = cfg.Failures
	tight.EvacuationDeadline = time.Second
	trep := mustRun(t, tight)
	if trep.EvacuatedVMs != 1 || trep.EvacuationDeadlineMet {
		t.Errorf("1 s deadline: evacuated=%d met=%v, want 1/false", trep.EvacuatedVMs, trep.EvacuationDeadlineMet)
	}
}

func TestAbortCooldownPinsOneRound(t *testing.T) {
	// One move per round: the aborted VM's cool-down pin must be the
	// only placement entry the next tick sees.
	fixture := evacFleet()
	fixture.PolicyConfig.MaxMoves = 1
	base := mustRun(t, fixture)
	abortAt := base.Timeline[0].End / 2
	if abortAt <= base.Timeline[0].Start {
		t.Fatal("fixture drift: no mid-flight instant to abort at")
	}

	cfg := fixture
	cfg.Failures = []FailureEvent{{At: abortAt, Kind: FailFlightAbort, VM: "small"}}
	rep := mustRun(t, cfg)

	if len(rep.Aborted) != 1 {
		t.Fatalf("aborts = %+v, want exactly the injected one", rep.Aborted)
	}
	// The next tick must see the cool-down pin — exactly 1 placement
	// entry, no reservation, the flight is gone — and cannot move the
	// VM; the pin lasts exactly one round.
	if len(rep.Ticks) < 3 {
		t.Fatalf("ticks = %d, want ≥ 3", len(rep.Ticks))
	}
	after := rep.Ticks[1]
	if after.Pinned != 1 {
		t.Errorf("tick after abort: pinned=%d, want the cool-down pin alone", after.Pinned)
	}
	for _, rec := range rep.Timeline {
		if rec.VM == "small" && rec.Start == after.At {
			t.Errorf("cool-down round re-dispatched the aborted VM: %+v", rec)
		}
	}
	if rep.Ticks[2].Pinned != 0 {
		t.Errorf("cool-down pin survived a second round: pinned=%d at %v",
			rep.Ticks[2].Pinned, rep.Ticks[2].At)
	}
}

// cooldownFleet is a 3-host policy cluster whose only move worth making
// drains the small host: the big guests dirty memory so fast that moving
// either cannot pay back within the 200 s planning horizon.
func cooldownFleet() Config {
	big := func(name string, busy float64) VM {
		return VM{Name: name, MemBytes: gib(16), BusyVCPUs: busy, DirtyRatio: 0.9}
	}
	return Config{
		Kind: migration.Live,
		Hosts: fleet("m01",
			[]VM{{Name: "small", MemBytes: gib(1), BusyVCPUs: 2, DirtyRatio: 0.05}},
			[]VM{big("big1", 10)},
			[]VM{big("big2", 12)},
		),
		Policy:       consolidation.EnergyAware{Model: consolidation.HeuristicCost{}},
		PolicyConfig: consolidation.Config{Horizon: 200 * time.Second},
		Tick:         time.Minute,
		Horizon:      6 * time.Minute,
		Seed:         3,
	}
}

// TestCooldownExpiryReplansCleanTick: when an abort cool-down expires,
// the next round's pinned list changes without any host event, and the
// cool-down round before it planned nothing — exactly the tick on which
// the engine would otherwise reuse the previous empty plan. That round
// must plan afresh: it pins nothing and re-dispatches the aborted VM.
func TestCooldownExpiryReplansCleanTick(t *testing.T) {
	base := mustRun(t, cooldownFleet())
	if len(base.Timeline) == 0 || base.Timeline[0].VM != "small" || base.Timeline[0].Start != 0 {
		t.Fatalf("fixture drift: tick 0 did not drain small (%+v)", base.Timeline)
	}
	cfg := cooldownFleet()
	cfg.Failures = []FailureEvent{{At: base.Timeline[0].End / 2, Kind: FailFlightAbort, VM: "small"}}
	rep := mustRun(t, cfg)

	if len(rep.Aborted) != 1 || len(rep.Ticks) != 6 || rep.Aborted[0].End >= rep.Ticks[1].At {
		t.Fatalf("fixture drift: aborts %+v, ticks %+v; want one abort before the second of 6 ticks", rep.Aborted, rep.Ticks)
	}
	if cool := rep.Ticks[1]; cool.Pinned != 1 || cool.Moves != 0 {
		t.Fatalf("fixture drift: cool-down round %+v, want small pinned and no move", cool)
	}
	next := rep.Ticks[2]
	if next.Pinned != 0 {
		t.Errorf("round after the cool-down: pinned=%d, want 0 (the pin expired)", next.Pinned)
	}
	redispatched := false
	for _, rec := range rep.Timeline {
		redispatched = redispatched || (rec.VM == "small" && rec.Start == next.At)
	}
	if !redispatched {
		t.Errorf("round after the cool-down at %v did not re-dispatch small: timeline %+v, ticks %+v", next.At, rep.Timeline, rep.Ticks)
	}
}

func TestCheckMoveRefusesDownTargets(t *testing.T) {
	cfg := singleMove()
	if _, err := Prepare(cfg); err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	move := TimedMove{VM: "va", From: "h00", To: "h01"}

	e.hostNamed("h01").down = true
	if _, _, err := e.checkMove(move); err == nil || !strings.Contains(err.Error(), "down") {
		t.Errorf("move to a crashed host: err = %v, want a down refusal", err)
	}
	e.hostNamed("h01").down = false

	e.switchState(e.hostNamed("h01").sw).down = true
	if _, _, err := e.checkMove(move); err == nil || !strings.Contains(err.Error(), "switch") {
		t.Errorf("move onto a downed switch: err = %v, want a switch refusal", err)
	}
	// Moving OFF a crashed host stays legal: that is an evacuation.
	e.switchState(e.hostNamed("h01").sw).down = false
	e.hostNamed("h00").down = true
	if _, _, err := e.checkMove(move); err != nil {
		t.Errorf("evacuation off a crashed host refused: %v", err)
	}
}

// TestDispatchTransactional injects a failing kernel under one move of
// a two-move batch: the dispatch must error out without committing any
// engine state — no migrating flags, no reservations, no scheduled
// flights, no consumed dispatch indices.
func TestDispatchTransactional(t *testing.T) {
	cfg := explicitPair(0)
	if _, err := Prepare(cfg); err != nil {
		t.Fatal(err)
	}
	var cache *sim.Cache // nil-receiver-safe: runs uncached
	cfg.simOverride = func(sc sim.Scenario) (*sim.RunResult, error) {
		if strings.Contains(sc.Name, "vb") {
			return nil, errors.New("injected kernel failure")
		}
		return cache.RunCtx(context.Background(), sc)
	}
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.run()
	if err == nil || !strings.Contains(err.Error(), "injected kernel failure") {
		t.Fatalf("run with a failing kernel: err = %v", err)
	}
	// The failed batch moved no guest, so every guest is a resident of
	// a host the accessor returns.
	residents := 0
	for i := range e.hosts {
		h := e.host(int32(i))
		residents += len(h.vms)
		for _, v := range h.vms {
			if v.migrating {
				t.Errorf("VM %s left marked migrating by the failed batch", v.Name)
			}
		}
		if len(h.incoming) != 0 {
			t.Errorf("host %s left with %d incoming reservations", h.Name, len(h.incoming))
		}
	}
	if residents != len(e.guests) {
		t.Errorf("%d of %d guests are residents after the failed batch", residents, len(e.guests))
	}
	if e.nextIdx != 0 || len(e.fail.airborne) != 0 || len(e.timed.fs) != 0 {
		t.Errorf("engine state not rolled back: nextIdx=%d airborne=%d timed=%d",
			e.nextIdx, len(e.fail.airborne), len(e.timed.fs))
	}
	if va := e.guestNamed("va"); va.host.Name != "h00" {
		t.Errorf("va moved to %s despite the failed batch", va.host.Name)
	}
}

// TestPowerTraceIntegral checks the fleet power trace on a known
// timeline: the trace opens on the fleet idle floor, closes back to it,
// drops by the crashed host's floor at a crash, and integrates to
// idle·span + migration energy.
func TestPowerTraceIntegral(t *testing.T) {
	rep := mustRun(t, explicitPair(0))
	// Idle floors come from the validated layout: host name → position.
	l, err := explicitPair(0).validate()
	if err != nil {
		t.Fatal(err)
	}
	var idle float64
	for _, h := range l.hosts {
		idle += float64(h.IdlePower)
	}
	if len(rep.PowerTrace) == 0 {
		t.Fatal("no power trace")
	}
	for i := 1; i < len(rep.PowerTrace); i++ {
		if rep.PowerTrace[i].At <= rep.PowerTrace[i-1].At {
			t.Fatalf("trace breakpoints not strictly increasing: %+v", rep.PowerTrace)
		}
	}
	last := rep.PowerTrace[len(rep.PowerTrace)-1]
	if float64(last.Watts) != idle {
		t.Errorf("trace ends at %v W, want the bare idle floor %v W", last.Watts, idle)
	}
	want := idle*rep.Makespan.Seconds() + float64(rep.TotalEnergy)
	got := float64(rep.FleetEnergy)
	if diff := got - want; diff > 1e-6*want || diff < -1e-6*want {
		t.Errorf("FleetEnergy = %v, want idle·makespan + migrations = %v", got, want)
	}

	// A crash after the makespan: the floor visibly drops by that
	// host's idle power at the crash instant.
	cfg := explicitPair(0)
	crashAt := rep.Makespan + time.Minute
	cfg.Failures = []FailureEvent{{At: crashAt, Kind: FailHostCrash, Host: "h01"}}
	crep := mustRun(t, cfg)
	h01 := float64(l.hosts[l.hostIdx["h01"]].IdlePower)
	clast := crep.PowerTrace[len(crep.PowerTrace)-1]
	if clast.At != crashAt || float64(clast.Watts) != idle-h01 {
		t.Errorf("post-crash floor = %v W at %v, want %v W at %v", clast.Watts, clast.At, idle-h01, crashAt)
	}
}

// TestValidateFailures covers the failure schedule's static checks.
func TestValidateFailures(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
		at   InputError
	}{
		{"negative at", func(c *Config) { c.Failures[0].At = -time.Second }, "before the timeline", at("Failures", 0, -1, "At")},
		{"unknown crash host", func(c *Config) { c.Failures[0].Host = "h99" }, "unknown host", at("Failures", 0, -1, "Host")},
		{"crash without a host", func(c *Config) { c.Failures[0].Host = "" }, "required", at("Failures", 0, -1, "Host")},
		{"two targets", func(c *Config) { c.Failures[0].VM = "va" }, "exactly one", at("Failures", 0, -1, "")},
		{"unknown kind", func(c *Config) { c.Failures[0].Kind = "meteor" }, "unknown kind", at("Failures", 0, -1, "Kind")},
		{"unknown abort vm", func(c *Config) {
			c.Failures[0] = FailureEvent{Kind: FailFlightAbort, VM: "ghost"}
		}, "unknown VM", at("Failures", 0, -1, "VM")},
		{"unknown switch", func(c *Config) {
			c.Failures[0] = FailureEvent{Kind: FailSwitchOutage, Switch: "nope"}
		}, "unknown switch", at("Failures", 0, -1, "Switch")},
		{"double crash", func(c *Config) {
			c.Failures = append(c.Failures, FailureEvent{At: time.Minute, Kind: FailHostCrash, Host: "h01"})
		}, "twice", at("Failures", 1, -1, "Host")},
		{"double outage", func(c *Config) {
			c.Failures = []FailureEvent{
				{Kind: FailSwitchOutage, Switch: "Cisco Catalyst 3750"},
				{At: time.Second, Kind: FailSwitchOutage, Switch: "Cisco Catalyst 3750"},
			}
		}, "twice", at("Failures", 1, -1, "Switch")},
		{"unpaired restore", func(c *Config) {
			c.Failures = []FailureEvent{{Kind: FailSwitchRestore, Switch: "Cisco Catalyst 3750"}}
		}, "not down", at("Failures", 0, -1, "Switch")},
		{"negative deadline", func(c *Config) { c.EvacuationDeadline = -time.Second }, "deadline", at("EvacuationDeadline", -1, -1, "")},
		{"move to crashed host", func(c *Config) {
			c.Failures[0] = FailureEvent{At: time.Second, Kind: FailHostCrash, Host: "h01"}
			c.Moves[0].At = 2 * time.Second
		}, "after it crashes", at("Moves", 0, -1, "To")},
		{"move inside outage", func(c *Config) {
			c.Failures = []FailureEvent{
				{At: time.Second, Kind: FailSwitchOutage, Switch: "Cisco Catalyst 3750"},
				{At: time.Minute, Kind: FailSwitchRestore, Switch: "Cisco Catalyst 3750"},
			}
			c.Moves[0].At = 30 * time.Second
		}, "outage", at("Moves", 0, -1, "At")},
		// The replay of each VM's explicit moves: a move must start where
		// the VM is at its dispatch, or where a failure could have kept it.
		{"first move not from the initial host", func(c *Config) { c.Moves[0].From = "h01"; c.Moves[0].To = "h00" },
			`starts on host "h00", not "h01"`, at("Moves", 0, -1, "From")},
		{"later move not from where the last one landed", func(c *Config) {
			c.Failures = nil
			c.Moves = append(c.Moves, TimedMove{VM: "va", From: "h00", To: "h01", At: time.Hour})
		}, `after moves[0], not "h00"`, at("Moves", 1, -1, "From")},
		{"moves replayed in dispatch order", func(c *Config) {
			c.Failures = nil
			c.Moves = []TimedMove{{VM: "va", From: "h00", To: "h01", At: time.Hour}, {VM: "va", From: "h01", To: "h00"}}
		}, `starts on host "h00"`, at("Moves", 1, -1, "From")},
		{"a failure before the dispatch aborts nothing", func(c *Config) {
			c.Failures[0] = FailureEvent{At: time.Minute, Kind: FailFlightAbort, VM: "va"}
			c.Moves = append(c.Moves, TimedMove{VM: "va", From: "h00", To: "h01", At: time.Minute})
			c.Moves[0].At = time.Minute
			c.Moves[1].At = time.Hour
		}, `after moves[0], not "h00"`, at("Moves", 1, -1, "From")},
	}
	for _, tc := range cases {
		cfg := singleMove()
		cfg.Failures = []FailureEvent{{At: time.Minute, Kind: FailHostCrash, Host: "h01"}}
		tc.mut(&cfg)
		_, err := Prepare(cfg)
		wantRefusal(t, tc.name, err, tc.at, tc.want)
	}
	// After a move a failure could abort, the VM's next move may start
	// where that move began as well as where it ends.
	for _, f := range []FailureEvent{{At: time.Second, Kind: FailFlightAbort, VM: "va"}, {At: time.Second, Kind: FailHostCrash, Host: "h00"}} {
		cfg := singleMove()
		cfg.Failures = []FailureEvent{f}
		cfg.Moves = append(cfg.Moves, TimedMove{VM: "va", From: "h00", To: "h01", At: time.Hour})
		if _, err := Prepare(cfg); err != nil {
			t.Errorf("%s after the first move: a second move from its source refused: %v", f.Kind, err)
		}
	}
	// A move dispatched exactly at the restore instant is legal: outage
	// windows are [outage, restore).
	ok := singleMove()
	ok.Failures = []FailureEvent{
		{At: time.Second, Kind: FailSwitchOutage, Switch: "Cisco Catalyst 3750"},
		{At: time.Minute, Kind: FailSwitchRestore, Switch: "Cisco Catalyst 3750"},
	}
	ok.Moves[0].At = time.Minute
	if _, err := Prepare(ok); err != nil {
		t.Errorf("move at the restore instant refused: %v", err)
	}
}
