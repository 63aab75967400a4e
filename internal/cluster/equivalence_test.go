package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/consolidation"
	"repro/internal/migration"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// randomFleet builds a seeded random — but always valid — cluster
// timeline: single-switch machine mix, phased guests, and either an
// explicit concurrent move schedule or a periodic policy. Dirty ratios
// stay low so every lowered migration is a cheap CPU-type kernel run.
func randomFleet(r *rand.Rand) Config {
	machines := []string{"m01", "m02", "h1"} // all on one switch
	n := 4 + r.Intn(9)
	hosts := make([]Host, n)
	type placed struct{ vm, host string }
	var guests []placed
	for i := range hosts {
		name := fmt.Sprintf("rh%02d", i)
		hosts[i] = Host{Name: name, Machine: machines[r.Intn(len(machines))]}
		for v := 0; v < r.Intn(3); v++ {
			vm := VM{
				Name:       fmt.Sprintf("rv%02d-%d", i, v),
				MemBytes:   gib(2 + float64(r.Intn(3))),
				BusyVCPUs:  1 + float64(r.Intn(10)),
				DirtyRatio: units.Fraction(0.08 * r.Float64()),
			}
			for p := 0; p < r.Intn(3); p++ {
				kinds := workload.PhaseKinds()
				vm.Phases = append(vm.Phases, workload.Phase{
					Kind:     kinds[r.Intn(len(kinds))],
					Duration: time.Duration(30+r.Intn(270)) * time.Second,
					Level:    0.3 + r.Float64(),
					Peak:     0.5 + 1.5*r.Float64(),
				})
			}
			hosts[i].VMs = append(hosts[i].VMs, vm)
			guests = append(guests, placed{vm.Name, name})
		}
	}
	cfg := Config{
		Kind:  migration.Live,
		Hosts: hosts,
		Seed:  r.Int63n(1 << 32),
	}
	if len(guests) >= 2 && r.Intn(3) == 0 {
		// Policy variant: periodic re-planning over the random fleet.
		if r.Intn(2) == 0 {
			cfg.Policy = consolidation.EnergyAware{Model: consolidation.HeuristicCost{}}
		} else {
			cfg.Policy = consolidation.FirstFitDecreasing{Model: consolidation.HeuristicCost{}}
		}
		cfg.PolicyConfig = consolidation.Config{Horizon: 24 * time.Hour, MaxMoves: 1 + r.Intn(4)}
		cfg.Tick = time.Duration(30+r.Intn(60)) * time.Second
		cfg.Horizon = time.Duration(2+r.Intn(3)) * time.Minute
		return cfg
	}
	// Explicit variant: a random subset of guests each moves once, at a
	// random instant; same-instant moves contend on the shared switch.
	for _, g := range guests {
		if r.Intn(2) == 1 {
			continue
		}
		to := g.host
		for to == g.host {
			to = hosts[r.Intn(n)].Name
		}
		cfg.Moves = append(cfg.Moves, TimedMove{
			VM: g.vm, From: g.host, To: to,
			At: time.Duration(r.Intn(4800)) * 50 * time.Millisecond,
		})
	}
	if len(cfg.Moves) == 0 && len(guests) > 0 {
		g := guests[0]
		to := g.host
		for to == g.host {
			to = hosts[r.Intn(n)].Name
		}
		cfg.Moves = append(cfg.Moves, TimedMove{VM: g.vm, From: g.host, To: to})
	}
	return cfg
}

// injectFailures adds a random failure schedule to a generated fleet:
// 1–2 host crashes and up to 2 flight-aborts always, plus an outage
// window on explicit variants (policies plan moves during outages,
// which the engine refuses by design — outage fleets stay explicit).
// Explicit moves are repaired where the schedule statically dooms them:
// moves into a crashed host are dropped, moves inside an outage window
// slip to the restore instant.
func injectFailures(r *rand.Rand, cfg *Config) {
	horizon := cfg.Horizon
	if horizon == 0 {
		for _, m := range cfg.Moves {
			if m.At > horizon {
				horizon = m.At
			}
		}
		horizon += 4 * time.Minute
	}
	var vms []string
	for _, h := range cfg.Hosts {
		for _, v := range h.VMs {
			vms = append(vms, v.Name)
		}
	}
	perm := r.Perm(len(cfg.Hosts))
	for k := 0; k < 1+r.Intn(2) && k < len(perm); k++ {
		host := cfg.Hosts[perm[k]].Name
		at := time.Duration(r.Int63n(int64(horizon)))
		cfg.Failures = append(cfg.Failures, FailureEvent{At: at, Kind: FailHostCrash, Host: host})
		kept := cfg.Moves[:0]
		for _, m := range cfg.Moves {
			if m.To == host && m.At >= at {
				continue
			}
			kept = append(kept, m)
		}
		cfg.Moves = kept
	}
	for k := r.Intn(3); k > 0 && len(vms) > 0; k-- {
		cfg.Failures = append(cfg.Failures, FailureEvent{
			At:   time.Duration(r.Int63n(int64(horizon))),
			Kind: FailFlightAbort,
			VM:   vms[r.Intn(len(vms))],
		})
	}
	if cfg.Policy == nil && r.Intn(2) == 0 {
		// All generator machines share one switch domain.
		const sw = "Cisco Catalyst 3750"
		a := time.Duration(r.Int63n(int64(horizon)))
		b := a + time.Duration(10+r.Intn(50))*time.Second
		cfg.Failures = append(cfg.Failures,
			FailureEvent{At: a, Kind: FailSwitchOutage, Switch: sw},
			FailureEvent{At: b, Kind: FailSwitchRestore, Switch: sw},
		)
		for i := range cfg.Moves {
			if cfg.Moves[i].At >= a && cfg.Moves[i].At < b {
				cfg.Moves[i].At = b
			}
		}
	}
}

// equivalenceFleets are the 22 seeded random fleets the scheduler
// equivalence property runs; the last 12 carry failure schedules.
func equivalenceFleets() []Config {
	r := rand.New(rand.NewSource(20260728))
	out := make([]Config, 22)
	for i := range out {
		out[i] = randomFleet(r)
		if i >= 10 {
			injectFailures(r, &out[i])
		}
	}
	return out
}

// TestSchedulerEquivalence is the tentpole's safety net: on randomized
// fleets, the heap scheduler with its incrementally maintained dirty-set
// policy view, the property-tested full-rebuild fallback (the same view
// planner, reconstructed from scratch every round), and the retained
// linear-scan reference (AoS snapshots through the classic Plan entry
// point) must produce bit-identical reports — the same MigrationRecord
// stream, tick records, shifts, stretches, energies, aborts and SLO
// scores. The second half of the fleets inject random failure schedules
// (crashes, flight-aborts, outage windows), so the equivalence covers
// the abort paths too — crash, abort and outage events must dirty
// exactly the hosts they touch, or the incremental view diverges from
// the rebuilt one here. A fleet where planning legitimately fails must
// fail identically on every path.
func TestSchedulerEquivalence(t *testing.T) {
	cache := sim.NewCache(0)
	fleets, aborted := 0, 0
	for i, cfg := range equivalenceFleets() {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fleet %d: generator produced an invalid config: %v", i, err)
		}
		fast := cfg
		fast.Cache = cache
		want, errFast := Run(fast)
		rebuild := cfg
		rebuild.Cache = cache
		rebuild.fullRebuild = true
		full, errFull := Run(rebuild)
		ref := cfg
		ref.Cache = cache
		got, errRef := runReference(ref)
		if (errFast == nil) != (errRef == nil) || (errFast == nil) != (errFull == nil) ||
			(errFast != nil && (errFast.Error() != errRef.Error() || errFast.Error() != errFull.Error())) {
			t.Fatalf("fleet %d: schedulers disagree on failure:\ndirty-set: %v\nrebuild: %v\nscan: %v", i, errFast, errFull, errRef)
		}
		if errFast != nil {
			continue
		}
		if !reflect.DeepEqual(want, full) {
			t.Errorf("fleet %d (policy=%v, %d moves, %d failures): dirty-set and full-rebuild reports differ:\ndirty-set: %+v\nrebuild: %+v",
				i, cfg.Policy != nil, len(cfg.Moves), len(cfg.Failures), want, full)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("fleet %d (policy=%v, %d moves, %d failures): heap and linear-scan reports differ:\nheap: %+v\nscan: %+v",
				i, cfg.Policy != nil, len(cfg.Moves), len(cfg.Failures), want, got)
		}
		if len(want.Timeline) > 0 {
			fleets++
		}
		aborted += want.AbortedFlights
	}
	if fleets < 10 {
		t.Fatalf("only %d of 22 random fleets migrated anything; generator drift weakens the property", fleets)
	}
	if aborted == 0 {
		t.Fatal("no random failure schedule ever aborted a flight; the abort paths went unexercised")
	}
}

// TestFleetSummaryFields checks the report's fleet-scale aggregates on
// a timeline with known structure: two same-instant moves on one
// switch give peak 2 and a stretch near 2; the policy fixture reports
// its rounds.
func TestFleetSummaryFields(t *testing.T) {
	rep, err := Run(explicitPair(0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakFlights != 2 {
		t.Errorf("PeakFlights = %d, want 2 (both moves dispatch at t=0)", rep.PeakFlights)
	}
	if rep.MaxStretch <= 1.5 {
		t.Errorf("MaxStretch = %v, want ≈2 under a shared link", rep.MaxStretch)
	}
	if rep.ReplanRounds != 0 {
		t.Errorf("ReplanRounds = %d on an explicit timeline, want 0", rep.ReplanRounds)
	}

	pol, err := Run(policyFleet())
	if err != nil {
		t.Fatal(err)
	}
	if pol.ReplanRounds != len(pol.Ticks) || pol.ReplanRounds == 0 {
		t.Errorf("ReplanRounds = %d, want len(Ticks) = %d (non-zero)", pol.ReplanRounds, len(pol.Ticks))
	}
	if pol.PeakFlights <= 0 {
		t.Errorf("PeakFlights = %d on a consolidating timeline, want > 0", pol.PeakFlights)
	}
	if pol.MaxStretch < 1 {
		t.Errorf("MaxStretch = %v, want >= 1", pol.MaxStretch)
	}

	// Serial timelines run one migration at a time by construction.
	serial := Config{
		Kind: migration.Live,
		Pair: "m01-m02",
		Hosts: fleet("m01",
			[]VM{vmSpec("va", 4, 0.1)},
			nil,
		),
		Moves:  []TimedMove{{VM: "va", From: "h00", To: "h01"}},
		Serial: true,
		Seed:   9,
	}
	srep, err := Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	if srep.PeakFlights != 1 {
		t.Errorf("serial PeakFlights = %d, want 1", srep.PeakFlights)
	}
}

// TestClusterTickAllocCeiling is the tick-path allocation-regression
// gate: once the engine's scratch buffers are sized, rendering a policy
// snapshot — the per-round O(H) hot path — must not allocate, even with
// pinned in-flight guests and destination reservations in the picture.
func TestClusterTickAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the ceiling")
	}
	cfg := policyFleet()
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Exercise the pinned paths: one guest in the air with its
	// destination reservation.
	mover := e.hosts[0].vms[0]
	mover.migrating = true
	dst := e.hosts[3]
	dst.incoming = append(dst.incoming, &flight{vm: mover, resName: mover.Name + "+incoming"})
	e.snapshot(0) // size the scratch buffers
	tick := time.Duration(0)
	const ceiling = 0
	allocs := testing.AllocsPerRun(50, func() {
		tick += 30 * time.Minute
		e.snapshot(tick)
	})
	if allocs > ceiling {
		t.Errorf("snapshot allocates %.0f times per policy round, ceiling is %d", allocs, ceiling)
	}
}

// TestClusterTickAllocCeiling8k scales the allocation gate to fleet
// size on the struct-of-arrays path: once the view arrays are sized, a
// steady-state incremental tick — refresh a few dirty hosts, repair the
// sorted order, rebuild the pinned lists — must not allocate at all on
// the 8,192-host fleet: the order repair sorts and binary-searches with
// slices' generic functions, which box nothing.
func TestClusterTickAllocCeiling8k(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the ceiling")
	}
	e, err := newEngine(sparseFleet(8192))
	if err != nil {
		t.Fatal(err)
	}
	if !e.viewOn {
		t.Fatal("sparse fixture did not enable the incremental view")
	}
	tick := time.Duration(0)
	touch := func() {
		tick += 15 * time.Minute
		for i := 1; i <= 8; i++ {
			e.markHostDirty(e.hosts[(i*997)%len(e.hosts)])
		}
		if !e.viewTick(tick) {
			t.Fatal("a dirty tick reported itself clean")
		}
		e.viewPinnedEvac()
	}
	touch() // size the scratch buffers
	const ceiling = 0
	allocs := testing.AllocsPerRun(50, touch)
	if allocs > ceiling {
		t.Errorf("steady-state view tick allocates %.0f times, ceiling is %d", allocs, ceiling)
	}
}

// TestPlanViewAllocBytes closes the allocation gate's blind spot: the
// tick ceilings above stop before the planner, and AllocsPerRun counts
// allocations rather than bytes, so a per-call make([]float64, hosts)
// passes them. Once the engine's persistent view has planned once, one
// PlanView call on it must allocate under one fixed byte ceiling at
// 8,192 and at 65,536 hosts alike: nothing proportional to the fleet.
// Every byte counts, the plan's own output included: a view plan
// carries no freed-host list.
func TestPlanViewAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the ceiling")
	}
	const ceiling = 32 << 10 // bytes per call
	for _, n := range []int{8192, 65536} {
		e, err := newEngine(sparseFleet(n))
		if err != nil {
			t.Fatal(err)
		}
		if !e.viewOn {
			t.Fatal("sparse fixture did not enable the incremental view")
		}
		pc := e.cfg.PolicyConfig
		pc.Pinned, pc.Evacuate = e.viewPinnedEvac()
		plan := func() {
			p, err := e.vp.PlanView(&e.pview, pc)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Moves) == 0 {
				t.Fatalf("fixture drift: the %d-host round plans nothing", n)
			}
		}
		plan() // the view's first plan sizes its workspace
		const calls = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			plan()
		}
		runtime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / calls
		t.Logf("%d hosts: %d bytes per PlanView call", n, perCall)
		if perCall > ceiling {
			t.Errorf("%d hosts: PlanView allocates %d bytes per call, ceiling is %d", n, perCall, ceiling)
		}
	}
}
