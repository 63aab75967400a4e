package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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

// invariantFleets are the 300 seeded random fleets TestReportInvariants
// checks; every other one carries a failure schedule.
func invariantFleets() []Config {
	r := rand.New(rand.NewSource(20261017))
	out := make([]Config, 300)
	for i := range out {
		out[i] = randomFleet(r)
		if i%2 == 1 {
			injectFailures(r, &out[i])
		}
	}
	return out
}

// namedFleet is one randomized fleet, with the name failures report.
type namedFleet struct {
	name string
	cfg  Config
}

// randomFleets names the 22 equivalence fleets and the 300 invariant
// fleets.
func randomFleets() []namedFleet {
	var all []namedFleet
	for i, cfg := range equivalenceFleets() {
		all = append(all, namedFleet{fmt.Sprintf("equivalence fleet %d", i), cfg})
	}
	for i, cfg := range invariantFleets() {
		all = append(all, namedFleet{fmt.Sprintf("invariant fleet %d", i), cfg})
	}
	return all
}

// TestSchedulerEquivalence is the engine's safety net: on randomized
// fleets, the production engine — heap scheduler, incrementally
// maintained policy view, clean-tick plan reuse — and the test-side
// linear-scan reference, which plans every round from a snapshot of its
// own through the classic Plan entry point, must produce bit-identical
// reports (the same MigrationRecord stream, tick records, shifts,
// stretches, energies, aborts and SLO scores) and the same end
// placement. It runs the 22 equivalence fleets and the 300 invariant
// fleets; half of each carry random failure schedules (crashes,
// flight-aborts, outage windows), so an event that fails to dirty a
// host it touched leaves the view stale and the plans diverge here. A
// fleet where planning legitimately fails must fail identically on both.
//
// Every fleet also runs on the production engine with every host built
// before the first event: the report and end placement must equal the
// run that builds only the hosts its events touch, so the end-of-run
// facts that stand in for the untouched hosts (the freed list, the idle
// savings, the power trace's floor) are held to a walk of every host.
func TestSchedulerEquivalence(t *testing.T) {
	all := randomFleets()
	cache := sim.NewCache(0)
	moved, aborted := 0, 0
	for _, f := range all {
		cfg := f.cfg
		if _, err := Prepare(cfg); err != nil {
			t.Fatalf("%s: generator produced an invalid config: %v", f.name, err)
		}
		cfg.Cache = cache
		want, wantAt, errHeap := runPlaced(cfg)
		got, gotAt, errRef := runReference(cfg)
		if (errHeap == nil) != (errRef == nil) || (errHeap != nil && errHeap.Error() != errRef.Error()) {
			t.Fatalf("%s: schedulers disagree on failure:\nproduction: %v\nreference: %v", f.name, errHeap, errRef)
		}
		dense, denseAt, errDense := runDense(cfg)
		if (errHeap == nil) != (errDense == nil) || (errHeap != nil && errHeap.Error() != errDense.Error()) {
			t.Fatalf("%s: sparse and dense runs disagree on failure:\nsparse: %v\ndense: %v", f.name, errHeap, errDense)
		}
		if errHeap != nil {
			continue
		}
		if !reflect.DeepEqual(want, dense) {
			t.Errorf("%s: sparse and dense reports differ:\nsparse: %+v\ndense: %+v", f.name, want, dense)
		}
		if !reflect.DeepEqual(wantAt, denseAt) {
			t.Errorf("%s: sparse and dense end placements differ:\nsparse: %+v\ndense: %+v", f.name, wantAt, denseAt)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s (policy=%v, %d moves, %d failures): production and reference reports differ:\nproduction: %+v\nreference: %+v",
				f.name, cfg.Policy != nil, len(cfg.Moves), len(cfg.Failures), want, got)
		}
		if !reflect.DeepEqual(wantAt, gotAt) {
			t.Errorf("%s: production and reference end placements differ:\nproduction: %+v\nreference: %+v", f.name, wantAt, gotAt)
		}
		if len(want.Timeline) > 0 {
			moved++
		}
		aborted += want.AbortedFlights
	}
	t.Logf("%d fleets: %d migrated, %d flights aborted", len(all), moved, aborted)
	if moved < len(all)/2 {
		t.Fatalf("only %d of %d random fleets migrated anything; generator drift weakens the property", moved, len(all))
	}
	if aborted == 0 {
		t.Fatal("no random failure schedule ever aborted a flight; the abort paths went unexercised")
	}
}

// viewCheck is a view policy that, before it delegates each planning
// round, compares the view the engine hands it with one laid out afresh
// from the engine's host state at that instant.
type viewCheck struct {
	consolidation.ViewPolicy
	e      *engine
	rounds int
	stale  []string
}

func (p *viewCheck) PlanView(v *consolidation.View, cfg consolidation.Config) (*consolidation.Plan, error) {
	p.rounds++
	hosts, _, _ := (&scanEngine{engine: p.e}).snapshot(p.e.now)
	if diff := viewDiff(v, consolidation.NewView(hosts)); diff != "" {
		p.stale = append(p.stale, fmt.Sprintf("t=%v: %s", p.e.now, diff))
	}
	return p.ViewPolicy.PlanView(v, cfg)
}

// viewDiff describes the first difference between two views in what a
// policy reads: each host's name, capacities, Down, Busy, Mem and slot
// list, and Live. It returns "" for views that plan alike.
func viewDiff(got, want *consolidation.View) string {
	if len(got.HostName) != len(want.HostName) {
		return fmt.Sprintf("%d hosts, want %d", len(got.HostName), len(want.HostName))
	}
	for i, name := range want.HostName {
		if got.HostName[i] != name || got.Threads[i] != want.Threads[i] || got.MemCap[i] != want.MemCap[i] ||
			got.IdlePower[i] != want.IdlePower[i] || got.Down[i] != want.Down[i] ||
			got.Busy[i] != want.Busy[i] || got.Mem[i] != want.Mem[i] {
			return fmt.Sprintf("host %d: %s down=%v busy=%v mem=%v, want %s down=%v busy=%v mem=%v",
				i, got.HostName[i], got.Down[i], got.Busy[i], got.Mem[i], name, want.Down[i], want.Busy[i], want.Mem[i])
		}
		if g, w := viewSlots(got, i), viewSlots(want, i); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("host %s: slots %+v, want %+v", name, g, w)
		}
	}
	if !slices.Equal(got.Live, want.Live) {
		return fmt.Sprintf("live order %v, want %v", got.Live, want.Live)
	}
	return ""
}

// viewSlots lists host i's slots of a view.
func viewSlots(v *consolidation.View, i int) []consolidation.VMState {
	s, n := v.VMStart[i], v.VMCount[i]
	out := make([]consolidation.VMState, n)
	for k := range out {
		j := s + int32(k)
		out[k] = consolidation.VMState{Name: v.VMName[j], MemBytes: v.VMMem[j], BusyVCPUs: v.VMBusy[j], DirtyRatio: v.VMDirty[j]}
	}
	return out
}

// TestViewMatchesFreshLayout checks the engine's incrementally
// maintained policy view where the engine plans from it: at every
// planning round of every policy fleet among the equivalence and
// invariant fleets, it must equal a view laid out afresh from the
// engine's host state. A missed dirty mark fails here at the round that
// reads the stale host, even when the plan it yields happens to agree.
// Rounds a clean tick reuses never reach the policy; the equivalence
// test pins that reuse decision.
func TestViewMatchesFreshLayout(t *testing.T) {
	cache := sim.NewCache(0)
	rounds := 0
	for _, f := range randomFleets() {
		if f.cfg.Policy == nil {
			continue
		}
		vc := &viewCheck{ViewPolicy: f.cfg.Policy.(consolidation.ViewPolicy)}
		cfg := f.cfg
		cfg.Policy, cfg.Cache = vc, cache
		e, err := newEngine(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		vc.e = e
		// A fleet whose planning legitimately fails still had its view
		// checked up to the failing round; TestSchedulerEquivalence pins
		// the failure itself.
		_, _ = e.run()
		rounds += vc.rounds
		if len(vc.stale) > 0 {
			t.Errorf("%s: %d of %d planning rounds saw a stale view; first at %s", f.name, len(vc.stale), vc.rounds, vc.stale[0])
		}
	}
	t.Logf("%d planning rounds checked", rounds)
	if rounds == 0 {
		t.Fatal("no planning round reached the policy")
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
}

// TestClusterTickAllocCeiling8k scales the allocation gate to fleet
// size on the struct-of-arrays path: once the view arrays are sized, a
// steady-state incremental tick — mark a few hosts, View.Update rewrites
// them and repairs the sorted orders, rebuild the pinned lists — must
// not allocate at all on the 8,192-host fleet: the order repair sorts
// and binary-searches with slices' generic functions, which box
// nothing, and the engine's fill closure stays on the stack.
func TestClusterTickAllocCeiling8k(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the ceiling")
	}
	e, err := newEngine(sparseFleet(8192))
	if err != nil {
		t.Fatal(err)
	}
	tick := time.Duration(0)
	touch := func() {
		tick += 15 * time.Minute
		for i := 1; i <= 8; i++ {
			e.pview.Mark(int32((i * 997) % len(e.hosts)))
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
		pc := e.cfg.PolicyConfig
		pc.Pinned, pc.Evacuate = e.viewPinnedEvac()
		plan := func() {
			p, err := e.vp.PlanView(e.pview, pc)
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
