package cluster

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/consolidation"
	"repro/internal/migration"
	"repro/internal/sim"
	"repro/internal/units"
)

// stubCost prices moves the way WAVM3 qualitatively does, for planning.
type stubCost struct{}

func (stubCost) Cost(vm consolidation.VMState, srcBusy, dstBusy float64) (consolidation.MigrationCost, error) {
	gb := float64(vm.MemBytes) / float64(units.GiB)
	expansion := 1 + 2*float64(vm.DirtyRatio)
	slowdown := 1 + dstBusy/32 + srcBusy/64
	return consolidation.MigrationCost{
		Energy:   units.Joules(15_000 * gb * expansion * slowdown),
		Duration: time.Duration(40 * expansion * slowdown * float64(time.Second)),
	}, nil
}

// testDC is a data centre where the two policies make different choices:
// a dirty-memory VM that FFD routes to the busy first-fit host.
func testDC() []consolidation.HostState {
	return []consolidation.HostState{
		{Name: "busy", Threads: 32, MemBytes: gib(64), IdlePower: 440, VMs: []consolidation.VMState{
			{Name: "y", MemBytes: gib(4), BusyVCPUs: 20, DirtyRatio: 0.1},
		}},
		{Name: "calm", Threads: 32, MemBytes: gib(64), IdlePower: 440, VMs: []consolidation.VMState{
			{Name: "x", MemBytes: gib(4), BusyVCPUs: 4, DirtyRatio: 0.1},
		}},
		{Name: "drainme", Threads: 32, MemBytes: gib(64), IdlePower: 440, VMs: []consolidation.VMState{
			{Name: "dirty", MemBytes: gib(4), BusyVCPUs: 2, DirtyRatio: 0.9},
		}},
	}
}

func TestExecutePlanMeasuresMoves(t *testing.T) {
	hosts := testDC()
	plan, err := consolidation.EnergyAware{Model: stubCost{}}.Plan(hosts, consolidation.Config{Horizon: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) == 0 {
		t.Fatal("planning produced no moves")
	}
	ex := Executor{Kind: migration.Live, Seed: 71}
	rep, err := ex.ExecutePlan("energy-aware", plan, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Moves) != len(plan.Moves) {
		t.Fatalf("executed %d of %d moves", len(rep.Moves), len(plan.Moves))
	}
	var sum units.Joules
	for _, m := range rep.Moves {
		if m.MeasuredEnergy <= 0 || m.Duration <= 0 || m.BytesSent <= 0 {
			t.Errorf("move %v has degenerate measurements: %+v", m.Move.VM, m)
		}
		sum += m.MeasuredEnergy
	}
	if sum != rep.Total {
		t.Errorf("total %v != sum of moves %v", rep.Total, sum)
	}
}

// TestEnergyAwareBeatsFFDMeasured is the reproduction's end-to-end claim:
// when both policies' plans are *executed* on the simulated testbed, the
// energy-aware plan's measured migration energy undercuts the
// first-fit-decreasing plan's, provided both free the same hosts.
func TestEnergyAwareBeatsFFDMeasured(t *testing.T) {
	hosts := testDC()
	ea, err := consolidation.EnergyAware{Model: stubCost{}}.Plan(hosts, consolidation.Config{Horizon: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ffd, err := consolidation.FirstFitDecreasing{Model: stubCost{}}.Plan(hosts, consolidation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Precondition for a fair comparison: the dirty VM moves in both plans
	// but to different hosts.
	target := func(p *consolidation.Plan) string {
		for _, m := range p.Moves {
			if m.VM == "dirty" {
				return m.To
			}
		}
		return ""
	}
	if target(ea) == "" || target(ffd) == "" || target(ea) == target(ffd) {
		t.Fatalf("topology no longer separates the policies: ea->%q ffd->%q", target(ea), target(ffd))
	}

	ex := Executor{Kind: migration.Live, Seed: 72}
	eaRep, err := ex.ExecutePlan("energy-aware", ea, hosts)
	if err != nil {
		t.Fatal(err)
	}
	ffdRep, err := ex.ExecutePlan("ffd", ffd, hosts)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the measured cost of moving the dirty VM specifically: the
	// policies chose different targets for it.
	dirtyCost := func(r *ExecutionReport) units.Joules {
		for _, m := range r.Moves {
			if m.Move.VM == "dirty" {
				return m.MeasuredEnergy
			}
		}
		return 0
	}
	eaDirty, ffdDirty := dirtyCost(eaRep), dirtyCost(ffdRep)
	if eaDirty <= 0 || ffdDirty <= 0 {
		t.Fatal("dirty VM move missing from a report")
	}
	if eaDirty >= ffdDirty {
		t.Errorf("measured: energy-aware dirty move %v !< FFD's %v", eaDirty, ffdDirty)
	}
}

// TestExecutePlanValidation has one row per input the executor refuses
// before any kernel runs.
func TestExecutePlanValidation(t *testing.T) {
	ex := Executor{}
	if _, err := ex.ExecutePlan("x", nil, testDC()); err == nil {
		t.Error("nil plan must fail")
	}
	if _, err := ex.ExecutePlan("x", &consolidation.Plan{}, nil); err == nil {
		t.Error("a plan without hosts must fail")
	}
	type moves = []consolidation.Move
	for _, tc := range []struct {
		name  string
		ex    Executor
		hosts func([]consolidation.HostState)
		moves moves
		want  string
	}{
		{name: "unknown VM", moves: moves{{VM: "ghost", From: "busy", To: "calm"}}, want: `unknown VM "ghost"`},
		{name: "unknown source host", moves: moves{{VM: "y", From: "nowhere", To: "calm"}}, want: `unknown host "nowhere"`},
		{name: "unknown target host", moves: moves{{VM: "y", From: "busy", To: "nowhere"}}, want: `unknown host "nowhere"`},
		{name: "VM not on its source at that point in the plan",
			moves: moves{{VM: "y", From: "busy", To: "calm"}, {VM: "y", From: "busy", To: "drainme"}},
			want:  `VM "y" is on host "calm", not "busy"`},
		{name: "same-host move", moves: moves{{VM: "y", From: "busy", To: "busy"}}, want: "does not change hosts"},
		{name: "unnamed host", hosts: func(h []consolidation.HostState) { h[1].Name = "" }, want: "host has no name"},
		{name: "duplicate host", hosts: func(h []consolidation.HostState) { h[1].Name = "busy" }, want: `duplicate host "busy"`},
		{name: "unnamed VM", hosts: func(h []consolidation.HostState) { h[1].VMs[0].Name = "" }, want: "VM with no name"},
		{name: "VM on two hosts", hosts: func(h []consolidation.HostState) { h[1].VMs[0].Name = "y" }, want: `VM "y" appears twice`},
		{name: "VM twice on one host", hosts: func(h []consolidation.HostState) { h[1].VMs = append(h[1].VMs, h[1].VMs[0]) },
			want: `VM "x" appears twice`},
		{name: "negative CPU demand", hosts: func(h []consolidation.HostState) { h[1].VMs[0].BusyVCPUs = -1 }, want: "negative CPU demand"},
		{name: "host without threads", hosts: func(h []consolidation.HostState) { h[1].Threads = 0 }, want: "Hosts[1].Threads: host calm has no CPU"},
		{name: "host without idle power", hosts: func(h []consolidation.HostState) { h[1].IdlePower = 0 }, want: "Hosts[1].IdlePower: host calm has no idle power"},
		{name: "dirty ratio above one", hosts: func(h []consolidation.HostState) { h[1].VMs[0].DirtyRatio = 1.5 },
			want: "Hosts[1].VMs[0].DirtyRatio: VM x dirty ratio 1.5 outside [0,1]"},
		{name: "dirty ratio NaN", hosts: func(h []consolidation.HostState) { h[1].VMs[0].DirtyRatio = units.Fraction(math.NaN()) },
			want: "Hosts[1].VMs[0].DirtyRatio"},
		// Residents that lower to more load VMs than an end of the pair
		// holds: 240 busy vCPUs are 60 load VMs.
		{name: "target piled past the pair", hosts: func(h []consolidation.HostState) { h[1].VMs[0].BusyVCPUs = 240 },
			moves: moves{{VM: "y", From: "busy", To: "calm"}}, want: "Moves[0].To: sim: 60 load VMs do not fit the target host"},
		{name: "source piled past the pair", hosts: func(h []consolidation.HostState) {
			h[1].VMs = append(h[1].VMs, consolidation.VMState{Name: "pile", BusyVCPUs: 240})
		}, moves: moves{{VM: "x", From: "calm", To: "busy"}}, want: "Moves[0].From: sim: 60 load VMs do not fit the source host"},
		{name: "demand past int range", hosts: func(h []consolidation.HostState) { h[1].VMs[0].BusyVCPUs = 1e300 },
			moves: moves{{VM: "y", From: "busy", To: "calm"}}, want: "Moves[0].To: sim: negative load VM count"},
		{name: "unknown pair", ex: Executor{Pair: "m01-nope"}, want: "unknown machine pair"},
		{name: "cross-switch pair", ex: Executor{Pair: "m01/o1"}, want: "cannot migrate"},
		{name: "post-copy", ex: Executor{Kind: migration.PostCopy}, want: "unsupported migration kind"},
	} {
		hosts := testDC()
		if tc.hosts != nil {
			tc.hosts(hosts)
		}
		_, err := tc.ex.ExecutePlan("x", &consolidation.Plan{Moves: tc.moves}, hosts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	// Empty plan executes trivially.
	rep, err := ex.ExecutePlan("x", &consolidation.Plan{}, testDC())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 0 || len(rep.Moves) != 0 {
		t.Error("empty plan must measure nothing")
	}
}

// TestExecutePlanIgnoresHostCapacities pins the executor's contract: it
// measures from host names and VM demands alone, so hosts with the least
// threads and idle power it accepts and no memory must measure
// identically to fully specified hosts.
func TestExecutePlanIgnoresHostCapacities(t *testing.T) {
	bare := []consolidation.HostState{
		{Name: "a", Threads: 1, IdlePower: 1, VMs: []consolidation.VMState{
			{Name: "v", MemBytes: gib(4), BusyVCPUs: 4, DirtyRatio: 0.3},
			// A memory-less bystander: the executor reads only BusyVCPUs
			// and DirtyRatio, so this must not fail the plan.
			{Name: "zeromem", BusyVCPUs: 2},
		}},
		{Name: "b", Threads: 1, IdlePower: 1},
	}
	full := testDC()[:0]
	for _, h := range bare {
		h.Threads, h.MemBytes, h.IdlePower = 32, gib(64), 440
		full = append(full, h)
	}
	plan := &consolidation.Plan{Moves: []consolidation.Move{{VM: "v", From: "a", To: "b"}}}
	ex := Executor{Kind: migration.Live, Seed: 5}
	bareRep, err := ex.ExecutePlan("x", plan, bare)
	if err != nil {
		t.Fatalf("capacity-less hosts rejected: %v", err)
	}
	fullRep, err := ex.ExecutePlan("x", plan, full)
	if err != nil {
		t.Fatal(err)
	}
	if bareRep.Total != fullRep.Total || bareRep.Elapsed != fullRep.Elapsed {
		t.Errorf("capacities leaked into the measurement: %v/%v vs %v/%v",
			bareRep.Total, bareRep.Elapsed, fullRep.Total, fullRep.Elapsed)
	}
}

// TestExecutePlanDeterministicAcrossWorkers pins the executor's
// guarantee: residual-load bookkeeping is derived in plan order before any
// simulation starts, so a parallel execution measures exactly what the
// sequential one did, move for move.
func TestExecutePlanDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	hosts := testDC()
	plan, err := consolidation.EnergyAware{Model: stubCost{}}.Plan(hosts, consolidation.Config{Horizon: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) < 2 {
		t.Fatalf("plan has %d moves; need ≥ 2 for an ordering test", len(plan.Moves))
	}

	seq := Executor{Seed: 9, Workers: 1}
	par := Executor{Seed: 9, Workers: 4}
	repSeq, err := seq.ExecutePlan("energy-aware", plan, hosts)
	if err != nil {
		t.Fatal(err)
	}
	repPar, err := par.ExecutePlan("energy-aware", plan, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repSeq, repPar) {
		t.Fatalf("reports differ between Workers=1 and Workers=4:\nseq: %+v\npar: %+v", repSeq, repPar)
	}
}

// TestExecutePlanCancelled: under a cancelled Ctx, ExecutePlan returns
// context.Canceled before its first kernel run; under a live one it
// measures exactly what it measures without a context.
func TestExecutePlanCancelled(t *testing.T) {
	hosts := testDC()
	plan, err := consolidation.EnergyAware{Model: stubCost{}}.Plan(hosts, consolidation.Config{Horizon: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cache := sim.NewCache(0)
	ex := Executor{Kind: migration.Live, Seed: 71, Cache: cache, Ctx: ctx}
	if rep, err := ex.ExecutePlan("energy-aware", plan, hosts); !errors.Is(err, context.Canceled) || rep != nil {
		t.Fatalf("cancelled ExecutePlan = %v, %v; want nil, context.Canceled", rep, err)
	}
	if n := cache.Snapshot().KernelRuns; n != 0 {
		t.Errorf("cancelled ExecutePlan ran %d kernels, want 0", n)
	}
	ex.Ctx = context.Background()
	live, err := ex.ExecutePlan("energy-aware", plan, hosts)
	if err != nil {
		t.Fatal(err)
	}
	ex.Ctx = nil
	bare, err := ex.ExecutePlan("energy-aware", plan, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, bare) {
		t.Errorf("a live context changed the report:\nctx: %+v\nnil: %+v", live, bare)
	}
}
