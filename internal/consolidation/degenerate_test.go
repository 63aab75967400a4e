package consolidation

import (
	"testing"
	"time"
)

// This file is the degenerate-input matrix for the consolidation
// policies: the shapes a periodic re-planner feeds them that a one-shot
// caller never does — single hosts, already-consolidated clusters, no
// admissible target, and ticks that fire while the previous plan's
// migrations are still in flight.

func policies() []Policy {
	return []Policy{
		EnergyAware{Model: HeuristicCost{}},
		FirstFitDecreasing{Model: HeuristicCost{}},
	}
}

func TestPoliciesSingleHost(t *testing.T) {
	// One host is not a consolidation problem; both policies must refuse
	// loudly rather than return a misleading empty plan.
	single := []HostState{smallDC()[0]}
	for _, p := range policies() {
		if _, err := p.Plan(single, Config{}); err == nil {
			t.Errorf("%s accepted a single-host cluster", p.Name())
		}
	}
}

func TestPoliciesAlreadyConsolidated(t *testing.T) {
	// Everything already packed onto one host: no policy may invent work.
	hosts := []HostState{
		{Name: "packed", Threads: 32, MemBytes: gib(32), IdlePower: 440, VMs: []VMState{
			{Name: "a", MemBytes: gib(4), BusyVCPUs: 8, DirtyRatio: 0.2},
			{Name: "b", MemBytes: gib(4), BusyVCPUs: 6, DirtyRatio: 0.1},
		}},
		{Name: "off1", Threads: 32, MemBytes: gib(32), IdlePower: 440},
		{Name: "off2", Threads: 32, MemBytes: gib(32), IdlePower: 440},
	}
	for _, p := range policies() {
		plan, err := p.Plan(hosts, Config{Horizon: 24 * time.Hour})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(plan.Moves) != 0 {
			t.Errorf("%s planned %d moves on an already-consolidated cluster", p.Name(), len(plan.Moves))
		}
		if len(plan.FreedHosts) != 2 {
			t.Errorf("%s reports freed hosts %v, want the two empty ones", p.Name(), plan.FreedHosts)
		}
	}
}

// oversubscribedDC has every VM demanding more than any host's 0.9 CPU
// cap (7.5 busy of 8 threads, cap 7.2): no VM has an admissible target
// anywhere — not even the bin it came from.
func oversubscribedDC() []HostState {
	mk := func(name, vm string) HostState {
		return HostState{Name: name, Threads: 8, MemBytes: gib(8), IdlePower: 300, VMs: []VMState{
			{Name: vm, MemBytes: gib(4), BusyVCPUs: 7.5, DirtyRatio: 0.3},
		}}
	}
	return []HostState{mk("a", "v1"), mk("b", "v2"), mk("c", "v3")}
}

func TestPoliciesNoAdmissibleTarget(t *testing.T) {
	// The energy-aware policy abandons infeasible drains; FFD's repack
	// places no VM and leaves each on its host. Both plan nothing.
	for _, p := range policies() {
		plan, err := p.Plan(oversubscribedDC(), Config{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(plan.Moves) != 0 || len(plan.FreedHosts) != 0 {
			t.Errorf("%s produced a plan with no admissible targets: %+v", p.Name(), plan)
		}
	}
}

func TestEnergyAwareRespectsPinnedVMs(t *testing.T) {
	// A re-planning tick fires while "cache" (host c) is still migrating:
	// pinning it must stop the policy from draining c, while the rest of
	// the cluster remains fair game.
	cfg := Config{Horizon: 24 * time.Hour, Pinned: []string{"cache"}}
	plan, err := EnergyAware{Model: HeuristicCost{}}.Plan(smallDC(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range plan.Moves {
		if m.VM == "cache" {
			t.Errorf("pinned VM planned to move: %+v", m)
		}
	}
	for _, f := range plan.FreedHosts {
		if f == "c" {
			t.Error("host holding a pinned VM reported as freed")
		}
	}
	// Without the pin the same state drains host c (guards the fixture).
	free, err := EnergyAware{Model: HeuristicCost{}}.Plan(smallDC(), Config{Horizon: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	movedCache := false
	for _, m := range free.Moves {
		movedCache = movedCache || m.VM == "cache"
	}
	if !movedCache {
		t.Error("fixture drift: unpinned state no longer moves the cache VM")
	}
}

func TestFFDRespectsPinnedVMs(t *testing.T) {
	hosts := smallDC()
	cfg := Config{Pinned: []string{"cache", "db"}}
	plan, err := FirstFitDecreasing{Model: HeuristicCost{}}.Plan(hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range plan.Moves {
		if m.VM == "cache" || m.VM == "db" {
			t.Errorf("pinned VM re-packed: %+v", m)
		}
	}
	// Pinned VMs still occupy their bins: with host a's "db" pinned in
	// place, the repack must never overfill host a past its cap.
	state := cloneHosts(hosts)
	for _, m := range plan.Moves {
		vm, ok := removeVM(hostByName(state, m.From), m.VM)
		if !ok {
			t.Fatalf("move %+v references a VM not on its source", m)
		}
		hostByName(state, m.To).VMs = append(hostByName(state, m.To).VMs, vm)
	}
	for _, h := range state {
		if h.BusyThreads() > float64(h.Threads)*0.9+1e-9 {
			t.Errorf("host %s oversubscribed after pinned repack: %v busy", h.Name, h.BusyThreads())
		}
	}
}

func TestPinnedUnknownNamesIgnored(t *testing.T) {
	// Pinning a name that matches nothing (a reservation that never
	// materialised) must not change the outcome.
	base, err := EnergyAware{Model: HeuristicCost{}}.Plan(smallDC(), Config{Horizon: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ghost, err := EnergyAware{Model: HeuristicCost{}}.Plan(smallDC(), Config{Horizon: 24 * time.Hour, Pinned: []string{"no-such-vm"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Moves) != len(ghost.Moves) {
		t.Errorf("ghost pin changed the plan: %d vs %d moves", len(base.Moves), len(ghost.Moves))
	}
}

// TestFFDMaxMovesAccounting: when the move budget truncates the repack,
// the not-yet-processed VMs stay where they are — and the plan's freed-
// host accounting must reflect that, not the fictional full repack.
func TestFFDMaxMovesAccounting(t *testing.T) {
	hosts := []HostState{
		{Name: "a", Threads: 32, MemBytes: gib(32), IdlePower: 400, VMs: []VMState{
			{Name: "v1", MemBytes: gib(4), BusyVCPUs: 8},
		}},
		{Name: "b", Threads: 32, MemBytes: gib(32), IdlePower: 400, VMs: []VMState{
			{Name: "v2", MemBytes: gib(4), BusyVCPUs: 2},
		}},
		{Name: "c", Threads: 32, MemBytes: gib(32), IdlePower: 400, VMs: []VMState{
			{Name: "v3", MemBytes: gib(4), BusyVCPUs: 1},
		}},
	}
	plan, err := FirstFitDecreasing{}.Plan(hosts, Config{MaxMoves: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 1 {
		t.Fatalf("moves = %+v, want exactly 1 under the cap", plan.Moves)
	}
	// Apply the plan; only hosts actually emptied may be reported freed.
	state := cloneHosts(hosts)
	for _, m := range plan.Moves {
		vm, ok := removeVM(hostByName(state, m.From), m.VM)
		if !ok {
			t.Fatalf("move %+v references a VM not on its source", m)
		}
		hostByName(state, m.To).VMs = append(hostByName(state, m.To).VMs, vm)
	}
	for _, f := range plan.FreedHosts {
		if n := len(hostByName(state, f).VMs); n != 0 {
			t.Errorf("host %s reported freed but still runs %d VM(s)", f, n)
		}
	}
}

func TestHeuristicCostOrdering(t *testing.T) {
	// The closed-form model must reproduce the paper's qualitative
	// ordering: dirtier is dearer, busier targets are dearer.
	m := HeuristicCost{}
	clean, _ := m.Cost(VMState{Name: "v", MemBytes: gib(4), DirtyRatio: 0.05}, 0, 0)
	dirty, _ := m.Cost(VMState{Name: "v", MemBytes: gib(4), DirtyRatio: 0.95}, 0, 0)
	if dirty.Energy <= clean.Energy {
		t.Errorf("dirty VM (%v) not dearer than clean (%v)", dirty.Energy, clean.Energy)
	}
	idle, _ := m.Cost(VMState{Name: "v", MemBytes: gib(4), DirtyRatio: 0.5}, 0, 0)
	busy, _ := m.Cost(VMState{Name: "v", MemBytes: gib(4), DirtyRatio: 0.5}, 0, 24)
	if busy.Energy <= idle.Energy || busy.Duration <= idle.Duration {
		t.Errorf("busy target (%v/%v) not dearer than idle (%v/%v)",
			busy.Energy, busy.Duration, idle.Energy, idle.Duration)
	}
}
