package xen

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/units"
	"repro/internal/vm"
)

// Scheduler constants, calibrated against the testbed's dom-0 behaviour.
const (
	// Dom0BaseCPU is the steady CPU use of dom-0 (device backends, xenstore).
	Dom0BaseCPU units.Utilisation = 0.25
	// VMMPerVM is the arbitration overhead per active guest (event
	// channels, grant tables, scheduling).
	VMMPerVM units.Utilisation = 0.08
	// MigrationCPUDemand is what the migration helper process (xc_save /
	// xc_restore running in dom-0) asks for on an endpoint while a
	// migration is in flight. When it receives less than this, the
	// transfer slows proportionally.
	MigrationCPUDemand units.Utilisation = 1.35
)

// Host is one physical machine under Xen.
type Host struct {
	Spec hw.MachineSpec

	// guests holds the resident guests in dense, stable slots: a guest
	// keeps its slot index from Attach until Detach, and freed slots are
	// reused. Slot indices address Allocation.Guests directly, which is
	// what keeps the scheduler's hot path free of map allocations.
	guests []*vm.VM
	// index resolves a guest name to its slot.
	index map[string]int
	// scratch is Schedule's reusable grant buffer (see Schedule).
	scratch []units.Utilisation
	// migActive marks an in-flight migration with this host as an endpoint.
	migActive bool
}

// NewHost boots a hypervisor on the given machine.
func NewHost(spec hw.MachineSpec) (*Host, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Host{Spec: spec, index: make(map[string]int)}, nil
}

// Attach places a guest on this host and assigns it a stable slot index.
// It enforces the memory constraint: the sum of guest allocations plus
// dom-0's reservation must fit in RAM.
func (h *Host) Attach(v *vm.VM) error {
	if v == nil {
		return fmt.Errorf("xen: nil VM")
	}
	if _, dup := h.index[v.Name]; dup {
		return fmt.Errorf("xen: %s already has a guest named %q", h.Spec.Name, v.Name)
	}
	dom0 := vm.Types()[vm.TypeDom0].RAM
	used := dom0 + v.Type.RAM
	for _, g := range h.guests {
		if g != nil {
			used += g.Type.RAM
		}
	}
	if used > h.Spec.RAM {
		return fmt.Errorf("xen: attaching %q would need %v of %v RAM on %s", v.Name, used, h.Spec.RAM, h.Spec.Name)
	}
	slot := -1
	for i, g := range h.guests {
		if g == nil {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = len(h.guests)
		h.guests = append(h.guests, nil)
	}
	h.guests[slot] = v
	h.index[v.Name] = slot
	return nil
}

// Detach removes a guest (after migration or destruction). Its slot is
// recycled for the next Attach.
func (h *Host) Detach(name string) error {
	slot, ok := h.index[name]
	if !ok {
		return fmt.Errorf("xen: no guest %q on %s", name, h.Spec.Name)
	}
	h.guests[slot] = nil
	delete(h.index, name)
	return nil
}

// Guest returns the named guest.
func (h *Host) Guest(name string) (*vm.VM, bool) {
	slot, ok := h.index[name]
	if !ok {
		return nil, false
	}
	return h.guests[slot], true
}

// GuestIndex returns the slot index of the named guest, the key into
// Allocation.Guests. Indices are stable between Attach and Detach.
func (h *Host) GuestIndex(name string) (int, bool) {
	slot, ok := h.index[name]
	return slot, ok
}

// SetMigrationActive marks/unmarks this host as a migration endpoint,
// adding CPUmigr demand and the orchestration power overhead.
func (h *Host) SetMigrationActive(active bool) { h.migActive = active }

// MigrationActive reports endpoint status.
func (h *Host) MigrationActive() bool { return h.migActive }

// activeGuests counts guests currently consuming CPU.
func (h *Host) activeGuests() int {
	n := 0
	for _, g := range h.guests {
		if g != nil && g.Active() {
			n++
		}
	}
	return n
}

// VMMDemand is CPUVMM(V(h,t)): dom-0 plus per-active-guest arbitration.
func (h *Host) VMMDemand() units.Utilisation {
	return Dom0BaseCPU + VMMPerVM*units.Utilisation(h.activeGuests())
}

// Allocation is the outcome of one scheduling decision: how much CPU each
// consumer actually received this instant.
//
// Guests is indexed by the host's guest slot (Host.GuestIndex), not by
// name, and it aliases a scratch buffer owned by the host: the slice is
// valid until the host's next Schedule call. Callers that need to retain
// grants across scheduling decisions must copy them out.
type Allocation struct {
	// VMM is the CPU granted to the hypervisor/dom-0.
	VMM units.Utilisation
	// Guests holds the CPU granted per guest slot.
	Guests []units.Utilisation
	// Migration is the CPU granted to the migration helper.
	Migration units.Utilisation
	// Saturated reports whether demand exceeded capacity (multiplexing).
	Saturated bool
}

// HostCPU returns CPU(h,t) per Eq. 2: everything the host's threads are
// actually doing.
func (a Allocation) HostCPU() units.Utilisation {
	total := a.VMM + a.Migration
	for _, u := range a.Guests {
		total += u
	}
	return total
}

// Guest returns the CPU granted to the guest in the given slot; out-of-
// range slots (detached guests) read as zero.
func (a Allocation) Guest(slot int) units.Utilisation {
	if slot < 0 || slot >= len(a.Guests) {
		return 0
	}
	return a.Guests[slot]
}

// MigrationShare returns granted/demanded for the migration helper; the
// achievable transfer bandwidth scales with it.
func (a Allocation) MigrationShare() float64 {
	if !a.Saturated {
		return 1
	}
	return float64(a.Migration) / float64(MigrationCPUDemand)
}

// Schedule arbitrates the machine's threads among dom-0, guests and the
// migration helper. dom-0 is served first (Xen keeps it responsive);
// guests and the migration helper share the remainder proportionally to
// demand when it does not fit — the proportional-share behaviour of the
// credit scheduler with equal weights.
//
// The returned Allocation's Guests slice reuses a buffer owned by the
// host, so the simulation step loop schedules without allocating; it is
// valid until the next Schedule call on the same host.
func (h *Host) Schedule() Allocation {
	cap := h.Spec.Capacity()
	if len(h.scratch) < len(h.guests) {
		h.scratch = make([]units.Utilisation, len(h.guests))
	}
	grants := h.scratch[:len(h.guests)]
	for i := range grants {
		grants[i] = 0
	}
	alloc := Allocation{Guests: grants}

	vmm := h.VMMDemand().Clamp(cap)
	alloc.VMM = vmm
	remaining := cap - vmm

	var migDemand units.Utilisation
	if h.migActive {
		migDemand = MigrationCPUDemand
	}
	totalDemand := migDemand
	for _, g := range h.guests {
		if g != nil {
			totalDemand += g.Demand()
		}
	}
	if totalDemand <= 0 {
		return alloc
	}
	if totalDemand <= remaining {
		for i, g := range h.guests {
			if g != nil {
				grants[i] = g.Demand()
			}
		}
		alloc.Migration = migDemand
		return alloc
	}
	// Oversubscribed: proportional scaling.
	alloc.Saturated = true
	scale := float64(remaining) / float64(totalDemand)
	for i, g := range h.guests {
		if g != nil {
			grants[i] = units.Utilisation(float64(g.Demand()) * scale)
		}
	}
	alloc.Migration = units.Utilisation(float64(migDemand) * scale)
	return alloc
}

// Step advances all guest dirtying processes by dt seconds using the given
// allocation, and returns the aggregate page-write events issued (guest
// memory traffic for the power model).
func (h *Host) Step(alloc Allocation, dtSeconds float64) int64 {
	var events int64
	for i, g := range h.guests {
		if g == nil || !g.Active() {
			continue
		}
		share := 1.0
		if d := g.Demand(); d > 0 {
			share = float64(alloc.Guest(i)) / float64(d)
		}
		events += g.StepMemory(dtSeconds, share)
	}
	return events
}

// Load assembles the hw.Load of this host for the ground-truth power
// model: scheduled CPU, guest memory traffic (pages/s), network fraction
// supplied by the migration engine, and the endpoint flag.
func (h *Host) Load(alloc Allocation, guestPagesPerSecond float64, netFrac units.Fraction) hw.Load {
	return hw.Load{
		CPU:       alloc.HostCPU(),
		MemGBs:    guestPagesPerSecond * float64(units.PageSize) / 1e9,
		NetFrac:   netFrac,
		MigActive: h.migActive,
	}
}
