// Package vm models the paravirtualised guests of the paper's testbed:
// the instance types of Table IIb, their runtime lifecycle (running,
// suspended, migrating) and their resource demand as seen by the
// hypervisor scheduler.
package vm

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/units"
)

// State is the lifecycle state of a VM.
type State int

// VM lifecycle states.
const (
	StateStopped State = iota
	StateRunning
	StateSuspended
	StateMigrating // running under log-dirty mode while being live-migrated
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateStopped:
		return "stopped"
	case StateRunning:
		return "running"
	case StateSuspended:
		return "suspended"
	case StateMigrating:
		return "migrating"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// InstanceType is a VM template from Table IIb.
type InstanceType struct {
	// ID is the table's identifier (load-cpu, migrating-cpu, …).
	ID string
	// VCPUs is the number of virtual CPUs.
	VCPUs int
	// Kernel is the guest Linux kernel version (informational).
	Kernel string
	// RAM is the allocated memory.
	RAM units.Bytes
	// Workload names the benchmark the instance runs.
	Workload string
	// Storage is the disk image size (shared NFS; not transferred during
	// migration, which is why only RAM state moves).
	Storage units.Bytes
}

// Instance type identifiers from Table IIb.
const (
	TypeLoadCPU      = "load-cpu"
	TypeMigratingCPU = "migrating-cpu"
	TypeMigratingMem = "migrating-mem"
	TypeDom0         = "dom-0"
)

// Types returns the instance catalog of Table IIb keyed by ID.
func Types() map[string]InstanceType {
	return map[string]InstanceType{
		TypeLoadCPU: {
			ID: TypeLoadCPU, VCPUs: 4, Kernel: "2.6.32",
			RAM: 512 * units.MiB, Workload: "matrixmult", Storage: 1 * units.GiB,
		},
		TypeMigratingCPU: {
			ID: TypeMigratingCPU, VCPUs: 4, Kernel: "2.6.32",
			RAM: 4 * units.GiB, Workload: "matrixmult", Storage: 6 * units.GiB,
		},
		TypeMigratingMem: {
			ID: TypeMigratingMem, VCPUs: 1, Kernel: "2.6.32",
			RAM: 4 * units.GiB, Workload: "pagedirtier", Storage: 6 * units.GiB,
		},
		TypeDom0: {
			ID: TypeDom0, VCPUs: 1, Kernel: "3.11.4",
			RAM: 512 * units.MiB, Workload: "VMM", Storage: 115 * units.GiB,
		},
	}
}

// Lookup returns the instance type with the given ID.
func Lookup(id string) (InstanceType, error) {
	t, ok := Types()[id]
	if !ok {
		return InstanceType{}, fmt.Errorf("vm: unknown instance type %q", id)
	}
	return t, nil
}

// VM is a live guest: an instance type plus runtime state.
type VM struct {
	// Name uniquely identifies the guest on its host.
	Name string
	// Type is the template the guest was created from.
	Type InstanceType
	// Memory is the page-granular memory image (nil until started).
	Memory *mem.Image

	state State
	// demand is the CPU the guest currently asks for, in busy-vCPU units;
	// it is capped by the vCPU count.
	demand units.Utilisation
	// dirtier drives page writes while the guest runs.
	dirtier mem.Dirtier
}

// New creates a stopped VM of the given type.
func New(name string, t InstanceType) (*VM, error) {
	if name == "" {
		return nil, fmt.Errorf("vm: empty name")
	}
	if t.VCPUs <= 0 || t.RAM <= 0 {
		return nil, fmt.Errorf("vm: instance type %q has no resources", t.ID)
	}
	return &VM{Name: name, Type: t, dirtier: mem.NoDirtier{}}, nil
}

// Start allocates the memory image and moves the VM to running.
func (v *VM) Start() error {
	if v.state != StateStopped {
		return fmt.Errorf("vm: %s cannot start from %v", v.Name, v.state)
	}
	im, err := mem.NewImage(v.Type.RAM)
	if err != nil {
		return err
	}
	v.Memory = im
	v.state = StateRunning
	return nil
}

// Suspend pauses the VM: its CPU demand and dirtying stop immediately,
// exactly the behaviour the paper exploits in non-live migration and in the
// final stop-and-copy round of live migration.
func (v *VM) Suspend() error {
	if v.state != StateRunning && v.state != StateMigrating {
		return fmt.Errorf("vm: %s cannot suspend from %v", v.Name, v.state)
	}
	v.state = StateSuspended
	return nil
}

// Resume returns a suspended VM to running.
func (v *VM) Resume() error {
	if v.state != StateSuspended {
		return fmt.Errorf("vm: %s cannot resume from %v", v.Name, v.state)
	}
	v.state = StateRunning
	return nil
}

// BeginMigration flips a running VM into log-dirty migrating mode.
func (v *VM) BeginMigration() error {
	if v.state != StateRunning {
		return fmt.Errorf("vm: %s cannot begin migration from %v", v.Name, v.state)
	}
	v.state = StateMigrating
	return nil
}

// EndMigration returns a migrating VM to plain running (e.g. after an
// aborted migration on the source, or activation on the target).
func (v *VM) EndMigration() error {
	if v.state != StateMigrating && v.state != StateSuspended {
		return fmt.Errorf("vm: %s cannot end migration from %v", v.Name, v.state)
	}
	v.state = StateRunning
	return nil
}

// State returns the lifecycle state.
func (v *VM) State() State { return v.state }

// Active reports whether the guest is consuming CPU (running or in
// log-dirty migrating mode; suspended guests consume nothing — the paper's
// "if the VM is idle or suspended, then CPU(v,t)=0 and DR(v,t)=0").
func (v *VM) Active() bool { return v.state == StateRunning || v.state == StateMigrating }

// SetDemand sets the guest's CPU demand, clamped to its vCPU count.
func (v *VM) SetDemand(d units.Utilisation) {
	v.demand = d.Clamp(units.Utilisation(v.Type.VCPUs))
}

// Demand returns CPU demand as the scheduler sees it: the configured demand
// while active, zero otherwise.
func (v *VM) Demand() units.Utilisation {
	if !v.Active() {
		return 0
	}
	return v.demand
}

// SetDirtier installs the page-dirtying behaviour of the guest workload.
func (v *VM) SetDirtier(d mem.Dirtier) {
	if d == nil {
		d = mem.NoDirtier{}
	}
	v.dirtier = d
}

// StepMemory advances the guest's dirtying process by dt seconds, scaled by
// the CPU share it actually received (a starved guest dirties slower). It
// returns the number of page-write events issued.
func (v *VM) StepMemory(dtSeconds, cpuShare float64) int64 {
	if !v.Active() || v.Memory == nil || cpuShare <= 0 {
		return 0
	}
	if cpuShare > 1 {
		cpuShare = 1
	}
	return v.dirtier.Step(v.Memory, dtSeconds*cpuShare)
}

// DirtyRatio returns DR(v,t): zero when suspended/stopped per Section IV-B.
func (v *VM) DirtyRatio() units.Fraction {
	if !v.Active() || v.Memory == nil {
		return 0
	}
	return v.Memory.DirtyRatio()
}
