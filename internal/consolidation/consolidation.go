package consolidation

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/units"
)

// VMState describes one running VM as the manager sees it.
type VMState struct {
	// Name uniquely identifies the VM in the data centre.
	Name string
	// MemBytes is the VM memory size (what a migration must move).
	MemBytes units.Bytes
	// BusyVCPUs is the VM's CPU demand in busy-vCPU units.
	BusyVCPUs float64
	// DirtyRatio is the VM's steady-state memory dirtying ratio.
	DirtyRatio units.Fraction
}

// Validate rejects malformed VM descriptors.
func (v VMState) Validate() error {
	switch {
	case v.Name == "":
		return errors.New("consolidation: VM has no name")
	case v.MemBytes <= 0:
		return fmt.Errorf("consolidation: VM %s has no memory", v.Name)
	case v.BusyVCPUs < 0:
		return fmt.Errorf("consolidation: VM %s has negative CPU demand", v.Name)
	case v.DirtyRatio < 0 || v.DirtyRatio > 1:
		return fmt.Errorf("consolidation: VM %s dirty ratio %v outside [0,1]", v.Name, v.DirtyRatio)
	}
	return nil
}

// HostState describes one physical host and its resident VMs.
type HostState struct {
	// Name identifies the host.
	Name string
	// Threads is the CPU capacity in hardware threads.
	Threads int
	// MemBytes is the RAM capacity.
	MemBytes units.Bytes
	// IdlePower is what the host draws doing nothing — the saving made by
	// emptying and switching it off.
	IdlePower units.Watts
	// Down marks a crashed host: it must not receive placements, it
	// draws no reclaimable idle power (so emptying it frees nothing),
	// and its residents are evacuation candidates (see Config.Evacuate).
	Down bool
	// VMs are the resident guests.
	VMs []VMState
}

// Validate rejects malformed host descriptors.
func (h HostState) Validate() error {
	switch {
	case h.Name == "":
		return errors.New("consolidation: host has no name")
	case h.Threads <= 0:
		return fmt.Errorf("consolidation: host %s has no CPU", h.Name)
	case h.MemBytes <= 0:
		return fmt.Errorf("consolidation: host %s has no memory", h.Name)
	case h.IdlePower <= 0:
		return fmt.Errorf("consolidation: host %s has no idle power", h.Name)
	}
	seen := map[string]bool{}
	for _, v := range h.VMs {
		if err := v.Validate(); err != nil {
			return err
		}
		if seen[v.Name] {
			return fmt.Errorf("consolidation: duplicate VM %q on host %s", v.Name, h.Name)
		}
		seen[v.Name] = true
	}
	return nil
}

// BusyThreads returns the host's aggregate CPU demand.
func (h HostState) BusyThreads() float64 {
	s := 0.0
	for _, v := range h.VMs {
		s += v.BusyVCPUs
	}
	return s
}

// UsedMem returns the host's aggregate memory allocation.
func (h HostState) UsedMem() units.Bytes {
	var s units.Bytes
	for _, v := range h.VMs {
		s += v.MemBytes
	}
	return s
}

// MigrationCost is what the energy model predicts for one candidate move.
type MigrationCost struct {
	Energy   units.Joules
	Duration time.Duration
}

// CostModel prices a candidate migration. WAVM3's estimator satisfies it
// via a small adapter; tests use stubs.
type CostModel interface {
	// Cost predicts moving vm from src to dst given both hosts' projected
	// CPU loads (excluding the migrating VM itself).
	Cost(vm VMState, srcBusy, dstBusy float64) (MigrationCost, error)
}

// Move is one planned migration.
type Move struct {
	VM   string
	From string
	To   string
	Cost MigrationCost
}

// Plan is the outcome of one consolidation round. The built-in
// policies fill Moves and MigrationEnergy from both entry points; their
// classic Plan alone fills FreedHosts and IdleSavings, and PlanView
// leaves them empty.
type Plan struct {
	// Moves in execution order.
	Moves []Move
	// MigrationEnergy is the total predicted cost of the moves.
	MigrationEnergy units.Joules
	// FreedHosts are the live hosts left empty by the plan (candidates
	// to switch off), in name order.
	FreedHosts []string
	// IdleSavings is the idle power reclaimed by switching freed hosts off.
	IdleSavings units.Watts
}

// Payback returns how long the freed idle power needs to amortise the
// migration energy; zero savings, as on every PlanView plan, yields an
// error.
func (p *Plan) Payback() (time.Duration, error) {
	if p.IdleSavings <= 0 {
		return 0, errors.New("consolidation: plan frees no idle power")
	}
	secs := float64(p.MigrationEnergy) / float64(p.IdleSavings)
	return time.Duration(secs * float64(time.Second)), nil
}

// Config bounds a consolidation round.
type Config struct {
	// CPUCap is the post-consolidation utilisation ceiling per host
	// (default 0.9: never pack a host completely).
	CPUCap float64
	// MaxMoves bounds the number of migrations per round (default: no
	// bound).
	MaxMoves int
	// Horizon is the time over which freed idle power must amortise the
	// migration energy spent to free it (default 1 hour). A drain whose
	// cost exceeds IdlePower×Horizon is not worth doing and is skipped by
	// the energy-aware policy.
	Horizon time.Duration
	// Pinned names VMs that must not move this round. A periodic
	// re-planner sets it to the in-flight migrations (and their
	// destination-side reservations) when a tick fires while the previous
	// plan is still executing: pinned VMs contribute load and occupy
	// capacity wherever they sit, but no policy may plan a move for them.
	// Names that match no VM are ignored, so callers can pin
	// reservations without checking whether they materialised.
	Pinned []string
	// Evacuate names VMs stranded on Down hosts that must be placed
	// before any consolidation work. Policies place them onto live hosts
	// first — largest demand first, names breaking ties — and leave any
	// that cannot be placed this round where they sit (the next round
	// retries). Names that match no VM are ignored.
	Evacuate []string
}

func (c Config) withDefaults() Config {
	if c.CPUCap <= 0 || c.CPUCap > 1 {
		c.CPUCap = 0.9
	}
	if c.Horizon <= 0 {
		c.Horizon = time.Hour
	}
	return c
}

// pinnedSet indexes the pinned VM names.
func (c Config) pinnedSet() map[string]bool {
	if len(c.Pinned) == 0 {
		return nil
	}
	set := make(map[string]bool, len(c.Pinned))
	for _, name := range c.Pinned {
		set[name] = true
	}
	return set
}

// evacuateSet indexes the evacuation VM names.
func (c Config) evacuateSet() map[string]bool {
	if len(c.Evacuate) == 0 {
		return nil
	}
	set := make(map[string]bool, len(c.Evacuate))
	for _, name := range c.Evacuate {
		set[name] = true
	}
	return set
}

// Policy turns a data-centre state into a consolidation plan. Policies
// are re-entrant: a periodic re-planner invokes Plan repeatedly against
// the evolving state, pinning in-flight VMs via Config.Pinned between
// invocations.
type Policy interface {
	Name() string
	Plan(hosts []HostState, cfg Config) (*Plan, error)
}

// validateHosts checks the input state and global VM-name uniqueness.
func validateHosts(hosts []HostState) error {
	if len(hosts) < 2 {
		return errors.New("consolidation: need at least two hosts")
	}
	names := map[string]bool{}
	vms := map[string]bool{}
	for _, h := range hosts {
		if err := h.Validate(); err != nil {
			return err
		}
		if names[h.Name] {
			return fmt.Errorf("consolidation: duplicate host %q", h.Name)
		}
		names[h.Name] = true
		for _, v := range h.VMs {
			if vms[v.Name] {
				return fmt.Errorf("consolidation: VM %q appears on two hosts", v.Name)
			}
			vms[v.Name] = true
		}
	}
	return nil
}

// removeVMSlice detaches a VM from a bare VM list, preserving order.
func removeVMSlice(vms *[]VMState, name string) (VMState, bool) {
	for i, v := range *vms {
		if v.Name == name {
			*vms = append((*vms)[:i], (*vms)[i+1:]...)
			return v, true
		}
	}
	return VMState{}, false
}
