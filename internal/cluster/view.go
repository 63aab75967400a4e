package cluster

import (
	"sort"
	"time"

	"repro/internal/consolidation"
)

// This file keeps the engine's persistent consolidation.View — the
// struct-of-arrays policy input, the engine's only planning path —
// current under events, so a planning round at fleet scale touches only
// the hosts events changed since the last tick. A run starts from its
// layout's t=0 view, which the first run of the layout that plans
// builds and every later run shares: from the view a finished run of
// the layout handed back, rewound to it (View.Rewind), or else from a
// View.Clone of it. The view keeps its own invariants (see
// consolidation.View); the engine decides what to mark.
//
// Marking rules (property-tested against the test-side linear-scan
// reference, which plans every round from a snapshot of its own through
// the policy's classic Plan; see TestSchedulerEquivalence and
// TestViewMatchesFreshLayout):
//
//   - Every event that changes a host's slot membership or demand marks
//     it: dispatch commit (destination gains a reservation), land
//     (source loses the guest, destination converts its reservation),
//     abort (destination loses the reservation), crash (Down flips).
//   - Hosts with phase-driven residents or reservations have
//     continuously varying demand; they are re-marked every tick, which
//     also covers every phase-transition event.

// markHostVarying registers a host as holding phase-driven demand; it
// is re-marked every tick until its phased population drops to zero.
func (e *engine) markHostVarying(h *hostRT) {
	if !h.varyMark {
		h.varyMark = true
		e.varying = append(e.varying, h.vi)
	}
}

// initialView returns the layout's t=0 policy view, built by the first
// caller. It is a pure function of the layout, so every run of the
// layout may start from it; none writes to it.
func (l *layout) initialView() *consolidation.View {
	l.viewOnce.Do(func() { l.view = l.buildView() })
	return l.view
}

// takeView returns a view at the layout's t=0 state for a new run that
// plans, which owns it until it finishes: the view a finished run handed
// back, rewound, when the layout keeps one, and otherwise a copy of the
// t=0 view. Taking is atomic, so no two live runs share a view.
func (l *layout) takeView() *consolidation.View {
	base := l.initialView()
	if v := l.spare.Swap(nil); v != nil {
		v.Rewind(base)
		return v
	}
	v := base.Clone()
	return &v
}

// keepView takes back the view of a run that finished, for the next run
// to rewind, unless the layout keeps one already. A run that fails
// hands nothing back.
func (l *layout) keepView(v *consolidation.View) {
	l.spare.CompareAndSwap(nil, v)
}

// buildView lays the layout out as a policy view at time 0: every host
// holds only its initial residents, and no host is down.
func (l *layout) buildView() *consolidation.View {
	// The hosts are name-sorted (layout.order), so index order is name
	// order — the precondition for the policies' order-indexed target
	// scan.
	v := &consolidation.View{NameOrdered: true}
	v.Grow(len(l.hosts), l.nvms)
	var vms []consolidation.VMState
	for _, h := range l.hosts {
		vms = vms[:0]
		for _, g := range h.VMs {
			vms = append(vms, consolidation.VMState{Name: g.Name, MemBytes: g.MemBytes, BusyVCPUs: g.busyAt(0), DirtyRatio: g.dirtyAt(0)})
		}
		v.AppendHost(consolidation.HostState{Name: h.Name, Threads: h.Threads, MemBytes: h.MemBytes, IdlePower: h.IdlePower, VMs: vms})
	}
	v.SortOrder()
	return v
}

// viewTick folds the varying set into the view's marks and updates the
// marked hosts at time t: each lists its residents in name order, then
// its reservations in dispatch order. It reports whether any host was
// marked — a clean tick's view (and therefore its plan) is identical to
// the last one.
func (e *engine) viewTick(t time.Duration) bool {
	// Varying hosts (phased residents or phased reservations) update
	// every tick; hosts whose phased population dropped to zero leave
	// the set here.
	keep := e.varying[:0]
	for _, vi := range e.varying {
		h := e.hosts[vi]
		if h.phasedRes+h.phasedInc == 0 {
			h.varyMark = false
			continue
		}
		keep = append(keep, vi)
		e.pview.Mark(vi)
	}
	e.varying = keep
	return e.pview.Update(func(i int32, dst []consolidation.VMState) ([]consolidation.VMState, bool) {
		h := e.host(i)
		for _, g := range h.vms {
			dst = append(dst, consolidation.VMState{Name: g.Name, MemBytes: g.MemBytes, BusyVCPUs: g.busyAt(t), DirtyRatio: g.dirtyAt(t)})
		}
		for _, f := range h.incoming {
			dst = append(dst, consolidation.VMState{Name: f.resName, MemBytes: f.vm.MemBytes, BusyVCPUs: f.vm.busyAt(t), DirtyRatio: f.vm.dirtyAt(t)})
		}
		return dst, h.down
	})
}

// viewPinnedEvac derives the pinned and evacuation name lists from the
// flight and failure state, without a pass over the hosts: airborne
// movers and their reservations plus post-abort cool-downs are pinned;
// non-migrating residents of crashed hosts are evacuees. The sorted
// lists equal those the test-side reference's snapshot assembles host
// by host (abort cool-downs only ever name VMs on live hosts —
// crashHost clears its residents' repins).
func (e *engine) viewPinnedEvac() (pinned, evacuate []string) {
	e.pinned = e.pinned[:0]
	e.evacuate = e.evacuate[:0]
	for _, f := range e.fail.airborne {
		e.pinned = append(e.pinned, f.vm.Name, f.resName)
	}
	for name := range e.fail.repin {
		e.pinned = append(e.pinned, name)
	}
	for _, h := range e.downHosts {
		for _, g := range h.vms {
			if !g.migrating {
				e.evacuate = append(e.evacuate, g.Name)
			}
		}
	}
	sort.Strings(e.pinned)
	sort.Strings(e.evacuate)
	return e.pinned, e.evacuate
}
