package cluster

import (
	"slices"
	"sort"
	"time"

	"repro/internal/consolidation"
	"repro/internal/units"
)

// This file maintains the engine's persistent consolidation.View — the
// struct-of-arrays policy input, the engine's only planning path — kept
// current under an event-driven dirty set, so a planning round at fleet
// scale touches only the hosts events actually changed since the last
// tick. A run starts from a copy of its layout's t=0 view, which the
// first run of the layout that plans builds and every later run shares.
//
// Invariants (property-tested against the test-side linear-scan
// reference, which plans every round from a snapshot of its own through
// the policy's classic Plan; see TestSchedulerEquivalence):
//
//   - Every event that changes a host's slot membership or demand marks
//     it dirty: dispatch commit (destination gains a reservation), land
//     (source loses the guest, destination converts its reservation),
//     abort (destination loses the reservation), crash (Down flips).
//   - Hosts with phase-driven residents or reservations have
//     continuously varying demand; they are re-marked every tick, which
//     also covers every phase-transition event.
//   - A refreshed host re-sums its aggregates in slot order (never
//     incremental subtraction), so clean hosts' cached sums are
//     bit-identical to laying the host out afresh at the same instant.
//   - Order repair locates each dirty host in Order by binary search
//     under the loads Order was sorted by, before any refresh changes
//     them. The clean entries between those positions keep their keys,
//     so they stay sorted; Order is rebuilt from bulk copies of those
//     runs, with each refreshed host inserted at its binary-searched
//     position by its new (busy, name) key. Host names are unique, so
//     (busy, name) is a unique total order and the merge reproduces a
//     full sort exactly. Every ordering goes through the view's one
//     comparator, consolidation.View.CompareHosts; the engine's hosts
//     are name-sorted, so it breaks busy ties by index.
//   - Live, Order's subsequence of live hosts, is repaired by the same
//     merge: a dirty host leaves it at its binary-searched position if
//     it was live before its refresh, and enters it if it is live after.
//     Only a refresh changes whether a host is live, so the clean
//     entries of Live stay exactly the live clean hosts.

// markHostDirty queues a host for refresh at the next planning tick.
func (e *engine) markHostDirty(h *hostRT) {
	if !e.marked[h.vi] {
		e.marked[h.vi] = true
		e.dirty = append(e.dirty, h.vi)
	}
}

// markHostVarying registers a host as holding phase-driven demand; it
// is refreshed every tick until its phased population drops to zero.
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

// buildView lays the layout out as a policy view at time 0: every host
// holds only its initial residents, and no host is down.
func (l *layout) buildView() *consolidation.View {
	n := len(l.hosts)
	v := &consolidation.View{
		HostName:  make([]string, 0, n),
		Threads:   make([]int, 0, n),
		MemCap:    make([]units.Bytes, 0, n),
		IdlePower: make([]units.Watts, 0, n),
		Down:      make([]bool, n),
		Busy:      make([]float64, 0, n),
		Mem:       make([]units.Bytes, 0, n),
		VMStart:   make([]int32, 0, n),
		VMCount:   make([]int32, 0, n),
		VMName:    make([]string, 0, l.nvms),
		VMMem:     make([]units.Bytes, 0, l.nvms),
		VMBusy:    make([]float64, 0, l.nvms),
		VMDirty:   make([]units.Fraction, 0, l.nvms),
		// The hosts are name-sorted (layout.order), so index order is
		// name order — the precondition for the policies' order-indexed
		// target scan.
		NameOrdered: true,
	}
	for _, h := range l.hosts {
		v.HostName = append(v.HostName, h.Name)
		v.Threads = append(v.Threads, h.Threads)
		v.MemCap = append(v.MemCap, h.MemBytes)
		v.IdlePower = append(v.IdlePower, h.IdlePower)
		v.VMStart = append(v.VMStart, int32(len(v.VMName)))
		v.VMCount = append(v.VMCount, int32(len(h.VMs)))
		busy := 0.0
		var mem units.Bytes
		for _, g := range h.VMs {
			b := g.busyAt(0)
			v.VMName = append(v.VMName, g.Name)
			v.VMMem = append(v.VMMem, g.MemBytes)
			v.VMBusy = append(v.VMBusy, b)
			v.VMDirty = append(v.VMDirty, g.dirtyAt(0))
			busy += b
			mem += g.MemBytes
		}
		v.Busy = append(v.Busy, busy)
		v.Mem = append(v.Mem, mem)
	}
	v.SortOrder()
	return v
}

// startView readies the run's view from the layout's t=0 view v0. The
// per-host constants are shared, since no run writes them; what the
// run's refreshes, order repair and arena moves write is copied, the
// arena with the allocator's size-class slack as capacity, so the first
// hosts that outgrow their ranges relocate without copying it. The copy
// starts without a planning workspace.
func (e *engine) startView(v0 *consolidation.View) {
	e.pview = consolidation.View{
		HostName:    v0.HostName,
		Threads:     v0.Threads,
		MemCap:      v0.MemCap,
		IdlePower:   v0.IdlePower,
		Down:        slices.Clone(v0.Down),
		Busy:        slices.Clone(v0.Busy),
		Mem:         slices.Clone(v0.Mem),
		VMStart:     slices.Clone(v0.VMStart),
		VMCount:     slices.Clone(v0.VMCount),
		Order:       slices.Clone(v0.Order),
		Live:        slices.Clone(v0.Live),
		VMName:      slices.Clone(v0.VMName),
		VMMem:       slices.Clone(v0.VMMem),
		VMBusy:      slices.Clone(v0.VMBusy),
		VMDirty:     slices.Clone(v0.VMDirty),
		NameOrdered: v0.NameOrdered,
	}
	e.viewLive = len(v0.VMName)
	e.orderScratch = make([]int32, 0, len(v0.Order))
	e.liveScratch = make([]int32, 0, len(v0.Live))
	e.marked = make([]bool, len(v0.HostName))
}

// refreshHostView rewrites one host's view slots and aggregates at
// time t. Slots are rewritten in place while the membership count fits
// the host's current arena range; a grown host relocates its range to
// the arena tail (compactArena reclaims the stale slots).
func (e *engine) refreshHostView(h *hostRT, t time.Duration) {
	v := &e.pview
	i := h.vi
	n := int32(len(h.vms) + len(h.incoming))
	old := v.VMCount[i]
	s := v.VMStart[i]
	if n > old {
		s = int32(len(v.VMName))
		v.VMStart[i] = s
		grow := int(n)
		v.VMName = append(v.VMName, make([]string, grow)...)
		v.VMMem = append(v.VMMem, make([]units.Bytes, grow)...)
		v.VMBusy = append(v.VMBusy, make([]float64, grow)...)
		v.VMDirty = append(v.VMDirty, make([]units.Fraction, grow)...)
	}
	v.VMCount[i] = n
	e.viewLive += int(n - old)
	k := s
	busy := 0.0
	var mem units.Bytes
	for _, g := range h.vms {
		b := g.busyAt(t)
		v.VMName[k], v.VMMem[k], v.VMBusy[k], v.VMDirty[k] = g.Name, g.MemBytes, b, g.dirtyAt(t)
		busy += b
		mem += g.MemBytes
		k++
	}
	for _, f := range h.incoming {
		b := f.vm.busyAt(t)
		v.VMName[k], v.VMMem[k], v.VMBusy[k], v.VMDirty[k] = f.resName, f.vm.MemBytes, b, f.vm.dirtyAt(t)
		busy += b
		mem += f.vm.MemBytes
		k++
	}
	v.Busy[i], v.Mem[i] = busy, mem
	v.Down[i] = h.down
}

// viewTick folds the varying set into the dirty set, refreshes every
// dirty host at time t, and repairs Order and Live without reading them
// entry by entry: each dirty host is located by binary search before
// its refresh changes its key, and each sequence is rebuilt by repair.
// The comparator runs O(dirty · log hosts) times per tick; the marks
// only deduplicate the dirty list. It reports whether anything was
// refreshed — a clean tick's view (and therefore its plan) is identical
// to the last one.
func (e *engine) viewTick(t time.Duration) bool {
	// Varying hosts (phased residents or phased reservations) refresh
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
		e.markHostDirty(h)
	}
	e.varying = keep
	if len(e.dirty) == 0 {
		return false
	}
	v := &e.pview
	compare := v.CompareHosts(v.Busy)
	// Order and Live are sorted under the loads they were last repaired
	// with, so each dirty host is found at its exact position before it
	// refreshes; it is in Live exactly when it was live at that refresh.
	e.removed, e.liveRemoved = e.removed[:0], e.liveRemoved[:0]
	for _, hi := range e.dirty {
		at, _ := slices.BinarySearchFunc(v.Order, hi, compare)
		e.removed = append(e.removed, at)
		if v.LiveHost(hi) {
			at, _ = slices.BinarySearchFunc(v.Live, hi, compare)
			e.liveRemoved = append(e.liveRemoved, at)
		}
	}
	for _, vi := range e.dirty {
		e.refreshHostView(e.hosts[vi], t)
	}
	slices.Sort(e.removed)
	slices.Sort(e.liveRemoved)
	slices.SortFunc(e.dirty, compare)
	v.Order, e.orderScratch = repair(v.Order, e.removed, e.dirty, compare, e.orderScratch[:0]), v.Order[:0]
	// The dirty list, filtered in place to the hosts live after their
	// refresh, is what enters Live.
	live := e.dirty[:0]
	for _, hi := range e.dirty {
		e.marked[hi] = false
		if v.LiveHost(hi) {
			live = append(live, hi)
		}
	}
	v.Live, e.liveScratch = repair(v.Live, e.liveRemoved, live, compare, e.liveScratch[:0]), v.Live[:0]
	e.dirty = e.dirty[:0]
	e.compactArena()
	return true
}

// repair rebuilds into out the sorted host sequence old after the hosts
// at its sorted positions removed changed their keys, inserting the
// hosts of ins, which are in their new key order. The clean entries
// form len(removed)+1 sorted runs between the removed positions, and
// lie in the (busy, name) total order across runs too. Each inserted
// host skips the runs wholly below it and goes in at its
// binary-searched position in the first run that is not; the runs are
// copied in bulk.
func repair(old []int32, removed []int, ins []int32, compare func(i, j int32) int, out []int32) []int32 {
	runEnd := func(r int) int {
		if r < len(removed) {
			return removed[r]
		}
		return len(old)
	}
	r, lo, end := 0, 0, runEnd(0)
	for _, hi := range ins {
		for r < len(removed) && (lo == end || compare(old[end-1], hi) < 0) {
			out = append(out, old[lo:end]...)
			r++
			lo, end = removed[r-1]+1, runEnd(r)
		}
		at, _ := slices.BinarySearchFunc(old[lo:end], hi, compare)
		out = append(out, old[lo:lo+at]...)
		out = append(out, hi)
		lo += at
	}
	for {
		out = append(out, old[lo:end]...)
		if r == len(removed) {
			return out
		}
		r++
		lo, end = removed[r-1]+1, runEnd(r)
	}
}

// compactArena rewrites the VM arena without the stale ranges left by
// relocated hosts, once garbage dominates. Host indices, counts and
// aggregates are untouched — only VMStart moves.
func (e *engine) compactArena() {
	v := &e.pview
	if len(v.VMName) <= 2*e.viewLive+1024 {
		return
	}
	names := make([]string, 0, e.viewLive)
	mems := make([]units.Bytes, 0, e.viewLive)
	busys := make([]float64, 0, e.viewLive)
	dirts := make([]units.Fraction, 0, e.viewLive)
	for i := range v.VMStart {
		s, n := v.VMStart[i], v.VMCount[i]
		v.VMStart[i] = int32(len(names))
		names = append(names, v.VMName[s:s+n]...)
		mems = append(mems, v.VMMem[s:s+n]...)
		busys = append(busys, v.VMBusy[s:s+n]...)
		dirts = append(dirts, v.VMDirty[s:s+n]...)
	}
	v.VMName, v.VMMem, v.VMBusy, v.VMDirty = names, mems, busys, dirts
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
