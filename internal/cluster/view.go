package cluster

import (
	"slices"
	"sort"
	"time"

	"repro/internal/consolidation"
	"repro/internal/units"
)

// This file maintains the engine's persistent consolidation.View — the
// struct-of-arrays policy snapshot — incrementally under an
// event-driven dirty set, so a planning round at fleet scale touches
// only the hosts events actually changed since the last tick.
//
// Invariants (property-tested against the full-rebuild fallback and the
// test-side linear-scan reference):
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
//     bit-identical to a full rebuild at the same instant.
//   - Order repair drops the refreshed hosts (a stable compaction of
//     entries whose keys did not change stays sorted), sorts them by
//     their new (busy, name) keys, and merges. Host names are unique,
//     so (busy, name) is a unique total order and the merge reproduces
//     a full sort exactly.

// viewEnabled reports whether this configuration plans through the
// incrementally maintained view: a policy that implements
// consolidation.ViewPolicy. Other policies, and the test-side
// linear-scan reference, which hides PlanView, keep the AoS snapshot
// path.
func (e *engine) viewEnabled() (consolidation.ViewPolicy, bool) {
	if e.cfg.Policy == nil {
		return nil, false
	}
	vp, ok := e.cfg.Policy.(consolidation.ViewPolicy)
	return vp, ok
}

// markHostDirty queues a host for refresh at the next planning tick.
func (e *engine) markHostDirty(h *hostRT) {
	if !h.dirtyMark {
		h.dirtyMark = true
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

// flattenHostView appends host h's current state to the view arrays at
// time t. Build path only (rebuildView); the incremental path rewrites
// slots in place via refreshHostView.
func (e *engine) flattenHostView(h *hostRT, t time.Duration) {
	v := &e.pview
	v.HostName = append(v.HostName, h.Name)
	v.Threads = append(v.Threads, h.Threads)
	v.MemCap = append(v.MemCap, h.MemBytes)
	v.IdlePower = append(v.IdlePower, h.IdlePower)
	v.Down = append(v.Down, h.down)
	v.VMStart = append(v.VMStart, int32(len(v.VMName)))
	v.VMCount = append(v.VMCount, int32(len(h.vms)+len(h.incoming)))
	busy := 0.0
	var mem units.Bytes
	for _, g := range h.vms {
		b := g.busyAt(t)
		v.VMName = append(v.VMName, g.Name)
		v.VMMem = append(v.VMMem, g.MemBytes)
		v.VMBusy = append(v.VMBusy, b)
		v.VMDirty = append(v.VMDirty, g.dirtyAt(t))
		busy += b
		mem += g.MemBytes
	}
	for _, f := range h.incoming {
		b := f.vm.busyAt(t)
		v.VMName = append(v.VMName, f.resName)
		v.VMMem = append(v.VMMem, f.vm.MemBytes)
		v.VMBusy = append(v.VMBusy, b)
		v.VMDirty = append(v.VMDirty, f.vm.dirtyAt(t))
		busy += b
		mem += f.vm.MemBytes
	}
	v.Busy = append(v.Busy, busy)
	v.Mem = append(v.Mem, mem)
}

// rebuildView reconstructs the whole view from the runtime state at
// time t: the initial build, and every tick of the property-tested
// full-rebuild fallback (Config.fullRebuild).
func (e *engine) rebuildView(t time.Duration) {
	v := &e.pview
	n, slots := len(e.hosts), 0
	for _, h := range e.hosts {
		slots += len(h.vms) + len(h.incoming)
	}
	v.HostName = emptied(v.HostName, n)
	v.Threads = emptied(v.Threads, n)
	v.MemCap = emptied(v.MemCap, n)
	v.IdlePower = emptied(v.IdlePower, n)
	v.Down = emptied(v.Down, n)
	v.Busy = emptied(v.Busy, n)
	v.Mem = emptied(v.Mem, n)
	v.VMStart = emptied(v.VMStart, n)
	v.VMCount = emptied(v.VMCount, n)
	v.VMName = emptied(v.VMName, slots)
	v.VMMem = emptied(v.VMMem, slots)
	v.VMBusy = emptied(v.VMBusy, slots)
	v.VMDirty = emptied(v.VMDirty, slots)
	e.orderScratch = emptied(e.orderScratch, n)
	for _, h := range e.hosts {
		e.flattenHostView(h, t)
	}
	e.viewLive = len(v.VMName)
	// The engine's hosts are name-sorted (sortedHosts), so index order
	// is name order — the precondition for the policies' order-indexed
	// target scan.
	v.NameOrdered = true
	v.SortOrder()
	// The rebuild consumed every outstanding mark.
	for _, vi := range e.dirty {
		e.hosts[vi].dirtyMark = false
	}
	e.dirty = e.dirty[:0]
}

// emptied returns s truncated to zero length with room for n elements.
func emptied[T any](s []T, n int) []T { return slices.Grow(s[:0], n) }

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

// viewLess orders host indices by the policies' (busy, name) key.
func viewLess(v *consolidation.View, a, b int32) bool {
	if v.Busy[a] != v.Busy[b] {
		return v.Busy[a] < v.Busy[b]
	}
	return v.HostName[a] < v.HostName[b]
}

// viewTick folds the varying set into the dirty set, refreshes every
// dirty host at time t, and repairs Order by compact-sort-merge. It
// reports whether anything was refreshed — a clean tick's view (and
// therefore its plan) is identical to the last one.
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
	for _, vi := range e.dirty {
		e.refreshHostView(e.hosts[vi], t)
	}
	sort.Slice(e.dirty, func(a, b int) bool { return viewLess(v, e.dirty[a], e.dirty[b]) })
	// Merge: clean entries keep their relative order (their keys did not
	// change, so they are still sorted); refreshed entries interleave by
	// their new keys. The result is the unique (busy, name) total order.
	out := e.orderScratch[:0]
	di := 0
	for _, hi := range v.Order {
		if e.hosts[hi].dirtyMark {
			continue
		}
		for di < len(e.dirty) && viewLess(v, e.dirty[di], hi) {
			out = append(out, e.dirty[di])
			di++
		}
		out = append(out, hi)
	}
	for ; di < len(e.dirty); di++ {
		out = append(out, e.dirty[di])
	}
	e.orderScratch = v.Order[:0]
	v.Order = out
	for _, vi := range e.dirty {
		e.hosts[vi].dirtyMark = false
	}
	e.dirty = e.dirty[:0]
	e.compactArena()
	return true
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
// flight and failure state: airborne movers and their reservations plus
// post-abort cool-downs are pinned; non-migrating residents of crashed
// hosts are evacuees. Produces exactly the sorted lists the AoS
// snapshot assembles per-host (abort cool-downs only ever name VMs on
// live hosts — crashHost clears its residents' repins).
func (e *engine) viewPinnedEvac() (pinned, evacuate []string) {
	e.snapPinned = e.snapPinned[:0]
	e.snapEvac = e.snapEvac[:0]
	for _, f := range e.fail.airborne {
		e.snapPinned = append(e.snapPinned, f.vm.Name, f.resName)
	}
	for name := range e.fail.repin {
		e.snapPinned = append(e.snapPinned, name)
	}
	for _, h := range e.downHosts {
		for _, g := range h.vms {
			if !g.migrating {
				e.snapEvac = append(e.snapEvac, g.Name)
			}
		}
	}
	sort.Strings(e.snapPinned)
	sort.Strings(e.snapEvac)
	return e.snapPinned, e.snapEvac
}
