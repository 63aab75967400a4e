package consolidation

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"repro/internal/units"
)

// View is the struct-of-arrays form of a fleet snapshot: parallel
// per-host arrays plus one flat VM-slot arena, indexed by VMStart and
// VMCount ranges. A policy snapshot at fleet scale is then O(1) slice
// headers instead of O(VMs) struct copies, and a caller that maintains
// a View incrementally (the cluster engine) only rewrites the slots of
// hosts an event actually touched.
//
// Invariants, on which the policies' bit-identity to the historical
// []HostState path rests:
//
//   - Busy[i] and Mem[i] are always produced by summing host i's slots
//     in slot order — never by incremental subtraction — so they equal
//     what HostState.BusyThreads/UsedMem would return for the same VM
//     list (floating-point addition is order-sensitive).
//   - Order holds every host index, ascending by (Busy, HostName).
//     Host names are unique, so the order is a unique total order and
//     any maintenance strategy (full sort, incremental merge) yields
//     the same permutation. CompareHosts is that order's one
//     comparator; under NameOrdered it breaks busy ties by index,
//     which is name order there, without comparing a string.
//   - A host's slots list its residents first (in the owner's
//     iteration order) and any reservation entries after them, exactly
//     as the AoS snapshot ordered HostState.VMs.
type View struct {
	// Per-host parallel arrays.
	HostName  []string
	Threads   []int
	MemCap    []units.Bytes
	IdlePower []units.Watts
	Down      []bool
	Busy      []float64
	Mem       []units.Bytes
	VMStart   []int32
	VMCount   []int32
	// Order is the host permutation ascending by (Busy, HostName).
	Order []int32
	// VM slot arena.
	VMName  []string
	VMMem   []units.Bytes
	VMBusy  []float64
	VMDirty []units.Fraction
	// NameOrdered records that host index order equals host name order
	// (the cluster engine sorts hosts by name). It licenses the
	// order-indexed target scan, whose tie-breaking by name must agree
	// with the historical tie-breaking by index, and lets CompareHosts
	// break busy ties by index instead of by name.
	NameOrdered bool

	// work is the planning workspace PlanView keeps on the view between
	// calls (see vwork); nil until the first plan. It makes a View
	// single-planner: one View must not be planned concurrently.
	work *vwork
}

// ViewPolicy is a Policy that can plan directly against a View. The
// built-in policies implement it, and their classic Plan entry points
// delegate through NewView, so both paths share one implementation and
// plan bit-identical moves. A plan from PlanView carries its Moves and
// MigrationEnergy only: FreedHosts and IdleSavings stay empty, since a
// fleet-scale caller tracks its empty hosts itself, and only the
// classic Plan fills them. The built-in PlanView reuses a planning
// workspace kept on the View from call to call, so one View must not be
// planned concurrently; distinct Views may be.
type ViewPolicy interface {
	Policy
	PlanView(v *View, cfg Config) (*Plan, error)
}

func (v *View) hostCount() int { return len(v.HostName) }

// vm materializes arena slot s as a VMState.
func (v *View) vm(s int32) VMState {
	return VMState{Name: v.VMName[s], MemBytes: v.VMMem[s], BusyVCPUs: v.VMBusy[s], DirtyRatio: v.VMDirty[s]}
}

// AppendHost flattens one host into the view (build helper).
func (v *View) AppendHost(h HostState) {
	v.HostName = append(v.HostName, h.Name)
	v.Threads = append(v.Threads, h.Threads)
	v.MemCap = append(v.MemCap, h.MemBytes)
	v.IdlePower = append(v.IdlePower, h.IdlePower)
	v.Down = append(v.Down, h.Down)
	v.VMStart = append(v.VMStart, int32(len(v.VMName)))
	v.VMCount = append(v.VMCount, int32(len(h.VMs)))
	busy := 0.0
	var mem units.Bytes
	for _, g := range h.VMs {
		v.VMName = append(v.VMName, g.Name)
		v.VMMem = append(v.VMMem, g.MemBytes)
		v.VMBusy = append(v.VMBusy, g.BusyVCPUs)
		v.VMDirty = append(v.VMDirty, g.DirtyRatio)
		busy += g.BusyVCPUs
		mem += g.MemBytes
	}
	v.Busy = append(v.Busy, busy)
	v.Mem = append(v.Mem, mem)
}

// SortOrder (re)builds Order ascending by (Busy, HostName).
func (v *View) SortOrder() {
	v.Order = slices.Grow(v.Order[:0], v.hostCount())
	for i := range v.HostName {
		v.Order = append(v.Order, int32(i))
	}
	slices.SortFunc(v.Order, v.CompareHosts(v.Busy))
}

// CompareHosts orders host indices by (busy, HostName) under the given
// per-host loads: the policies' unique total order, and the one
// comparator that builds, re-sorts and repairs Order. It is written
// with < and != so every comparison decides as the historical less
// function did. Under NameOrdered a busy tie is broken by index, which
// is name order there, without comparing the names.
func (v *View) CompareHosts(busy []float64) func(i, j int32) int {
	byName := !v.NameOrdered
	return func(i, j int32) int {
		switch {
		case busy[i] < busy[j]:
			return -1
		case busy[i] != busy[j]:
			return 1
		case byName:
			return strings.Compare(v.HostName[i], v.HostName[j])
		}
		return cmp.Compare(i, j)
	}
}

// NewView flattens an AoS host list into a fresh View. The input is
// not retained; callers with invalid hosts must validate first (the
// legacy Plan entry points do).
func NewView(hosts []HostState) *View {
	v := &View{}
	nameOrdered := true
	for i, h := range hosts {
		v.AppendHost(h)
		if i > 0 && hosts[i-1].Name >= h.Name {
			nameOrdered = false
		}
	}
	v.NameOrdered = nameOrdered
	v.SortOrder()
	return v
}

// vwork is a View's planning workspace: mutable aggregate copies over
// the read-only View, per-host VM lists materialized lazily — only
// hosts a plan actually mutates ever copy their slots — and the
// drain-candidate buffers. The View keeps it from one PlanView call to
// the next, so a fleet-scale planning round allocates nothing
// proportional to the host count.
type vwork struct {
	v    *View
	busy []float64
	mem  []units.Bytes
	cnt  []int32
	// vms holds the materialized VM list of every mutated host; nil
	// means the arena range is still current.
	vms [][]VMState
	// touched lists hosts whose aggregates differ from the snapshot
	// (evacuation targets and sources, drain commits); the order-indexed
	// target scan must price them individually instead of trusting the
	// snapshot order. Every per-host entry a plan sets — vms, received,
	// touchedMark — belongs to a touched host, so the next plan resets
	// the workspace by walking this list.
	touched     []int32
	touchedMark []bool
	received    []bool
	// drain is EnergyAware's tentative-drain scratch; order and live
	// back the re-sorted drain order and its live-host subset.
	drain viewDrainScratch
	order []int32
	live  []int32
}

// workspace readies the view's planning workspace for a new plan. The
// aggregates are copied from the view, which may have changed since the
// last plan; the per-host marks and overlays the last plan set are
// cleared in O(hosts it touched). Only a change in the host count
// allocates afresh. The drain scratch needs no clearing: its epoch keeps
// counting, so no stale tentative delta matches a new drain.
func (v *View) workspace() *vwork {
	n := v.hostCount()
	w := v.work
	if w == nil || len(w.touchedMark) != n {
		w = &vwork{
			vms:         make([][]VMState, n),
			touchedMark: make([]bool, n),
			received:    make([]bool, n),
			drain: viewDrainScratch{
				tentEpoch: make([]int, n),
				tentBusy:  make([]float64, n),
				tentMem:   make([]units.Bytes, n),
			},
		}
		v.work = w
	}
	for _, i := range w.touched {
		w.vms[i] = nil
		w.touchedMark[i] = false
		w.received[i] = false
	}
	w.touched = w.touched[:0]
	w.v = v
	w.busy = append(w.busy[:0], v.Busy...)
	w.mem = append(w.mem[:0], v.Mem...)
	w.cnt = append(w.cnt[:0], v.VMCount...)
	return w
}

// resort returns the drain order under the workspace's aggregates: a
// copy of the view's Order re-sorted by the view's comparator, for a
// plan whose evacuations moved some hosts' loads.
func (w *vwork) resort() []int32 {
	w.order = append(w.order[:0], w.v.Order...)
	slices.SortFunc(w.order, w.v.CompareHosts(w.busy))
	return w.order
}

// touch marks host i as diverged from the snapshot.
func (w *vwork) touch(i int32) {
	if !w.touchedMark[i] {
		w.touchedMark[i] = true
		w.touched = append(w.touched, i)
	}
}

// vmsOf returns host i's current VM list, materializing it from the
// arena on first call. Mutation paths only: a materialized host counts
// as touched, which keeps every overlay on the workspace's reset list.
func (w *vwork) vmsOf(i int32) []VMState {
	if w.vms[i] == nil {
		s, n := w.v.VMStart[i], w.v.VMCount[i]
		out := make([]VMState, 0, n)
		for k := s; k < s+n; k++ {
			out = append(out, w.v.vm(k))
		}
		w.vms[i] = out
		w.touch(i)
	}
	return w.vms[i]
}

// appendVMs copies host i's current VM list into dst without
// materializing an overlay.
func (w *vwork) appendVMs(dst []VMState, i int32) []VMState {
	if l := w.vms[i]; l != nil {
		return append(dst, l...)
	}
	s, n := w.v.VMStart[i], w.v.VMCount[i]
	for k := s; k < s+n; k++ {
		dst = append(dst, w.v.vm(k))
	}
	return dst
}

// hostHasPinned reports whether any of host i's VMs is pinned, without
// materializing.
func (w *vwork) hostHasPinned(i int32, pinned map[string]bool) bool {
	if len(pinned) == 0 {
		return false
	}
	if l := w.vms[i]; l != nil {
		for _, g := range l {
			if pinned[g.Name] {
				return true
			}
		}
		return false
	}
	s, n := w.v.VMStart[i], w.v.VMCount[i]
	for k := s; k < s+n; k++ {
		if pinned[w.v.VMName[k]] {
			return true
		}
	}
	return false
}

// removeVM detaches a named VM from host i, preserving order.
func (w *vwork) removeVM(i int32, name string) (VMState, bool) {
	l := w.vmsOf(i)
	g, ok := removeVMSlice(&l, name)
	if !ok {
		return VMState{}, false
	}
	w.vms[i] = l
	w.cnt[i] = int32(len(l))
	w.touch(i)
	w.recompute(i)
	return g, true
}

// addVM appends a VM to host i.
func (w *vwork) addVM(i int32, g VMState) {
	w.vms[i] = append(w.vmsOf(i), g)
	w.cnt[i] = int32(len(w.vms[i]))
	w.touch(i)
	w.recompute(i)
}

// recompute refreshes host i's aggregates by re-summing its current VM
// list in order (see the View invariant).
func (w *vwork) recompute(i int32) {
	busy := 0.0
	var mem units.Bytes
	for _, g := range w.vmsOf(i) {
		busy += g.BusyVCPUs
		mem += g.MemBytes
	}
	w.busy[i], w.mem[i] = busy, mem
}

// freeHosts fills a classic plan's FreedHosts and IdleSavings from the
// final per-host resident counts cnt: every live host left empty is
// freed (a crashed host emptied by evacuation is not — it already draws
// nothing, so switching it off reclaims nothing). FreedHosts is
// allocated at its exact size, and a NameOrdered view yields it already
// sorted.
func freeHosts(plan *Plan, v *View, cnt []int32) {
	n := len(cnt)
	down, hostName, idle := v.Down[:n], v.HostName[:n], v.IdlePower[:n]
	freed := 0
	for i, c := range cnt {
		if c == 0 && !down[i] {
			freed++
		}
	}
	if freed > 0 {
		names := make([]string, freed)
		var savings units.Watts
		k := 0
		for i, c := range cnt {
			if c == 0 && !down[i] {
				names[k] = hostName[i]
				savings += idle[i]
				k++
			}
		}
		if !v.NameOrdered {
			sort.Strings(names)
		}
		plan.FreedHosts, plan.IdleSavings = names, savings
	}
}

// moveEnergy totals the moves' predicted migration energy.
func moveEnergy(moves []Move) units.Joules {
	var e units.Joules
	for _, m := range moves {
		e += m.Cost.Energy
	}
	return e
}
