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

// vwork is a View's planning workspace: a copy-on-touch overlay over
// the read-only View. The first time a plan mutates a host, the host
// gets an overlay entry holding its VM list, materialized from the
// arena, and its aggregates; every other host is read straight from the
// view, through load and count. Up front, only the slot index and the
// drain scratch are host-length, and the View keeps the workspace from
// one PlanView call to the next, so a fleet-scale planning round
// allocates nothing and copies no per-host aggregates.
type vwork struct {
	v *View
	// slot maps host i to its entry over[slot[i]-1], 0 while the plan
	// has not touched it. touched[k] is the host of over[k].
	slot []int32
	over []overlay
	// touched lists hosts whose aggregates differ from the snapshot
	// (evacuation targets and sources, drain commits); the order-indexed
	// target scan must price them individually instead of trusting the
	// snapshot order. The next plan resets the workspace by walking it.
	touched []int32
	// drain is EnergyAware's tentative-drain scratch; order and live
	// back the re-sorted drain order and its live-host subset, and
	// loads the full-length busy keys the re-sort compares.
	drain viewDrainScratch
	order []int32
	live  []int32
	loads []float64
}

// overlay is a touched host's state under the plan so far. Its
// resident count is len(vms).
type overlay struct {
	vms      []VMState
	busy     float64
	mem      units.Bytes
	received bool // the host took a guest in this plan
}

// workspace readies the view's planning workspace for a new plan. The
// view may have changed since the last plan, so the overlay entries the
// last plan made are dropped in O(hosts it touched); nothing is copied
// until a host is touched. Only a change in the host count allocates
// afresh. The drain scratch needs no clearing: its epoch keeps
// counting, so no stale tentative delta matches a new drain.
func (v *View) workspace() *vwork {
	n := v.hostCount()
	w := v.work
	if w == nil || len(w.slot) != n {
		w = &vwork{
			slot: make([]int32, n),
			drain: viewDrainScratch{
				tentEpoch: make([]int, n),
				tentBusy:  make([]float64, n),
				tentMem:   make([]units.Bytes, n),
			},
		}
		v.work = w
	}
	for _, i := range w.touched {
		w.slot[i] = 0
	}
	clear(w.over)
	w.over, w.touched = w.over[:0], w.touched[:0]
	w.v = v
	return w
}

// load returns host i's busy and memory aggregates under the plan so
// far: the overlay's for a touched host, the view's otherwise.
func (w *vwork) load(i int32) (float64, units.Bytes) {
	if s := w.slot[i]; s != 0 {
		return w.over[s-1].busy, w.over[s-1].mem
	}
	return w.v.Busy[i], w.v.Mem[i]
}

// count returns host i's resident count under the plan so far.
func (w *vwork) count(i int32) int32 {
	if s := w.slot[i]; s != 0 {
		return int32(len(w.over[s-1].vms))
	}
	return w.v.VMCount[i]
}

// received reports whether host i took a guest in this plan.
func (w *vwork) received(i int32) bool {
	s := w.slot[i]
	return s != 0 && w.over[s-1].received
}

// counts returns every host's resident count after the plan: the
// view's, overlaid by the touched hosts'. The classic Plan's freed-host
// accounting reads it; PlanView never builds it.
func (w *vwork) counts() []int32 {
	cnt := slices.Clone(w.v.VMCount)
	for k, i := range w.touched {
		cnt[i] = int32(len(w.over[k].vms))
	}
	return cnt
}

// resort returns the drain order under the workspace's aggregates: a
// copy of the view's Order re-sorted by the view's comparator, for a
// plan whose evacuations moved some hosts' loads. Only then does it
// fill the full-length key buffer the comparator reads.
func (w *vwork) resort() []int32 {
	w.loads = append(w.loads[:0], w.v.Busy...)
	for k, i := range w.touched {
		w.loads[i] = w.over[k].busy
	}
	w.order = append(w.order[:0], w.v.Order...)
	slices.SortFunc(w.order, w.v.CompareHosts(w.loads))
	return w.order
}

// touch returns host i's overlay entry, making it on the first touch:
// the VM list is materialized from the arena and the aggregates are the
// view's. Mutation paths only. The pointer is good until the next
// touch of another host.
func (w *vwork) touch(i int32) *overlay {
	if s := w.slot[i]; s != 0 {
		return &w.over[s-1]
	}
	s, n := w.v.VMStart[i], w.v.VMCount[i]
	vms := make([]VMState, 0, n)
	for k := s; k < s+n; k++ {
		vms = append(vms, w.v.vm(k))
	}
	w.over = append(w.over, overlay{vms: vms, busy: w.v.Busy[i], mem: w.v.Mem[i]})
	w.touched = append(w.touched, i)
	w.slot[i] = int32(len(w.over))
	return &w.over[len(w.over)-1]
}

// appendVMs copies host i's current VM list into dst without
// touching it.
func (w *vwork) appendVMs(dst []VMState, i int32) []VMState {
	if s := w.slot[i]; s != 0 {
		return append(dst, w.over[s-1].vms...)
	}
	s, n := w.v.VMStart[i], w.v.VMCount[i]
	for k := s; k < s+n; k++ {
		dst = append(dst, w.v.vm(k))
	}
	return dst
}

// hostHasPinned reports whether any of host i's VMs is pinned, without
// touching it.
func (w *vwork) hostHasPinned(i int32, pinned map[string]bool) bool {
	if len(pinned) == 0 {
		return false
	}
	if s := w.slot[i]; s != 0 {
		for _, g := range w.over[s-1].vms {
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
	o := w.touch(i)
	g, ok := removeVMSlice(&o.vms, name)
	if ok {
		o.recompute()
	}
	return g, ok
}

// addVM appends a VM to host i, which thereby counts as having received
// a guest in this plan.
func (w *vwork) addVM(i int32, g VMState) {
	o := w.touch(i)
	o.vms = append(o.vms, g)
	o.received = true
	o.recompute()
}

// recompute refreshes the entry's aggregates by re-summing its current
// VM list in order (see the View invariant).
func (o *overlay) recompute() {
	busy := 0.0
	var mem units.Bytes
	for _, g := range o.vms {
		busy += g.BusyVCPUs
		mem += g.MemBytes
	}
	o.busy, o.mem = busy, mem
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
