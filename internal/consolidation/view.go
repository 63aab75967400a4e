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
// headers instead of O(VMs) struct copies. A caller that keeps a View
// across events (the cluster engine) marks the hosts an event changed
// with Mark, and Update rewrites only those hosts' slots and repairs
// Live; Rewind puts a used Clone back to the view it was cloned from.
// The View alone keeps the invariants below.
//
// Invariants, on which the policies' bit-identity to the historical
// []HostState path rests:
//
//   - Busy[i] and Mem[i] are always produced by summing host i's slots
//     in slot order — never by incremental subtraction — so they equal
//     what HostState.BusyThreads/UsedMem would return for the same VM
//     list (floating-point addition is order-sensitive).
//   - Live holds every live host (see liveHost: up, with at least one
//     slot), ascending by (Busy, HostName), and no other host: the
//     view's only order. Host names are unique, so the order is a
//     unique total order and any maintenance strategy (full sort,
//     incremental merge) yields the same permutation of any host set.
//     compareHosts is that order's one comparator; under NameOrdered
//     it breaks busy ties by index, which is name order there, without
//     comparing a string.
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
	// Live is the live hosts ascending by (Busy, HostName): the only
	// hosts a drain may empty or fill.
	Live []int32
	// VM slot arena.
	VMName  []string
	VMMem   []units.Bytes
	VMBusy  []float64
	VMDirty []units.Fraction
	// NameOrdered records that host index order equals host name order
	// (the cluster engine sorts hosts by name). It licenses the
	// order-indexed target scan, whose tie-breaking by name must agree
	// with the historical tie-breaking by index, and lets compareHosts
	// break busy ties by index instead of by name.
	NameOrdered bool

	// work is the planning workspace PlanView keeps on the view between
	// calls (see vwork); nil until the first plan. It makes a View
	// single-planner: one View must not be planned concurrently.
	work *vwork
	// up is what Mark, Update and Rewind keep between calls (see upkeep).
	up upkeep
}

// upkeep is a View's incremental-upkeep state: the hosts marked since
// the last Update, the hosts rewritten since the last Clone or Rewind,
// and the scratch Update reuses, so a steady Update allocates nothing.
type upkeep struct {
	marks  []int32 // marked hosts, in mark order
	marked []bool  // by host index: the host is in marks; nil until the first Mark
	// rewritten lists the hosts Update has rewritten, each once, in
	// first-rewrite order, and rewrote flags them by host index: what
	// Rewind restores. setSlots is the only writer of a host's state, and
	// Update is its only caller on a clone.
	rewritten []int32
	rewrote   []bool
	// removed is the marked hosts' Live positions before their rewrite;
	// live is the buffer the repaired Live is built in; slots is fill's
	// buffer.
	removed []int
	live    []int32
	slots   []VMState
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

// Grow reserves room for hosts more hosts and vms more VM slots, so a
// builder that knows its fleet's size appends without regrowing.
func (v *View) Grow(hosts, vms int) {
	v.HostName = slices.Grow(v.HostName, hosts)
	v.Threads = slices.Grow(v.Threads, hosts)
	v.MemCap = slices.Grow(v.MemCap, hosts)
	v.IdlePower = slices.Grow(v.IdlePower, hosts)
	v.Down = slices.Grow(v.Down, hosts)
	v.Busy = slices.Grow(v.Busy, hosts)
	v.Mem = slices.Grow(v.Mem, hosts)
	v.VMStart = slices.Grow(v.VMStart, hosts)
	v.VMCount = slices.Grow(v.VMCount, hosts)
	v.VMName = slices.Grow(v.VMName, vms)
	v.VMMem = slices.Grow(v.VMMem, vms)
	v.VMBusy = slices.Grow(v.VMBusy, vms)
	v.VMDirty = slices.Grow(v.VMDirty, vms)
}

// AppendHost flattens one host into the view (build helper). It does
// not retain h.VMs.
func (v *View) AppendHost(h HostState) {
	v.HostName = append(v.HostName, h.Name)
	v.Threads = append(v.Threads, h.Threads)
	v.MemCap = append(v.MemCap, h.MemBytes)
	v.IdlePower = append(v.IdlePower, h.IdlePower)
	v.Down = append(v.Down, h.Down)
	v.Busy = append(v.Busy, 0)
	v.Mem = append(v.Mem, 0)
	v.VMStart = append(v.VMStart, int32(len(v.VMName)))
	v.VMCount = append(v.VMCount, 0)
	v.setSlots(int32(v.hostCount()-1), h.VMs, h.Down)
}

// setSlots rewrites host i's slots to vms and its down flag to down,
// and re-sums its aggregates in slot order. The slots are rewritten in
// place while they fit the host's arena range; a host that gains slots
// moves its range to the arena's tail, leaving the old range unused.
// Nothing reclaims unused ranges: the arena grows by the new slot count
// of every host that grows (in the cluster engine, a dispatch's
// destination, once per dispatch).
func (v *View) setSlots(i int32, vms []VMState, down bool) {
	n := int32(len(vms))
	if n > v.VMCount[i] {
		v.VMStart[i] = int32(len(v.VMName))
		v.VMName = append(v.VMName, make([]string, n)...)
		v.VMMem = append(v.VMMem, make([]units.Bytes, n)...)
		v.VMBusy = append(v.VMBusy, make([]float64, n)...)
		v.VMDirty = append(v.VMDirty, make([]units.Fraction, n)...)
	}
	v.VMCount[i] = n
	k := v.VMStart[i]
	busy := 0.0
	var mem units.Bytes
	for _, g := range vms {
		v.VMName[k], v.VMMem[k], v.VMBusy[k], v.VMDirty[k] = g.Name, g.MemBytes, g.BusyVCPUs, g.DirtyRatio
		busy += g.BusyVCPUs
		mem += g.MemBytes
		k++
	}
	v.Busy[i], v.Mem[i], v.Down[i] = busy, mem, down
}

// SortOrder (re)builds Live: the live hosts, sorted by (Busy,
// HostName).
func (v *View) SortOrder() {
	v.Live = v.Live[:0]
	for i := range v.HostName {
		if v.liveHost(int32(i)) {
			v.Live = append(v.Live, int32(i))
		}
	}
	slices.SortFunc(v.Live, v.compareHosts(v.Busy))
}

// liveHost reports whether host i belongs in Live: it is up and holds
// at least one slot, a resident or a reservation.
func (v *View) liveHost(i int32) bool {
	return v.VMCount[i] > 0 && !v.Down[i]
}

// compareHosts orders host indices by (busy, HostName) under the given
// per-host loads: the policies' unique total order, and the one
// comparator that builds, re-sorts and repairs Live. It is written
// with < and != so every comparison decides as the historical less
// function did. Under NameOrdered a busy tie is broken by index, which
// is name order there, without comparing the names.
func (v *View) compareHosts(busy []float64) func(i, j int32) int {
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

// Clone returns a copy of the view that Mark and Update may keep apart
// from v. The per-host constants (HostName, Threads, MemCap,
// IdlePower) are shared, since Update never writes them; everything
// Update writes is copied, the arena with the allocator's size-class
// slack as capacity, so the first hosts that outgrow their ranges move
// without copying it. The copy starts with no marks and no planning
// workspace.
func (v *View) Clone() View {
	return View{
		HostName:    v.HostName,
		Threads:     v.Threads,
		MemCap:      v.MemCap,
		IdlePower:   v.IdlePower,
		Down:        slices.Clone(v.Down),
		Busy:        slices.Clone(v.Busy),
		Mem:         slices.Clone(v.Mem),
		VMStart:     slices.Clone(v.VMStart),
		VMCount:     slices.Clone(v.VMCount),
		Live:        slices.Clone(v.Live),
		VMName:      slices.Clone(v.VMName),
		VMMem:       slices.Clone(v.VMMem),
		VMBusy:      slices.Clone(v.VMBusy),
		VMDirty:     slices.Clone(v.VMDirty),
		NameOrdered: v.NameOrdered,
	}
}

// Rewind puts v, a Clone of base (or a view rewound to base) that Mark
// and Update have since changed, back to what base.Clone() returns, and
// keeps v's planning workspace and upkeep buffers, so a caller that
// runs from one base view again and again copies it once. Only what
// Update wrote is restored: each rewritten host's aggregates, down
// flag, slot range and the arena slots of its range in base; the
// arena's tail, where hosts that outgrew their ranges moved, is cleared
// and cut off; Live is base's again; and pending marks are dropped. It
// costs O(hosts rewritten + live hosts + tail slots). base must not
// have changed since v was cloned from it.
func (v *View) Rewind(base *View) {
	u := &v.up
	for _, i := range u.rewritten {
		u.rewrote[i] = false
		v.Down[i], v.Busy[i], v.Mem[i] = base.Down[i], base.Busy[i], base.Mem[i]
		s, n := base.VMStart[i], base.VMCount[i]
		v.VMStart[i], v.VMCount[i] = s, n
		copy(v.VMName[s:s+n], base.VMName[s:s+n])
		copy(v.VMMem[s:s+n], base.VMMem[s:s+n])
		copy(v.VMBusy[s:s+n], base.VMBusy[s:s+n])
		copy(v.VMDirty[s:s+n], base.VMDirty[s:s+n])
	}
	u.rewritten = u.rewritten[:0]
	// A host's base range is written only in place, by that host, so
	// everything past base's arena is the tail. Its names are cleared so
	// the view keeps no reservation name alive.
	m := len(base.VMName)
	clear(v.VMName[m:])
	v.VMName, v.VMMem, v.VMBusy, v.VMDirty = v.VMName[:m], v.VMMem[:m], v.VMBusy[:m], v.VMDirty[:m]
	v.Live = append(v.Live[:0], base.Live...)
	for _, i := range u.marks {
		u.marked[i] = false
	}
	u.marks = u.marks[:0]
}

// Mark queues host i for the next Update. Marking a host twice queues
// it once.
func (v *View) Mark(i int32) {
	u := &v.up
	if u.marked == nil {
		u.marked = make([]bool, v.hostCount())
		u.rewrote = make([]bool, v.hostCount())
	}
	if !u.marked[i] {
		u.marked[i] = true
		u.marks = append(u.marks, i)
	}
}

// Update rewrites every marked host from fill and repairs Live, then
// clears the marks. fill appends host i's slots to dst, its residents
// first and its reservations after them, and returns the slots and
// whether the host is down; Update calls it once per marked host and
// does not keep it. Update reports whether any host was marked: when
// none was, the view is unchanged.
//
// Live is repaired without reading it entry by entry. Each marked host
// that is live before its rewrite is located by binary search under the
// loads Live was sorted by, before its rewrite changes them; the clean
// entries between those positions keep their keys, so they stay sorted,
// and repair rebuilds Live from bulk copies of those runs with each
// marked host that is live after its rewrite inserted at its new (busy,
// name) position. Only a rewrite changes whether a host is live, so the
// clean entries are exactly the live clean hosts, and the order is a
// unique total order, so the merge gives what a full sort gives. The
// comparator runs O(marked · log hosts) times.
func (v *View) Update(fill func(i int32, dst []VMState) ([]VMState, bool)) bool {
	u := &v.up
	if len(u.marks) == 0 {
		return false
	}
	compare := v.compareHosts(v.Busy)
	u.removed = u.removed[:0]
	for _, i := range u.marks {
		if v.liveHost(i) {
			at, _ := slices.BinarySearchFunc(v.Live, i, compare)
			u.removed = append(u.removed, at)
		}
	}
	for _, i := range u.marks {
		if !u.rewrote[i] {
			u.rewrote[i] = true
			u.rewritten = append(u.rewritten, i)
		}
		var down bool
		u.slots, down = fill(i, u.slots[:0])
		v.setSlots(i, u.slots, down)
	}
	slices.Sort(u.removed)
	// The marks, filtered in place to the hosts live after their
	// rewrite, are what enters Live.
	live := u.marks[:0]
	for _, i := range u.marks {
		u.marked[i] = false
		if v.liveHost(i) {
			live = append(live, i)
		}
	}
	slices.SortFunc(live, compare)
	out := slices.Grow(u.live[:0], len(v.Live)+len(live))
	v.Live, u.live = repair(v.Live, u.removed, live, compare, out), v.Live[:0]
	u.marks = u.marks[:0]
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
	// drain is EnergyAware's tentative-drain scratch; order backs the
	// re-sorted drain order, and loads the full-length busy keys the
	// re-sort compares.
	drain viewDrainScratch
	order []int32
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

// resort returns the drain candidates in drain order under the
// workspace's aggregates, for a plan whose evacuations moved some
// hosts' loads: the view's Live and the touched hosts that are not in
// it, sorted by the view's comparator. Only a touched host can change
// whether it is live, so these are every host that may be live under
// the plan. Only then does it fill the full-length key buffer the
// comparator reads.
func (w *vwork) resort() []int32 {
	w.loads = append(w.loads[:0], w.v.Busy...)
	for k, i := range w.touched {
		w.loads[i] = w.over[k].busy
	}
	w.order = append(w.order[:0], w.v.Live...)
	for _, i := range w.touched {
		if !w.v.liveHost(i) {
			w.order = append(w.order, i)
		}
	}
	slices.SortFunc(w.order, w.v.compareHosts(w.loads))
	return w.order
}

// liveOrder returns the live hosts in drain order under the plan so
// far: the view's Live while the plan has touched no host, and
// otherwise the re-sorted candidates, filtered in place by the
// workspace's resident counts.
func (w *vwork) liveOrder() []int32 {
	if len(w.touched) == 0 {
		return w.v.Live
	}
	order := w.resort()
	live := order[:0]
	for _, j := range order {
		if w.count(j) > 0 && !w.v.Down[j] {
			live = append(live, j)
		}
	}
	return live
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
