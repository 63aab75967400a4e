package consolidation

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/units"
)

// viewDrainScratch is the reusable working memory of EnergyAware's
// tentative drains, part of the view's planning workspace. One instance
// serves every drain of every PlanView call on its view; the epoch
// counter invalidates the per-host tentative deltas between drains
// without clearing the arrays.
type viewDrainScratch struct {
	epoch     int
	tentEpoch []int
	tentBusy  []float64
	tentMem   []units.Bytes
	// tentTouched lists the hosts that received tentative placements
	// this epoch, so the order-indexed target scan can price them as
	// finalists instead of trusting the snapshot order.
	tentTouched []int32
	srcVMs      []VMState // src residents not yet tentatively placed
	order       []VMState // src residents, biggest first
	moves       []Move
	moveDst     []int32 // target host index per move (avoids a name lookup at commit)
}

// effective returns host j's busy/memory aggregates including this
// drain's tentative placements. Tentative additions are applied
// sequentially on top of the cached sum — the same left-to-right order
// a re-sum of the appended VM list would use.
func (sc *viewDrainScratch) effective(w *vwork, j int32) (float64, units.Bytes) {
	if sc.tentEpoch[j] == sc.epoch {
		return sc.tentBusy[j], sc.tentMem[j]
	}
	return w.load(j)
}

// add tentatively places a VM on host j for the rest of this drain.
func (sc *viewDrainScratch) add(w *vwork, j int32, vm VMState) {
	b, m := sc.effective(w, j)
	if sc.tentEpoch[j] != sc.epoch {
		sc.tentTouched = append(sc.tentTouched, j)
	}
	sc.tentBusy[j], sc.tentMem[j] = b+vm.BusyVCPUs, m+vm.MemBytes
	sc.tentEpoch[j] = sc.epoch
}

// EnergyAware is the paper-aligned policy: it tries to empty the least
// loaded hosts, pricing every candidate move with the migration energy
// model and choosing, per VM, the admissible target with the lowest
// predicted energy. A move is only taken when the host being drained can
// be fully emptied — half-drained hosts save nothing.
type EnergyAware struct {
	Model CostModel
}

// Name implements Policy.
func (EnergyAware) Name() string { return "energy-aware" }

// Plan implements Policy by flattening the hosts into a View and
// delegating to the shared view planner; both entry points run one
// implementation and plan bit-identical moves. Plan alone fills
// FreedHosts and IdleSavings, from the planner's final resident counts.
func (p EnergyAware) Plan(hosts []HostState, cfg Config) (*Plan, error) {
	if p.Model == nil {
		return nil, errors.New("consolidation: energy-aware policy needs a cost model")
	}
	if err := validateHosts(hosts); err != nil {
		return nil, err
	}
	v := NewView(hosts)
	plan, err := p.planView(v, cfg)
	if err != nil {
		return nil, err
	}
	freeHosts(plan, v, v.work.counts())
	return plan, nil
}

// PlanView implements ViewPolicy. The view's host set is trusted (the
// cluster engine validates at construction); only the structural
// minimum is re-checked.
func (p EnergyAware) PlanView(v *View, cfg Config) (*Plan, error) {
	if p.Model == nil {
		return nil, errors.New("consolidation: energy-aware policy needs a cost model")
	}
	if v.hostCount() < 2 {
		return nil, errors.New("consolidation: need at least two hosts")
	}
	return p.planView(v, cfg)
}

// planView plans against v, leaving the plan's final per-host state in
// v's workspace.
func (p EnergyAware) planView(v *View, cfg Config) (*Plan, error) {
	cfg = cfg.withDefaults()
	w := v.workspace()
	plan := &Plan{}
	pinned := cfg.pinnedSet()

	// Evacuations come first: VMs stranded on crashed hosts are placed
	// before any consolidation work spends the move budget.
	if err := p.evacuateView(w, cfg, plan, pinned); err != nil {
		return nil, err
	}

	// Drain candidates: the live hosts, least loaded first (cheapest to
	// empty). When nothing was evacuated the view's maintained Live is
	// exactly this sequence; otherwise a copy of Order is re-sorted under
	// the post-evacuation aggregates and filtered. Empty and crashed
	// hosts are left out: a crashed host draws no idle power, so
	// emptying it frees nothing, and its residents move through
	// evacuation, not consolidation. No host becomes live during the
	// drain loop, because a drain target must already hold guests.
	//
	// The order-indexed target scan: HeuristicCost's energy is strictly
	// increasing in the destination's busy for a fixed (VM, source), so
	// the cheapest admissible unmutated target is the first admissible
	// host walking the live order busy-ascending — and with NameOrdered,
	// its (busy, name)-first position also reproduces the historical
	// lowest-index tie-break. Hosts the plan has mutated are priced
	// individually as finalists.
	_, fastOK := p.Model.(HeuristicCost)
	fastOK = fastOK && v.NameOrdered
	live := w.liveOrder()

	sc := &w.drain
	for _, si := range live {
		// A host that just received migrations is pinned for this round:
		// re-draining it would move VMs twice and burn energy for nothing.
		if w.received(si) {
			continue
		}
		// A host with a pinned VM (an in-flight migration from an earlier
		// round) can never be fully emptied, and a half-drain saves
		// nothing — skip it until the flight lands.
		if w.hostHasPinned(si, pinned) {
			continue
		}
		moves, ok, err := p.drainView(w, si, cfg, len(plan.Moves), sc, live, fastOK)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue // cannot fully empty this host; leave it untouched
		}
		// Worth-it check: the freed idle power must amortise the drain's
		// energy within the configured horizon.
		var drainCost units.Joules
		for _, m := range moves {
			drainCost += m.Cost.Energy
		}
		if drainCost > units.EnergyOver(v.IdlePower[si], cfg.Horizon) {
			continue
		}
		// Commit: execute the drain against the working state.
		for k, m := range moves {
			ti := sc.moveDst[k]
			vm, found := w.removeVM(si, m.VM)
			if !found {
				return nil, fmt.Errorf("consolidation: internal error, VM %q vanished", m.VM)
			}
			w.addVM(ti, vm)
			plan.Moves = append(plan.Moves, m)
		}
		if cfg.MaxMoves > 0 && len(plan.Moves) >= cfg.MaxMoves {
			break
		}
	}
	plan.MigrationEnergy = moveEnergy(plan.Moves)
	return plan, nil
}

// evacuateView places the VMs named by Config.Evacuate — stranded on
// Down hosts — onto live hosts, hardest (biggest demand) first, each to
// the admissible target with the lowest predicted migration energy.
// Unlike drains, evacuations are unconditional: there is no
// all-or-nothing gate and no payback check — a stranded VM runs nowhere
// until it moves. Empty hosts ARE admissible refuge targets (waking a
// spare beats leaving a VM stranded). A VM with no admissible target
// stays put for this round; the next round retries.
func (p EnergyAware) evacuateView(w *vwork, cfg Config, plan *Plan, pinned map[string]bool) error {
	evac := cfg.evacuateSet()
	if evac == nil {
		return nil
	}
	v := w.v
	hosts := int32(v.hostCount())
	type cand struct {
		vm VMState
		si int32
	}
	var cands []cand
	for i := int32(0); i < hosts; i++ {
		if !v.Down[i] {
			continue
		}
		s, c := v.VMStart[i], v.VMCount[i]
		for k := s; k < s+c; k++ {
			if evac[v.VMName[k]] && !pinned[v.VMName[k]] {
				cands = append(cands, cand{v.vm(k), i})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].vm.BusyVCPUs != cands[j].vm.BusyVCPUs {
			return cands[i].vm.BusyVCPUs > cands[j].vm.BusyVCPUs
		}
		return cands[i].vm.Name < cands[j].vm.Name
	})
	for _, c := range cands {
		if cfg.MaxMoves > 0 && len(plan.Moves) >= cfg.MaxMoves {
			return nil
		}
		best := int32(-1)
		var bestCost MigrationCost
		srcBusy, _ := w.load(c.si)
		for j := int32(0); j < hosts; j++ {
			if j == c.si || v.Down[j] {
				continue
			}
			busy, mem := w.load(j)
			if busy+c.vm.BusyVCPUs > float64(v.Threads[j])*cfg.CPUCap ||
				mem+c.vm.MemBytes > v.MemCap[j] {
				continue
			}
			cost, err := p.Model.Cost(c.vm, srcBusy-c.vm.BusyVCPUs, busy)
			if err != nil {
				return err
			}
			if best < 0 || cost.Energy < bestCost.Energy {
				best = j
				bestCost = cost
			}
		}
		if best < 0 {
			continue // unplaceable this round; the next tick retries
		}
		vm, found := w.removeVM(c.si, c.vm.Name)
		if !found {
			return fmt.Errorf("consolidation: internal error, VM %q vanished", c.vm.Name)
		}
		w.addVM(best, vm)
		plan.Moves = append(plan.Moves, Move{VM: vm.Name, From: v.HostName[c.si], To: v.HostName[best], Cost: bestCost})
	}
	return nil
}

// considerTarget prices host j as a drain target for vm and folds it
// into the running best under the historical tie-breaking: strictly
// lower energy wins, equal energy keeps the lowest host index.
func (p EnergyAware) considerTarget(w *vwork, sc *viewDrainScratch, si, j int32, vm VMState, srcArg float64, cfg Config, best int32, bestCost MigrationCost) (int32, MigrationCost, error) {
	if j < 0 || j == si {
		return best, bestCost, nil
	}
	if w.count(j) == 0 || w.v.Down[j] {
		return best, bestCost, nil
	}
	busy, mem := sc.effective(w, j)
	if busy+vm.BusyVCPUs > float64(w.v.Threads[j])*cfg.CPUCap ||
		mem+vm.MemBytes > w.v.MemCap[j] {
		return best, bestCost, nil
	}
	cost, err := p.Model.Cost(vm, srcArg, busy)
	if err != nil {
		return best, bestCost, err
	}
	if best < 0 || cost.Energy < bestCost.Energy || (cost.Energy == bestCost.Energy && j < best) {
		return j, cost, nil
	}
	return best, bestCost, nil
}

// drainView plans the complete evacuation of host si, tentatively,
// against the scratch deltas — the working state itself is untouched
// until the caller commits. It returns ok=false when some VM has no
// admissible target or the move budget would be exceeded.
func (p EnergyAware) drainView(w *vwork, si int32, cfg Config, movesSoFar int, sc *viewDrainScratch, liveOrder []int32, fastOK bool) ([]Move, bool, error) {
	v := w.v
	hosts := int32(v.hostCount())
	sc.epoch++
	sc.moves = sc.moves[:0]
	sc.moveDst = sc.moveDst[:0]
	sc.tentTouched = sc.tentTouched[:0]
	sc.srcVMs = w.appendVMs(sc.srcVMs[:0], si)

	// Biggest VMs first: they are the hardest to place.
	sc.order = append(sc.order[:0], sc.srcVMs...)
	slices.SortFunc(sc.order, func(a, b VMState) int {
		switch {
		case a.BusyVCPUs > b.BusyVCPUs:
			return -1
		case a.BusyVCPUs != b.BusyVCPUs:
			return 1
		}
		return strings.Compare(a.Name, b.Name)
	})

	for _, vm := range sc.order {
		if cfg.MaxMoves > 0 && movesSoFar+len(sc.moves) >= cfg.MaxMoves {
			return nil, false, nil
		}
		// The source's projected load: the residents not yet placed,
		// re-summed in list order, minus the mover itself.
		srcBusy := 0.0
		for _, r := range sc.srcVMs {
			srcBusy += r.BusyVCPUs
		}
		srcArg := srcBusy - vm.BusyVCPUs
		best := int32(-1)
		var bestCost MigrationCost
		if fastOK && srcArg >= 0 {
			// Order-indexed scan: the first admissible unmutated host in
			// busy-ascending order is the cheapest unmutated target (cost
			// monotone in destination busy; ties resolve to the lowest
			// name = lowest index under NameOrdered). Mutated hosts —
			// committed (touched) or tentative this drain (tentTouched) —
			// are bounded by the move budget and priced individually.
			// (HeuristicCost's negative-load special case flattens the
			// cost curve, so srcArg < 0 falls back to the linear scan.)
			// An unmutated host's aggregates are the view's, and it is
			// still live, so the walk reads the view directly.
			cand := int32(-1)
			for _, j := range liveOrder {
				if j == si || w.slot[j] != 0 || sc.tentEpoch[j] == sc.epoch {
					continue
				}
				if v.Busy[j]+vm.BusyVCPUs > float64(v.Threads[j])*cfg.CPUCap ||
					v.Mem[j]+vm.MemBytes > v.MemCap[j] {
					continue
				}
				cand = j
				break
			}
			var err error
			best, bestCost, err = p.considerTarget(w, sc, si, cand, vm, srcArg, cfg, best, bestCost)
			if err != nil {
				return nil, false, err
			}
			for _, j := range w.touched {
				best, bestCost, err = p.considerTarget(w, sc, si, j, vm, srcArg, cfg, best, bestCost)
				if err != nil {
					return nil, false, err
				}
			}
			for _, j := range sc.tentTouched {
				if w.slot[j] != 0 {
					continue // already priced above
				}
				best, bestCost, err = p.considerTarget(w, sc, si, j, vm, srcArg, cfg, best, bestCost)
				if err != nil {
					return nil, false, err
				}
			}
		} else {
			for j := int32(0); j < hosts; j++ {
				if j == si {
					continue
				}
				// Never wake an already-empty host to fill it: that defeats
				// consolidation. (Empty hosts never receive tentative adds,
				// so the resident count needs no delta tracking.) Crashed
				// hosts take no guests at all.
				if w.count(j) == 0 || v.Down[j] {
					continue
				}
				busy, mem := sc.effective(w, j)
				if busy+vm.BusyVCPUs > float64(v.Threads[j])*cfg.CPUCap ||
					mem+vm.MemBytes > v.MemCap[j] {
					continue
				}
				cost, err := p.Model.Cost(vm, srcArg, busy)
				if err != nil {
					return nil, false, err
				}
				if best < 0 || cost.Energy < bestCost.Energy {
					best = j
					bestCost = cost
				}
			}
		}
		if best < 0 {
			return nil, false, nil
		}
		if _, found := removeVMSlice(&sc.srcVMs, vm.Name); !found {
			return nil, false, fmt.Errorf("consolidation: internal error draining %q", vm.Name)
		}
		sc.add(w, best, vm)
		sc.moves = append(sc.moves, Move{VM: vm.Name, From: v.HostName[si], To: v.HostName[best], Cost: bestCost})
		sc.moveDst = append(sc.moveDst, best)
	}
	return sc.moves, true, nil
}

// FirstFitDecreasing is the energy-blind baseline: sort all VMs by CPU
// demand and re-pack them onto hosts first-fit, then express the result as
// moves. It is the classic bin-packing consolidation the related work uses
// and the paper's argument target — it never looks at migration energy, so
// it will happily move a 95%-dirty VM onto a busy host. A VM no bin
// takes, or one the round reaches after its move budget is spent, stays
// on its host, and a move into a host that the VMs left in place push
// past its cap is undone.
type FirstFitDecreasing struct {
	// Model, when set, prices the resulting moves (for comparison); the
	// policy itself ignores the prices.
	Model CostModel
}

// Name implements Policy.
func (FirstFitDecreasing) Name() string { return "first-fit-decreasing" }

// Plan implements Policy via the shared view planner, filling
// FreedHosts and IdleSavings (see EnergyAware.Plan).
func (p FirstFitDecreasing) Plan(hosts []HostState, cfg Config) (*Plan, error) {
	if err := validateHosts(hosts); err != nil {
		return nil, err
	}
	v := NewView(hosts)
	plan, cnt, err := p.planView(v, cfg)
	if err != nil {
		return nil, err
	}
	freeHosts(plan, v, cnt)
	return plan, nil
}

// PlanView implements ViewPolicy.
func (p FirstFitDecreasing) PlanView(v *View, cfg Config) (*Plan, error) {
	if v.hostCount() < 2 {
		return nil, errors.New("consolidation: need at least two hosts")
	}
	plan, _, err := p.planView(v, cfg)
	return plan, err
}

// planView packs v and returns the plan with the final resident count
// of every bin.
func (p FirstFitDecreasing) planView(v *View, cfg Config) (*Plan, []int32, error) {
	cfg = cfg.withDefaults()
	plan := &Plan{}
	pinned := cfg.pinnedSet()
	evac := cfg.evacuateSet()
	n := v.hostCount()

	// Origin loads for move pricing come straight from the read-only
	// view aggregates — the same sums BusyThreads would return.
	preBusy := v.Busy

	// Gather every movable VM with its origin. Pinned VMs (in-flight
	// migrations from a previous round) are not re-packed: they keep
	// their bin below and just consume its capacity.
	type placed struct {
		vm   VMState
		from int32
	}
	var all []placed
	for i := int32(0); i < int32(n); i++ {
		s, c := v.VMStart[i], v.VMCount[i]
		for k := s; k < s+c; k++ {
			if pinned[v.VMName[k]] {
				continue
			}
			all = append(all, placed{v.vm(k), i})
		}
	}
	// Evacuees pack first — a stranded VM runs nowhere until placed, so
	// it must not lose its slot to ordinary re-packing under MaxMoves.
	sort.Slice(all, func(i, j int) bool {
		ei, ej := evac[all[i].vm.Name], evac[all[j].vm.Name]
		if ei != ej {
			return ei
		}
		if all[i].vm.BusyVCPUs != all[j].vm.BusyVCPUs {
			return all[i].vm.BusyVCPUs > all[j].vm.BusyVCPUs
		}
		return all[i].vm.Name < all[j].vm.Name
	})

	// Re-pack into empty bins in host order; pinned VMs pre-occupy their
	// current bin. Bin loads start from the pinned slots summed in slot
	// order and grow in placement order — bit-identical to re-summing
	// the bin's VM list after each placement.
	binBusy := make([]float64, n)
	binMem := make([]units.Bytes, n)
	binCnt := make([]int32, n)
	for i := 0; i < n; i++ {
		s, c := v.VMStart[i], v.VMCount[i]
		for k := s; k < s+c; k++ {
			if pinned[v.VMName[k]] {
				binBusy[i] += v.VMBusy[k]
				binMem[i] += v.VMMem[k]
				binCnt[i]++
			}
		}
	}
	// Move j takes all[src[j]] to bin dst[j].
	var src []int
	var dst []int32
	stuck := false
	for idx, pl := range all {
		// Once the move budget is spent, no bin takes a VM.
		spent := cfg.MaxMoves > 0 && len(plan.Moves) >= cfg.MaxMoves
		placedAt := int32(-1)
		for i := 0; i < n && !spent; i++ {
			if v.Down[i] {
				continue // crashed bins take no guests
			}
			if binBusy[i]+pl.vm.BusyVCPUs <= float64(v.Threads[i])*cfg.CPUCap &&
				binMem[i]+pl.vm.MemBytes <= v.MemCap[i] {
				binBusy[i] += pl.vm.BusyVCPUs
				binMem[i] += pl.vm.MemBytes
				binCnt[i]++
				placedAt = int32(i)
				break
			}
		}
		if placedAt < 0 {
			// No bin takes the VM: it stays on its host, which may now
			// end the round past its cap (see below).
			binBusy[pl.from] += pl.vm.BusyVCPUs
			binMem[pl.from] += pl.vm.MemBytes
			binCnt[pl.from]++
			stuck = true
			continue
		}
		if placedAt != pl.from {
			move := Move{VM: pl.vm.Name, From: v.HostName[pl.from], To: v.HostName[placedAt]}
			if p.Model != nil {
				srcBusy := preBusy[pl.from] - pl.vm.BusyVCPUs
				dstBusy := binBusy[placedAt] - pl.vm.BusyVCPUs
				cost, err := p.Model.Cost(pl.vm, srcBusy, dstBusy)
				if err != nil {
					return nil, nil, err
				}
				move.Cost = cost
			}
			plan.Moves = append(plan.Moves, move)
			src = append(src, idx)
			dst = append(dst, placedAt)
		}
	}
	// A VM left on its host can push the host past its cap. A move into
	// a bin past its cap is undone, which returns its VM to its own bin,
	// until every kept move lands in a bin within its cap. Kept moves
	// keep the price they were packed at.
	for undone := stuck; undone; {
		undone = false
		k := 0
		for j, to := range dst {
			pl := all[src[j]]
			if binBusy[to] > float64(v.Threads[to])*cfg.CPUCap || binMem[to] > v.MemCap[to] {
				binBusy[to] -= pl.vm.BusyVCPUs
				binMem[to] -= pl.vm.MemBytes
				binCnt[to]--
				binBusy[pl.from] += pl.vm.BusyVCPUs
				binMem[pl.from] += pl.vm.MemBytes
				binCnt[pl.from]++
				undone = true
				continue
			}
			plan.Moves[k], src[k], dst[k] = plan.Moves[j], src[j], to
			k++
		}
		plan.Moves, src, dst = plan.Moves[:k], src[:k], dst[:k]
	}
	plan.MigrationEnergy = moveEnergy(plan.Moves)
	return plan, binCnt, nil
}

// Compile-time interface checks: both built-in policies plan directly
// against views.
var (
	_ ViewPolicy = EnergyAware{}
	_ ViewPolicy = FirstFitDecreasing{}
)
