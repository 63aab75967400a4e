package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/consolidation"
	"repro/internal/migration"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vm"
	"repro/internal/workload"
)

// seedStride separates the derived seeds of a run's migrations; it is
// the plan executor's historical stride, which keeps the lowered
// scenarios — and therefore the run-cache keys and golden outputs —
// unchanged.
const seedStride = 607

// hostRT is a host's runtime state: its resolved spec plus the resident
// guests, kept in name order for deterministic iteration. A run builds
// it at the host's first touch (engine.host).
type hostRT struct {
	*resolved
	vms []*vmRT
	// down marks a crashed host: no dispatch may target it, its idle
	// floor leaves the power trace, and its residents are evacuation
	// candidates.
	down bool
	// incoming lists the flights bound for this host, in dispatch order
	// (append at dispatch commit, remove at land or abort), so a view
	// refresh lays out the host's destination reservations without a map.
	incoming []*flight

	// Incremental-view bookkeeping (see view.go): the host's index in
	// the engine's SoA policy view, its varying mark, and the counts of
	// phase-driven residents and inbound reservations that keep it in
	// the varying set.
	vi        int32
	varyMark  bool
	phasedRes int
	phasedInc int
}

// vmRT is a guest's runtime state, including the phase cursor that makes
// repeated busyAt/dirtyAt evaluation O(1) for the engine's monotonically
// advancing clock instead of a front-to-back walk per call.
type vmRT struct {
	VM
	host      *hostRT
	migrating bool
	// phased marks a guest with a workload timeline: its demand varies
	// continuously, so its host refreshes in the view every tick.
	phased bool
	// Phase cursor: pi is the phase the last evaluation landed in,
	// pstart the cluster time that phase starts at. The engine queries
	// only at its advancing clock, but a query before pstart still resets
	// the cursor, so every instant evaluates exactly as VM.factor does.
	pi     int
	pstart time.Duration
}

// factor evaluates the VM's intensity at cluster time t through the
// cursor. It computes exactly what VM.factor computes — same integer
// offsets, same float division — but resumes from the last phase
// instead of walking the timeline from the front on every call.
func (v *vmRT) factor(t time.Duration) float64 {
	if len(v.Phases) == 0 {
		return 1
	}
	if t < v.pstart {
		v.pi, v.pstart = 0, 0
	}
	for v.pi < len(v.Phases) {
		d := v.Phases[v.pi].Duration
		if off := t - v.pstart; off < d {
			return v.Phases[v.pi].Factor(float64(off) / float64(d))
		}
		v.pi++
		v.pstart += d
	}
	return v.Phases[len(v.Phases)-1].Factor(1)
}

// busyAt returns the VM's CPU demand at cluster time t.
func (v *vmRT) busyAt(t time.Duration) float64 {
	return v.BusyVCPUs * v.factor(t)
}

// dirtyAt returns the VM's dirty ratio at cluster time t, clamped to a
// physical fraction.
func (v *vmRT) dirtyAt(t time.Duration) units.Fraction {
	return units.Fraction(float64(v.DirtyRatio) * v.factor(t)).Clamp()
}

// busyAtExcluding sums the host's CPU demand at time t, leaving out one
// guest (the one about to migrate). Guests are summed in name order so
// the result is reproducible.
func (h *hostRT) busyAtExcluding(t time.Duration, skip *vmRT) float64 {
	s := 0.0
	for _, v := range h.vms {
		if v == skip {
			continue
		}
		s += v.busyAt(t)
	}
	return s
}

// Flight lifecycle: the fixed-span initiation head, the link-shared
// transfer, the fixed-span activation tail.
const (
	fHead = iota
	fTransfer
	fTail
)

// flight is one in-progress migration on the cluster timeline.
type flight struct {
	idx      int
	vm       *vmRT
	from, to *hostRT
	sw       string
	pair     string
	resName  string // vm.Name + "+incoming", precomputed for the view
	run      *sim.RunResult

	state            int
	start            time.Duration
	headEnd          time.Duration
	work             time.Duration // remaining intrinsic transfer time
	intrinsic        time.Duration // total intrinsic transfer time
	tailSpan         time.Duration
	transferEnd, end time.Duration

	// Scheduler bookkeeping: the fixed-instant key while in the timed
	// heap (head/tail), the virtual completion key while in a switch
	// heap (transfer), and the current heap position.
	due      time.Duration
	virtDone time.Duration
	heapIdx  int
}

// indexedRec pairs a finished migration record with its dispatch index
// so the report can list the timeline in dispatch order.
type indexedRec struct {
	idx int
	rec MigrationRecord
}

type engine struct {
	cfg   Config    // its layout is set, and shared with every other run of cfg
	facts *runFacts // the layout's, shared likewise
	ctx   context.Context
	done  <-chan struct{} // ctx.Done(), captured once; nil when uncancellable
	// hosts and guests are this run's runtime state, in the layout's
	// order, so the layout's name indices index them. Both start nil;
	// host materializes a host and its t=0 residents on first touch, and
	// touched lists the hosts it materialized, in touch order. A host
	// never touched is as it was at t=0, which the facts describe.
	hosts   []*hostRT
	guests  []*vmRT
	touched []int32
	now     time.Duration
	tick    time.Duration
	pending []int // indices of the explicit moves not yet dispatched, in dispatch order
	si      int   // cursor into facts.shifts
	nextIdx int
	recs    []indexedRec
	rep     *Report

	// Scheduling state (see schedule.go): fixed-instant events in one
	// indexed min-heap, transfers per switch in virtual time.
	timed    flightHeap
	switches map[string]*swState
	active   []*swState
	due      []*flight // per-fire scratch, reused
	peak     int       // the most flights airborne at once

	// fail is the failure-injection state (see failure.go). The airborne
	// list inside is maintained unconditionally; the event schedule and
	// orphan maps exist only when Config.Failures is non-empty.
	fail failState

	// Pinned and evacuation list scratch, reused every policy round.
	pinned   []string
	evacuate []string

	// Incremental policy-view state (see view.go). vp is the policy as a
	// view planner; it is nil, and no view is kept, without a policy.
	vp      consolidation.ViewPolicy
	pview   *consolidation.View
	varying []int32 // hosts with phase-driven demand, marked every tick
	// viewEvents flags plan-input changes that are not per-host state
	// (an abort cool-down expiring); havePlan/lastPlanMoves/lastPinned
	// let a clean tick reuse the previous round's (empty) plan.
	viewEvents    bool
	havePlan      bool
	lastPlanMoves int
	lastPinned    int
	downHosts     []*hostRT
}

// Run executes one cluster timeline to completion and returns its
// report. A config Prepare laid out runs without being checked again;
// any other config is validated and laid out first. The result is
// bit-identical across runs, worker counts, cache settings and whether
// the config was prepared.
func Run(cfg Config) (*Report, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.run()
}

// newEngine builds a run's mutable state — the host and VM runtime
// arrays, the policy view and the heaps — from cfg's layout. A config
// without a layout that fits it is validated and laid out here, once
// per run. A policy that cannot plan against the view is refused. No
// host is built here but those a policy round refreshes every tick:
// building a run of a prepared config costs the same at any fleet size,
// bar the view, which is a finished run's rewound or else a copy of the
// layout's (layout.takeView).
func newEngine(cfg Config) (*engine, error) {
	if !cfg.layout.fits(cfg) {
		var err error
		if cfg, err = Prepare(cfg); err != nil {
			return nil, err
		}
	}
	l := cfg.layout
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	e := &engine{
		cfg:      cfg,
		facts:    l.runFacts(),
		ctx:      ctx,
		done:     ctx.Done(),
		hosts:    make([]*hostRT, len(l.hosts)),
		guests:   make([]*vmRT, l.nvms),
		rep:      &Report{},
		timed:    flightHeap{key: dueKey},
		switches: make(map[string]*swState),
	}
	e.initFailures(cfg.Failures)
	if cfg.Policy != nil {
		vp, ok := cfg.Policy.(consolidation.ViewPolicy)
		if !ok {
			return nil, fmt.Errorf("cluster: policy %s does not implement consolidation.ViewPolicy; the engine plans only against its view", cfg.Policy.Name())
		}
		e.vp = vp
		e.pview = l.takeView()
		for _, i := range e.facts.phased {
			e.markHostVarying(e.host(i))
		}
	}
	// Explicit moves dispatch in (At, spec order); the stable sort keeps
	// same-instant moves in the order the author wrote them.
	if len(cfg.Moves) > 0 {
		e.pending = inOrder(len(cfg.Moves), func(i int) time.Duration { return cfg.Moves[i].At })
	}
	return e, nil
}

// host returns host i's runtime state, materializing the host and its
// t=0 residents on the first touch. Every engine path that reaches a
// host by name or view index comes through here; the varying set and
// the touched list hold only hosts it built.
func (e *engine) host(i int32) *hostRT {
	if h := e.hosts[i]; h != nil {
		return h
	}
	r := e.cfg.layout.hosts[i]
	h := &hostRT{resolved: r, vi: i}
	if len(r.VMs) > 0 {
		k := e.facts.vmStart[i]
		vs := make([]vmRT, len(r.VMs))
		h.vms = make([]*vmRT, len(r.VMs))
		for j, v := range r.VMs {
			vr := &vs[j]
			vr.VM, vr.host, vr.phased = v, h, len(v.Phases) > 0
			if vr.phased {
				h.phasedRes++
			}
			h.vms[j] = vr
			e.guests[k+int32(j)] = vr
		}
	}
	e.hosts[i] = h
	e.touched = append(e.touched, i)
	return h
}

// phaseLabel names a phase for the shift record.
func phaseLabel(p workload.Phase, i int) string {
	if p.Name != "" {
		return p.Name
	}
	return fmt.Sprintf("%s%d", p.Kind, i)
}

// run drives the discrete-event loop: find the next instant anything
// happens, advance the shared-link transfers to it, then fire what is
// due — completions first, then phase shifts, then new dispatches.
func (e *engine) run() (*Report, error) {
	for {
		// Cancellation boundary: one non-blocking poll per event (the
		// checks vanish for background contexts, whose Done is nil).
		if e.done != nil {
			select {
			case <-e.done:
				return nil, e.ctx.Err()
			default:
			}
		}
		t, ok := e.nextEventTime()
		if !ok {
			break
		}
		e.advance(t)
		if err := e.fire(t); err != nil {
			return nil, err
		}
	}
	e.finish()
	if e.pview != nil {
		// The next run of the layout may take the view from here on.
		e.cfg.layout.keepView(e.pview)
		e.pview = nil
	}
	return e.rep, nil
}

// nextEventTime returns the earliest instant with something due: the
// next policy tick, explicit dispatch or phase shift (each O(1)), the
// top of the fixed-instant event heap, and each traffic-carrying
// switch's projected next transfer completion (O(1) per switch).
func (e *engine) nextEventTime() (time.Duration, bool) {
	t, ok := time.Duration(math.MaxInt64), false
	consider := func(c time.Duration) {
		if c < t {
			t = c
		}
		ok = true
	}
	if e.cfg.Policy != nil && e.tick < e.cfg.Horizon {
		consider(e.tick)
	}
	if len(e.pending) > 0 {
		consider(e.cfg.Moves[e.pending[0]].At)
	}
	if e.si < len(e.facts.shifts) {
		consider(e.facts.shifts[e.si].At)
	}
	if e.fail.fi < len(e.fail.events) {
		consider(e.fail.events[e.fail.fi].At)
	}
	if len(e.timed.fs) > 0 {
		consider(e.timed.fs[0].due)
	}
	for _, s := range e.active {
		if s.down {
			continue // stalled: the outage froze this link's clock
		}
		consider(s.nextAt(e.now))
	}
	return t, ok
}

// advance moves the clock to t, draining every traffic-carrying switch
// by its equal share of the elapsed span: virt += dt/occ, one integer
// division per switch instead of one per flight. Occupancy is constant
// between events, so the division is the exact floor the linear
// reference applies to each flight's remaining work; a due flight's
// remaining work (virtDone − virt) reaches exactly zero.
func (e *engine) advance(t time.Duration) {
	dt := t - e.now
	if dt > 0 {
		for _, s := range e.active {
			if s.down {
				continue // outage: virtual time freezes, work is preserved
			}
			s.virt += dt / s.occ()
		}
	}
	e.now = t
}

// transition advances one flight through every lifecycle phase due at
// instant t (a flight may cascade through zero-span phases within one
// instant), re-registering it with the scheduler wherever it comes to
// rest. Callers hand in flights already removed from their heap.
func (e *engine) transition(f *flight, t time.Duration) {
	for {
		switch f.state {
		case fHead:
			if f.headEnd > t {
				e.timedPush(f, f.headEnd)
				return
			}
			f.state = fTransfer
			if f.work > 0 {
				s := e.switchState(f.sw)
				f.virtDone = s.virt + f.work
				s.heap.push(f)
				e.activate(s)
				return
			}
			// Zero-length transfer: complete in the same instant, exactly
			// like the linear loop's cascade.
		case fTransfer:
			// Only reached when the transfer is complete at t: popped from
			// its switch heap by fire, or cascading with zero work.
			f.transferEnd = t
			f.state = fTail
			f.end = t + f.tailSpan
		default:
			if f.end > t {
				e.timedPush(f, f.end)
				return
			}
			e.land(f, t)
			return
		}
	}
}

// fire processes everything due at instant t.
func (e *engine) fire(t time.Duration) error {
	// 1. Flight transitions. Collect every due flight — fixed-instant
	// head/tail events from the timed heap, transfer completions from
	// each active switch's virtual-time heap — then process them in
	// dispatch order, matching the linear reference.
	e.due = e.due[:0]
	for len(e.timed.fs) > 0 && e.timed.fs[0].due <= t {
		e.due = append(e.due, e.timed.pop())
	}
	for _, s := range e.active {
		for len(s.heap.fs) > 0 && s.heap.fs[0].virtDone <= s.virt {
			e.due = append(e.due, s.heap.pop())
		}
	}
	if len(e.due) > 1 {
		sort.Slice(e.due, func(i, j int) bool { return e.due[i].idx < e.due[j].idx })
	}
	for _, f := range e.due {
		e.transition(f, t)
	}

	// 2. Failure events: same-instant completions above beat the
	// failure; shifts and dispatches below observe the post-failure
	// state. Aborts may empty switch heaps, so compaction follows.
	e.applyFailures(t)
	e.compactActive()

	// 3. Workload phase transitions.
	for e.si < len(e.facts.shifts) && e.facts.shifts[e.si].At <= t {
		e.rep.Shifts = append(e.rep.Shifts, e.facts.shifts[e.si])
		e.si++
	}

	// 4. New dispatches: the policy tick's plan, then explicit moves.
	return e.dispatchDue(t)
}

// dispatchDue runs the policy round or the explicit moves due at instant
// t and dispatches the resulting batch.
func (e *engine) dispatchDue(t time.Duration) error {
	var batch []TimedMove
	var idx []int
	if e.cfg.Policy != nil && e.tick <= t && e.tick < e.cfg.Horizon {
		moves, pinnedLen, err := e.planRound(t)
		if err != nil {
			return err
		}
		for _, m := range moves {
			batch = append(batch, TimedMove{VM: m.VM, From: m.From, To: m.To, At: t})
		}
		e.rep.Ticks = append(e.rep.Ticks, TickRecord{At: t, Moves: len(moves), Pinned: pinnedLen})
		e.tick += e.cfg.Tick
		// Abort cool-downs last exactly one round: this tick planned
		// around them, the next is free to move the VM again. Dropping a
		// non-empty set changes the next round's pinned list without any
		// host event, so it must defeat clean-tick plan reuse.
		if len(e.fail.repin) > 0 {
			e.viewEvents = true
			for name := range e.fail.repin {
				delete(e.fail.repin, name)
			}
		}
	}
	for len(e.pending) > 0 && e.cfg.Moves[e.pending[0]].At <= t {
		batch = append(batch, e.cfg.Moves[e.pending[0]])
		idx = append(idx, e.pending[0])
		e.pending = e.pending[1:]
	}
	if len(batch) > 0 {
		return e.dispatch(t, batch, idx)
	}
	return nil
}

// planRound runs one policy round at instant t against the
// incrementally maintained view and returns its moves plus the
// pinned-list length for the tick record. On a clean tick — no host
// refreshed, no pinned/evacuate input changed, and the previous round
// planned zero moves — the plan is a pure function of unchanged inputs,
// so the round reuses the previous (empty) result without calling the
// policy. An expiring abort cool-down changes the pinned list without
// any host event; viewEvents carries it past the reuse.
func (e *engine) planRound(t time.Duration) ([]consolidation.Move, int, error) {
	if !e.viewTick(t) && !e.viewEvents && e.havePlan && e.lastPlanMoves == 0 {
		return nil, e.lastPinned, nil
	}
	e.viewEvents = false
	pinned, evac := e.viewPinnedEvac()
	pc := e.cfg.PolicyConfig
	pc.Pinned = pinned
	pc.Evacuate = evac
	plan, err := e.vp.PlanView(e.pview, pc)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: policy %s at t=%v: %w", e.cfg.Policy.Name(), t, err)
	}
	e.havePlan, e.lastPlanMoves, e.lastPinned = true, len(plan.Moves), len(pinned)
	return plan.Moves, len(pinned), nil
}

// lowerMove translates move idx of a run — m.VM leaving m.From for
// m.To, on machine pair pair — into a two-host testbed scenario. The
// residual CPU demand on each end, the guest's own excluded, becomes
// co-located load in 4-vCPU load-VM units; a dirty ratio above 0.2
// selects the memory-dirtying workload; the seed derives from idx. The
// pair — the topology — is part of the scenario and therefore of the
// run-cache key. The engine and the plan executor both lower through
// here, so one move lowers alike on either path.
func lowerMove(kind migration.Kind, seed int64, idx int, pair string, m consolidation.Move, srcBusy, dstBusy float64, dirty units.Fraction) sim.Scenario {
	sc := sim.Scenario{
		Name:          fmt.Sprintf("cluster/%s->%s/%s", m.From, m.To, m.VM),
		Pair:          pair,
		Kind:          kind,
		SourceLoadVMs: int(math.Round(srcBusy / 4)),
		TargetLoadVMs: int(math.Round(dstBusy / 4)),
		Seed:          seed + int64(idx)*seedStride,
	}
	if dirty > 0.2 {
		sc.MigratingType = vm.TypeMigratingMem
		sc.MigratingProfile = workload.PagedirtierProfile(dirty)
	} else {
		sc.MigratingType = vm.TypeMigratingCPU
		sc.MigratingProfile = workload.MatrixMultProfile()
	}
	return sc
}

// hostNamed returns the host called name, or nil.
func (e *engine) hostNamed(name string) *hostRT {
	if i, ok := e.cfg.layout.hostIdx[name]; ok {
		return e.host(i)
	}
	return nil
}

// guestNamed returns the VM called name, or nil. A guest not yet built
// is still on its initial host, which building builds it.
func (e *engine) guestNamed(name string) *vmRT {
	k, ok := e.cfg.layout.vmIdx[name]
	if !ok {
		return nil
	}
	if e.guests[k] == nil {
		e.host(e.facts.vmHost[k])
	}
	return e.guests[k]
}

// checkMove resolves and sanity-checks one dispatching move. A refusal
// names the move's field at fault and comes without its Index.
func (e *engine) checkMove(m TimedMove) (*vmRT, *hostRT, *InputError) {
	v := e.guestNamed(m.VM)
	if v == nil {
		return nil, nil, refuse("Moves", -1, "VM", "unknown VM %q", m.VM)
	}
	if v.migrating {
		return nil, nil, refuse("Moves", -1, "At", "VM %q is already migrating", m.VM)
	}
	if v.host.Name != m.From {
		return nil, nil, refuse("Moves", -1, "From", "VM %q is on host %q, not %q", m.VM, v.host.Name, m.From)
	}
	dst := e.hostNamed(m.To)
	if dst == nil {
		return nil, nil, refuse("Moves", -1, "To", "unknown host %q", m.To)
	}
	if dst == v.host {
		return nil, nil, refuse("Moves", -1, "To", "move of %q does not change hosts", m.VM)
	}
	if v.host.sw != dst.sw {
		return nil, nil, refuse("Moves", -1, "To", "no migration path from %s (%s) to %s (%s): different switches",
			v.host.Name, v.host.sw, dst.Name, dst.sw)
	}
	// Failure-aware admission: a crashed host takes no guests, a downed
	// switch carries no new transfers. Moving *off* a crashed host is
	// allowed — that is what an evacuation is.
	if dst.down {
		return nil, nil, refuse("Moves", -1, "To", "destination host %q is down", m.To)
	}
	if e.switchDown(dst.sw) {
		return nil, nil, refuse("Moves", -1, "At", "switch %q is down, refusing to admit %q", dst.sw, m.VM)
	}
	return v, dst, nil
}

// dispatch admits a batch of concurrent migrations at instant t: every
// move is checked and lowered against the pre-batch state, the batch's
// kernel runs fan out to the worker pool (each seeded by its dispatch
// index), and the flights then become engine state, each with its first
// scheduler event, which derives from its kernel result.
//
// The batch is transactional: checks and lowering stage the batch, and
// nothing — not the migrating flags, the incoming reservations, the
// dispatch counter, nor the scheduler heaps — mutates until every kernel
// run has succeeded. A simulate failure therefore leaves the engine
// exactly as it was, so abort/retry layers above never observe a
// half-dispatched batch.
//
// moveIdx holds each explicit move's index in Config.Moves, and is nil
// for a planned batch: a refused explicit move fails with its
// *InputError, a refused planned move with a plain error.
func (e *engine) dispatch(t time.Duration, batch []TimedMove, moveIdx []int) error {
	flights := make([]*flight, 0, len(batch))
	scs := make([]sim.Scenario, 0, len(batch))
	staged := make(map[string]bool, len(batch))
	for k, m := range batch {
		v, dst, err := e.checkMove(m)
		// A duplicate move of the same VM later in the batch must trip
		// the same guard a committed flight would. Lowering is
		// unaffected: it reads demands, so every scenario in the batch
		// sees the dispatch-instant state.
		if err == nil && staged[m.VM] {
			err = refuse("Moves", -1, "At", "VM %q is already migrating", m.VM)
		}
		if err != nil {
			if moveIdx == nil {
				return fmt.Errorf("cluster: %w", err.Err)
			}
			err.Index = moveIdx[k]
			return err
		}
		staged[m.VM] = true
		idx := e.nextIdx + len(flights)
		sc := lowerMove(e.cfg.Kind, e.cfg.Seed, idx, v.host.Machine+"/"+dst.Machine,
			consolidation.Move{VM: v.Name, From: v.host.Name, To: dst.Name},
			v.host.busyAtExcluding(t, v), dst.busyAtExcluding(t, nil), v.dirtyAt(t))
		f := &flight{
			idx: idx, vm: v, from: v.host, to: dst,
			sw: dst.sw, pair: sc.Pair, start: t,
			resName: v.Name + "+incoming", heapIdx: -1,
		}
		flights = append(flights, f)
		scs = append(scs, sc)
	}
	runs, err := e.simulate(flights, moveIdx, scs)
	if err != nil {
		return err // nothing committed: the engine state is untouched
	}
	for i, run := range runs {
		f := flights[i]
		f.run = run
		f.headEnd = t + (run.Bounds.TS - run.Bounds.MS)
		f.work = run.Bounds.TE - run.Bounds.TS
		f.intrinsic = f.work
		f.tailSpan = run.Bounds.ME - run.Bounds.TE
	}
	// Commit: the batch becomes engine state only from here on.
	e.nextIdx += len(flights)
	for _, f := range flights {
		f.vm.migrating = true
		f.to.incoming = append(f.to.incoming, f)
		e.fail.airborne = append(e.fail.airborne, f)
		if e.vp != nil {
			e.pview.Mark(f.to.vi)
			if f.vm.phased {
				f.to.phasedInc++
				e.markHostVarying(f.to)
			}
		}
		e.timedPush(f, f.headEnd)
	}
	e.peak = max(e.peak, len(e.fail.airborne))
	return nil
}

// simulate answers a batch's lowered scenarios through the cache in
// parallel, wrapping any failure with the identity of its move. Load VMs
// that do not fit an end of an explicit move's lowered migration are the
// move's own input: that failure is an *InputError at the move's From or
// To. The engine reads only each run's summary, so a persistent-tier hit
// decodes no trace. The engine's context bounds the whole fan-out: once
// it is done, no further kernel run dispatches and running ones abandon
// at their next step.
func (e *engine) simulate(flights []*flight, moveIdx []int, scs []sim.Scenario) ([]*sim.RunResult, error) {
	run := func(sc sim.Scenario) (*sim.RunResult, error) {
		return e.cfg.Cache.SummaryCtx(e.ctx, sc)
	}
	if e.cfg.simOverride != nil {
		run = e.cfg.simOverride
	}
	return parallel.MapCtx(e.ctx, e.cfg.Workers, len(scs), func(i int) (*sim.RunResult, error) {
		res, err := run(scs[i])
		if err == nil {
			return res, nil
		}
		err = fmt.Errorf("executing move %d (%s): %w", flights[i].idx, scs[i].Name, err)
		var fit *sim.FitError
		if moveIdx == nil || !errors.As(err, &fit) {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		side := "From"
		if fit.Target {
			side = "To"
		}
		return nil, &InputError{Field: "Moves", Index: moveIdx[i], VM: -1, Attr: side, Err: err}
	})
}

// apply lands a guest on its destination host.
func (e *engine) apply(v *vmRT, dst *hostRT) {
	src := v.host
	for i, g := range src.vms {
		if g == v {
			src.vms = append(src.vms[:i], src.vms[i+1:]...)
			break
		}
	}
	at := sort.Search(len(dst.vms), func(i int) bool { return dst.vms[i].Name >= v.Name })
	dst.vms = append(dst.vms, nil)
	copy(dst.vms[at+1:], dst.vms[at:])
	dst.vms[at] = v
	v.host = dst
}

// land completes a flight at instant t and records its outcome.
func (e *engine) land(f *flight, t time.Duration) {
	if e.vp != nil {
		// The source loses the guest, the destination converts its
		// reservation into a resident.
		e.pview.Mark(f.vm.host.vi)
		e.pview.Mark(f.to.vi)
		if f.vm.phased {
			f.vm.host.phasedRes--
			f.to.phasedRes++
			f.to.phasedInc--
			e.markHostVarying(f.to)
		}
	}
	e.apply(f.vm, f.to)
	f.vm.migrating = false
	for i, g := range f.to.incoming {
		if g == f {
			f.to.incoming = append(f.to.incoming[:i], f.to.incoming[i+1:]...)
			break
		}
	}
	e.removeAirborne(f)
	// A flight leaving a crashed host carries an orphan to safety; later
	// consolidation moves of the same VM (from a live host) must not
	// touch its recorded evacuation instant.
	if f.from.down && e.fail.orphanedAt != nil {
		if _, orphan := e.fail.orphanedAt[f.vm.Name]; orphan {
			e.fail.evacuatedAt[f.vm.Name] = t
		}
	}
	e.recs = append(e.recs, indexedRec{idx: f.idx, rec: e.record(f, t)})
}

// record builds the migration record of a finished flight: the
// intrinsic kernel measurements, with the transfer-phase energy scaled
// by the contention stretch.
func (e *engine) record(f *flight, end time.Duration) MigrationRecord {
	intrinsicE := f.run.SourceEnergy.Total() + f.run.TargetEnergy.Total()
	stretch := 1.0
	adjusted := intrinsicE
	if f.intrinsic > 0 {
		stretch = float64(f.transferEnd-f.headEnd) / float64(f.intrinsic)
		transferE := f.run.SourceEnergy.Transfer + f.run.TargetEnergy.Transfer
		adjusted += units.Joules((stretch - 1) * float64(transferE))
	}
	return MigrationRecord{
		VM: f.vm.Name, From: f.from.Name, To: f.to.Name, Pair: f.pair,
		Start: f.start, End: end, Duration: end - f.start,
		Stretch: stretch, Energy: adjusted, IntrinsicEnergy: intrinsicE,
		BytesSent: f.run.BytesSent, Rounds: f.run.Rounds, Downtime: f.run.Downtime,
	}
}

// finish assembles the report once the timeline has drained.
func (e *engine) finish() {
	// Flights still stalled on an unrestored switch never complete; the
	// timeline has drained, so abort them as stranded before scoring.
	e.strandRemaining()
	sort.Slice(e.recs, func(i, j int) bool { return e.recs[i].idx < e.recs[j].idx })
	for _, ir := range e.recs {
		e.rep.Timeline = append(e.rep.Timeline, ir.rec)
		e.rep.TotalEnergy += ir.rec.Energy
		if ir.rec.End > e.rep.Makespan {
			e.rep.Makespan = ir.rec.End
		}
		if ir.rec.Stretch > e.rep.MaxStretch {
			e.rep.MaxStretch = ir.rec.Stretch
		}
	}
	e.rep.PeakFlights = e.peak
	e.rep.ReplanRounds = len(e.rep.Ticks)
	e.freeHosts()
	// Aborted flights spent real energy buying nothing; it still counts.
	for _, a := range e.rep.Aborted {
		e.rep.TotalEnergy += a.Energy
	}
	e.scoreSLO()
	e.buildPowerTrace()
}

// freeHosts fills the report's FreedHosts, the live hosts left empty in
// name order, and IdleSavings, their idle powers summed in that order.
// An untouched host is as it was at t=0, up and freed exactly when it
// started empty, so the layout's t=0-empty hosts, their names copied in
// bulk, merge in index order with the touched hosts, each judged by its
// end state.
func (e *engine) freeHosts() {
	f := e.facts
	slices.Sort(e.touched)
	freed := len(f.empty)
	for _, i := range e.touched {
		h := e.hosts[i]
		if len(h.Host.VMs) == 0 {
			freed-- // judged below by its end state, not as a t=0-empty host
		}
		if len(h.vms) == 0 && !h.down {
			freed++
		}
	}
	if freed == 0 {
		return
	}
	names := make([]string, 0, freed)
	var savings units.Watts
	lo := 0 // the t=0-empty hosts before f.empty[lo] are merged
	untouched := func(hi int) {
		names = append(names, f.emptyNames[lo:hi]...)
		for _, w := range f.emptyIdle[lo:hi] {
			savings += w
		}
		lo = hi
	}
	for _, i := range e.touched {
		at, found := slices.BinarySearch(f.empty[lo:], i)
		untouched(lo + at)
		if found {
			lo++
		}
		if h := e.hosts[i]; len(h.vms) == 0 && !h.down {
			names = append(names, h.Name)
			savings += h.IdlePower
		}
	}
	untouched(len(f.empty))
	e.rep.FreedHosts, e.rep.IdleSavings = names, savings
}

// runFacts are what every run of a layout reads that does not change
// from run to run, derived once from the layout by its first run
// (layout.runFacts). They let a run build only the hosts it touches and
// still start and end as if it had built them all.
type runFacts struct {
	// vmStart[i] is the position among all VMs of host i's first guest;
	// vmHost[k] is VM k's initial host.
	vmStart, vmHost []int32
	// phased lists the hosts with a phased resident at t=0, ascending:
	// a policy round refreshes them every tick.
	phased []int32
	// empty lists the hosts with no resident at t=0, ascending, and
	// emptyNames and emptyIdle their names and idle powers.
	empty      []int32
	emptyNames []string
	emptyIdle  []units.Watts
	// idleFloor is every host's idle power, summed in host order: the
	// fleet power trace's level at t=0.
	idleFloor float64
	// shifts are the workload phase transitions inside the horizon, by
	// (At, VM).
	shifts []PhaseShift
}

// runFacts returns the layout's run facts, built by the first caller.
// Like the t=0 view, they are built by a run rather than by Prepare, so
// a compile that never runs pays nothing for them; no run writes to
// them.
func (l *layout) runFacts() *runFacts {
	l.factsOnce.Do(func() { l.facts = l.buildFacts() })
	return l.facts
}

// buildFacts derives the run facts in one walk of the hosts in index
// order, each host's guests in name order.
func (l *layout) buildFacts() *runFacts {
	nempty := 0
	for _, r := range l.hosts {
		if len(r.VMs) == 0 {
			nempty++
		}
	}
	f := &runFacts{
		vmStart:    make([]int32, len(l.hosts)),
		vmHost:     make([]int32, 0, l.nvms),
		empty:      make([]int32, 0, nempty),
		emptyNames: make([]string, 0, nempty),
		emptyIdle:  make([]units.Watts, 0, nempty),
	}
	for i, r := range l.hosts {
		f.vmStart[i] = int32(len(f.vmHost))
		f.idleFloor += float64(r.IdlePower)
		if len(r.VMs) == 0 {
			f.empty = append(f.empty, int32(i))
			f.emptyNames = append(f.emptyNames, r.Name)
			f.emptyIdle = append(f.emptyIdle, r.IdlePower)
		}
		phased := false
		for _, v := range r.VMs {
			f.vmHost = append(f.vmHost, int32(i))
			phased = phased || len(v.Phases) > 0
			cum := time.Duration(0)
			for k, p := range v.Phases {
				cum += p.Duration
				if cum >= l.scalars.horizon {
					break
				}
				next := ""
				if k+1 < len(v.Phases) {
					next = phaseLabel(v.Phases[k+1], k+1)
				}
				f.shifts = append(f.shifts, PhaseShift{At: cum, VM: v.Name, Phase: next})
			}
		}
		if phased {
			f.phased = append(f.phased, int32(i))
		}
	}
	sort.SliceStable(f.shifts, func(i, j int) bool {
		if f.shifts[i].At != f.shifts[j].At {
			return f.shifts[i].At < f.shifts[j].At
		}
		return f.shifts[i].VM < f.shifts[j].VM
	})
	return f
}
