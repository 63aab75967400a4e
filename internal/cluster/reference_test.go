package cluster

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/consolidation"
)

// This file holds the original linear-scan scheduler — O(F) per-event
// sweeps with O(F) occupancy counts, O(F²) per event — as a test-side
// event loop over the production engine. It is the executable
// specification the heap scheduler is property-tested against (see
// TestSchedulerEquivalence): both must produce bit-identical reports
// and end placements on any fleet. It shares dispatch, lowering,
// failure handling, landing and reporting with the production engine.
// Event finding and clock advancing differ, over a flight list of its
// own, and so does planning: every round plans from a snapshot the
// reference takes itself, through the policy's classic Plan, so it never
// reads the engine's incremental view or its clean-tick plan reuse.

// scanEngine runs an engine's timeline with the linear-scan loop.
type scanEngine struct {
	*engine
	// flights lists the airborne flights in dispatch order.
	flights []*flight
}

// runReference executes cfg on the linear-scan reference scheduler and
// returns its report and end placement.
func runReference(cfg Config) (*Report, []placedHost, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	rep, err := (&scanEngine{engine: e}).runScan()
	if err != nil {
		return nil, nil, err
	}
	return rep, endPlacement(e), nil
}

// runPlaced executes a non-serial cfg like Run and also returns the
// end placement, read from the engine's host state once the timeline
// has drained.
func runPlaced(cfg Config) (*Report, []placedHost, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	rep, err := e.run()
	if err != nil {
		return nil, nil, err
	}
	return rep, endPlacement(e), nil
}

// runDense executes cfg like runPlaced, but with every host built
// before the first event, as an engine that built all its hosts up
// front would run it.
func runDense(cfg Config) (*Report, []placedHost, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	for i := range e.hosts {
		e.host(int32(i))
	}
	rep, err := e.run()
	if err != nil {
		return nil, nil, err
	}
	return rep, endPlacement(e), nil
}

// placedHost is one host of a finished run's end placement.
type placedHost struct {
	Name string
	Down bool
	// VMs names the host's residents in name order, then the reservation
	// of any flight still bound for it; a drained timeline leaves none.
	VMs []string
}

// endPlacement reads the end placement, in host name order, from the
// engine's host state, every host through the engine's accessor.
func endPlacement(e *engine) []placedHost {
	out := make([]placedHost, len(e.hosts))
	for i := range e.hosts {
		h := e.host(int32(i))
		p := placedHost{Name: h.Name, Down: h.down}
		for _, v := range h.vms {
			p.VMs = append(p.VMs, v.Name)
		}
		for _, f := range h.incoming {
			p.VMs = append(p.VMs, f.resName)
		}
		out[i] = p
	}
	return out
}

// runScan is the discrete-event loop of engine.run with the scans in
// place of the heaps.
func (e *scanEngine) runScan() (*Report, error) {
	for {
		t, ok := e.nextEventTimeScan()
		if !ok {
			break
		}
		e.advanceScan(t)
		if err := e.fireScan(t); err != nil {
			return nil, err
		}
	}
	e.finish()
	return e.rep, nil
}

// occupancy counts the transfers currently sharing a switch.
func (e *scanEngine) occupancy(sw string) int64 {
	n := int64(0)
	for _, f := range e.flights {
		if f.state == fTransfer && f.sw == sw {
			n++
		}
	}
	return n
}

// flightEventTime projects a flight's next transition instant under the
// current link occupancy.
func (e *scanEngine) flightEventTime(f *flight) time.Duration {
	switch f.state {
	case fHead:
		return f.headEnd
	case fTransfer:
		return e.now + f.work*time.Duration(e.occupancy(f.sw))
	default:
		return f.end
	}
}

// nextEventTimeScan returns the earliest instant with something due, by
// scanning every flight.
func (e *scanEngine) nextEventTimeScan() (time.Duration, bool) {
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
	for _, f := range e.flights {
		if f.state == fTransfer && e.switchDown(f.sw) {
			continue // stalled: the outage froze this link's clock
		}
		consider(e.flightEventTime(f))
	}
	return t, ok
}

// advanceScan moves the clock to t, draining every in-flight transfer
// by its equal share of the elapsed span. Occupancy is constant between
// events, so the sharing arithmetic is exact integer division; a due
// flight's remaining work reaches exactly zero.
func (e *scanEngine) advanceScan(t time.Duration) {
	dt := t - e.now
	if dt > 0 {
		for _, f := range e.flights {
			if f.state != fTransfer {
				continue
			}
			if e.switchDown(f.sw) {
				continue // outage: the clock freezes, work is preserved
			}
			f.work -= dt / time.Duration(e.occupancy(f.sw))
			if f.work < 0 {
				f.work = 0
			}
		}
	}
	e.now = t
}

// transitionScan advances one flight through every lifecycle phase due
// at instant t (a flight may cascade through zero-span phases within
// one instant) and reports whether it landed.
func (e *scanEngine) transitionScan(f *flight, t time.Duration) (landed bool) {
	for {
		switch f.state {
		case fHead:
			if f.headEnd > t {
				return false
			}
			f.state = fTransfer
		case fTransfer:
			if f.work > 0 {
				return false
			}
			f.transferEnd = t
			f.state = fTail
			f.end = t + f.tailSpan
		default:
			if f.end > t {
				return false
			}
			e.land(f, t)
			return true
		}
	}
}

// fireScan processes everything due at instant t.
func (e *scanEngine) fireScan(t time.Duration) error {
	// 1. Flight transitions, in dispatch order.
	kept := e.flights[:0]
	for _, f := range e.flights {
		if !e.transitionScan(f, t) {
			kept = append(kept, f)
		}
	}
	e.flights = kept

	// 2. Failure events: same-instant completions above beat the
	// failure; shifts and dispatches below observe the post-failure
	// state. An aborted flight's VM is no longer migrating, and this
	// instant's batch commits only in step 4, so that marks every flight
	// to drop.
	e.applyFailures(t)
	kept = e.flights[:0]
	for _, f := range e.flights {
		if f.vm.migrating {
			kept = append(kept, f)
		}
	}
	e.flights = kept

	// 3. Workload phase transitions.
	for e.si < len(e.facts.shifts) && e.facts.shifts[e.si].At <= t {
		e.rep.Shifts = append(e.rep.Shifts, e.facts.shifts[e.si])
		e.si++
	}

	// 4. New dispatches: the policy tick's plan, then explicit moves.
	return e.dispatchDueScan(t)
}

// dispatchDueScan is engine.dispatchDue with the reference's own policy
// round: the snapshot at t, planned through the policy's classic Plan.
func (e *scanEngine) dispatchDueScan(t time.Duration) error {
	var batch []TimedMove
	var idx []int
	if e.cfg.Policy != nil && e.tick <= t && e.tick < e.cfg.Horizon {
		hosts, pinned, evacuate := e.snapshot(t)
		pc := e.cfg.PolicyConfig
		pc.Pinned = pinned
		pc.Evacuate = evacuate
		plan, err := e.cfg.Policy.Plan(hosts, pc)
		if err != nil {
			return fmt.Errorf("cluster: policy %s at t=%v: %w", e.cfg.Policy.Name(), t, err)
		}
		for _, m := range plan.Moves {
			batch = append(batch, TimedMove{VM: m.VM, From: m.From, To: m.To, At: t})
		}
		e.rep.Ticks = append(e.rep.Ticks, TickRecord{At: t, Moves: len(plan.Moves), Pinned: len(pinned)})
		e.tick += e.cfg.Tick
		// Abort cool-downs last exactly one round.
		for name := range e.fail.repin {
			delete(e.fail.repin, name)
		}
	}
	for len(e.pending) > 0 && e.cfg.Moves[e.pending[0]].At <= t {
		batch = append(batch, e.cfg.Moves[e.pending[0]])
		idx = append(idx, e.pending[0])
		e.pending = e.pending[1:]
	}
	if len(batch) == 0 {
		return nil
	}
	// dispatch commits a batch onto the tail of the airborne list and
	// the timed heap; the scans keep it in their own list instead.
	n := len(e.fail.airborne)
	if err := e.dispatch(t, batch, idx); err != nil {
		return err
	}
	for _, f := range e.fail.airborne[n:] {
		e.timed.remove(f)
		e.flights = append(e.flights, f)
	}
	return nil
}

// snapshot renders the cluster as the consolidation layer sees it at
// time t: every resident guest with its phase-evaluated demand, with
// in-flight guests pinned on their source and their destination
// capacity held by a pinned reservation entry. Crashed hosts are
// marked Down and their non-migrating residents listed as evacuees; a
// VM in its post-abort cool-down is pinned like a mover. Every host is
// read through the engine's accessor.
func (e *scanEngine) snapshot(t time.Duration) (hosts []consolidation.HostState, pinned, evacuate []string) {
	for i := range e.hosts {
		h := e.host(int32(i))
		var vms []consolidation.VMState
		for _, v := range h.vms {
			vms = append(vms, consolidation.VMState{
				Name:       v.Name,
				MemBytes:   v.MemBytes,
				BusyVCPUs:  v.busyAt(t),
				DirtyRatio: v.dirtyAt(t),
			})
			switch {
			case v.migrating:
				pinned = append(pinned, v.Name)
			case h.down:
				evacuate = append(evacuate, v.Name)
			case e.fail.repin[v.Name]:
				pinned = append(pinned, v.Name)
			}
		}
		for _, f := range h.incoming {
			vms = append(vms, consolidation.VMState{
				Name:       f.resName,
				MemBytes:   f.vm.MemBytes,
				BusyVCPUs:  f.vm.busyAt(t),
				DirtyRatio: f.vm.dirtyAt(t),
			})
			pinned = append(pinned, f.resName)
		}
		hosts = append(hosts, consolidation.HostState{
			Name:      h.Name,
			Threads:   h.Threads,
			MemBytes:  h.MemBytes,
			IdlePower: h.IdlePower,
			Down:      h.down,
			VMs:       vms,
		})
	}
	sort.Strings(pinned)
	sort.Strings(evacuate)
	return hosts, pinned, evacuate
}
