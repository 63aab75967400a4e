package cluster

import (
	"math"
	"time"

	"repro/internal/consolidation"
)

// This file holds the original linear-scan scheduler — O(F) per-event
// sweeps with O(F) occupancy counts, O(F²) per event — as a test-side
// event loop over the production engine. It is the executable
// specification the heap scheduler is property-tested against (see
// TestSchedulerEquivalence): both must produce bit-identical reports on
// any fleet. It shares dispatch, lowering, snapshotting, failure
// handling, landing and reporting with the production engine; only
// event finding and clock advancing differ, over a flight list of its
// own.

// planOnly hides a policy's PlanView, so the engine plans through the
// AoS snapshot and Plan, as the reference always has.
type planOnly struct{ consolidation.Policy }

// scanEngine runs an engine's timeline with the linear-scan loop.
type scanEngine struct {
	*engine
	// flights lists the airborne flights in dispatch order.
	flights []*flight
}

// runReference executes cfg on the linear-scan reference scheduler.
func runReference(cfg Config) (*Report, error) {
	if cfg.Policy != nil {
		cfg.Policy = planOnly{cfg.Policy}
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	return (&scanEngine{engine: e}).runScan()
}

// runScan is the discrete-event loop of engine.run with the scans in
// place of the heaps.
func (e *scanEngine) runScan() (*Report, error) {
	for {
		// joinPending commits a batch onto the timed heap; the scans keep
		// it in their own list instead.
		pd := e.pendJoin
		if err := e.joinPending(); err != nil {
			return nil, err
		}
		if pd != nil {
			for _, f := range pd.flights {
				e.timed.remove(f)
			}
			e.flights = append(e.flights, pd.flights...)
		}
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
		consider(e.pending[0].At)
	}
	if e.si < len(e.shifts) {
		consider(e.shifts[e.si].At)
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
	// state. An aborted flight's VM is no longer migrating, and no batch
	// commits before the next join, so that marks every flight to drop.
	e.applyFailures(t)
	kept = e.flights[:0]
	for _, f := range e.flights {
		if f.vm.migrating {
			kept = append(kept, f)
		}
	}
	e.flights = kept

	// 3. Workload phase transitions.
	for e.si < len(e.shifts) && e.shifts[e.si].At <= t {
		e.rep.Shifts = append(e.rep.Shifts, e.shifts[e.si])
		e.si++
	}

	// 4. New dispatches: the policy tick's plan, then explicit moves.
	return e.dispatchDue(t)
}
