package cluster

import (
	"math"
	"sort"
	"time"

	"repro/internal/units"
)

// This file is the engine's failure-injection layer. A timeline may
// declare timed failure events — host crashes, flight aborts, switch
// outage windows — that the discrete-event loop applies between flight
// transitions and new dispatches at each instant. The linear-scan
// reference scheduler the tests check the heap core against drives
// these same methods, so failure handling is bit-identical across the
// two by construction.
//
// Semantics at one instant t, in order:
//
//  1. flights completing exactly at t complete — a transfer is never
//     retroactively aborted by a same-instant failure;
//  2. failure events at t apply, in their (At, declaration) order;
//  3. phase shifts and new dispatches at t observe the post-failure
//     state, so a restore at t re-opens the switch for a dispatch at t
//     and an outage at t closes it (outage windows are [outage,
//     restore)).

// FailureKind enumerates the injectable failure events.
type FailureKind string

const (
	// FailHostCrash drops a host: its resident VMs orphan (they must be
	// evacuated to live hosts), every in-flight migration touching the
	// host aborts, and the host's idle floor leaves the power trace.
	FailHostCrash FailureKind = "host-crash"
	// FailFlightAbort kills the named VM's in-flight migration: the
	// energy spent so far is charged, the VM stays resident on its
	// source, and it is pinned for the next policy round (a one-round
	// cool-down). Naming a VM with no transfer in flight is a no-op.
	FailFlightAbort FailureKind = "flight-abort"
	// FailSwitchOutage takes a link domain down: in-transfer flights on
	// the switch stall (their virtual clock freezes) and no new
	// migration may be admitted onto the switch until it is restored.
	FailSwitchOutage FailureKind = "switch-outage"
	// FailSwitchRestore brings a downed link domain back; stalled
	// transfers resume with their remaining work intact.
	FailSwitchRestore FailureKind = "switch-restore"
)

// FailureEvent is one injected failure of a cluster timeline. Exactly
// one of Host, VM or Switch is set, matching the Kind.
type FailureEvent struct {
	// At is the injection instant. Events sharing an instant apply in
	// declaration order, after any flight completing exactly then.
	At time.Duration
	// Kind selects the event type.
	Kind FailureKind
	// Host names the crashing host (host-crash).
	Host string
	// VM names the transfer to kill (flight-abort).
	VM string
	// Switch names the link domain (switch-outage / switch-restore).
	Switch string
}

// failState is the engine's failure-injection runtime state.
type failState struct {
	events []FailureEvent // sorted stably by At
	fi     int            // cursor into events

	// airborne lists the in-flight migrations in dispatch order — the
	// lookup set for aborts and the stranded sweep at drain time.
	airborne     []*flight
	abortScratch []*flight

	// orphanedAt records when each VM was last stranded by a host
	// crash; evacuatedAt records when it next landed on a live host.
	// A re-crash of the refuge host re-orphans: the orphan instant is
	// overwritten and the evacuation erased.
	orphanedAt  map[string]time.Duration
	evacuatedAt map[string]time.Duration
	// repin holds VMs whose flight just aborted on a live source: they
	// stay pinned for exactly one policy round (cleared after the next
	// tick plans), so a policy cannot instantly re-dispatch a transfer
	// the injector just killed.
	repin map[string]bool

	crashes []crashRecord
}

// crashRecord remembers a crash for the power trace (the host's idle
// floor drops out at the crash instant).
type crashRecord struct {
	at   time.Duration
	host *hostRT
}

// initFailures installs the config's failure schedule into the engine.
func (e *engine) initFailures(events []FailureEvent) {
	if len(events) == 0 {
		return
	}
	e.fail.events = append([]FailureEvent(nil), events...)
	sort.SliceStable(e.fail.events, func(i, j int) bool { return e.fail.events[i].At < e.fail.events[j].At })
	e.fail.orphanedAt = map[string]time.Duration{}
	e.fail.evacuatedAt = map[string]time.Duration{}
	e.fail.repin = map[string]bool{}
}

// switchDown reports whether a link domain is inside an outage window.
func (e *engine) switchDown(name string) bool {
	s, ok := e.switches[name]
	return ok && s.down
}

// applyFailures applies every failure event due at instant t, in (At,
// declaration) order. Called by both schedulers after flight
// transitions and before phase shifts and dispatches.
func (e *engine) applyFailures(t time.Duration) {
	for e.fail.fi < len(e.fail.events) && e.fail.events[e.fail.fi].At <= t {
		ev := e.fail.events[e.fail.fi]
		e.fail.fi++
		switch ev.Kind {
		case FailHostCrash:
			e.crashHost(ev.Host, t)
		case FailFlightAbort:
			e.abortNamed(ev.VM, t)
		case FailSwitchOutage:
			e.switchState(ev.Switch).down = true
		case FailSwitchRestore:
			e.switchState(ev.Switch).down = false
		}
	}
}

// crashHost drops a host: every flight touching it aborts, every
// resident orphans, and the host leaves the idle-power floor.
func (e *engine) crashHost(name string, t time.Duration) {
	h := e.hostNamed(name)
	h.down = true
	if e.vp != nil {
		e.pview.Mark(h.vi)
		e.downHosts = append(e.downHosts, h)
	}
	e.fail.crashes = append(e.fail.crashes, crashRecord{at: t, host: h})
	// Collect first, then abort: aborting mutates the airborne list.
	hit := e.fail.abortScratch[:0]
	for _, f := range e.fail.airborne {
		if f.from == h || f.to == h {
			hit = append(hit, f)
		}
	}
	e.fail.abortScratch = hit
	for _, f := range hit {
		e.abortFlight(f, t, "host-crash "+name)
	}
	// Everything resident — including movers the aborts just returned to
	// this source — is orphaned and must be evacuated to a live host.
	for _, v := range h.vms {
		e.fail.orphanedAt[v.Name] = t
		delete(e.fail.evacuatedAt, v.Name)
		delete(e.fail.repin, v.Name)
	}
}

// abortNamed kills the named VM's in-flight migration, if any.
func (e *engine) abortNamed(name string, t time.Duration) {
	for _, f := range e.fail.airborne {
		if f.vm.Name == name {
			e.abortFlight(f, t, "flight-abort")
			return
		}
	}
	// The injection schedule is static but the timeline it hits is not:
	// a VM that already landed (or never launched) is a documented no-op.
}

// abortFlight kills one in-flight migration at instant t: the flight
// leaves the scheduler, the energy spent so far is charged, and the VM
// stays resident on its source (re-pinned for one policy round when the
// source is still alive).
func (e *engine) abortFlight(f *flight, t time.Duration, reason string) {
	if f.state == fTransfer {
		e.switchState(f.sw).heap.remove(f)
	} else {
		e.timed.remove(f)
	}
	energy, phase := e.abortCharge(f, t)
	f.vm.migrating = false
	if e.vp != nil {
		// The destination loses its reservation. The source's slots are
		// unchanged (the mover never left), and the repin added below is
		// reflected through viewPinnedEvac at the next round.
		e.pview.Mark(f.to.vi)
		if f.vm.phased {
			f.to.phasedInc--
		}
	}
	if !f.vm.host.down && e.fail.repin != nil {
		e.fail.repin[f.vm.Name] = true
	}
	for i, g := range f.to.incoming {
		if g == f {
			f.to.incoming = append(f.to.incoming[:i], f.to.incoming[i+1:]...)
			break
		}
	}
	e.removeAirborne(f)
	e.rep.Aborted = append(e.rep.Aborted, AbortRecord{
		VM: f.vm.Name, From: f.from.Name, To: f.to.Name, Pair: f.pair,
		Start: f.start, End: t, Phase: phase, Reason: reason, Energy: energy,
	})
}

// abortCharge computes the energy already spent by a flight aborted at
// instant t, from the flight's own spans so both schedulers agree
// bit-for-bit. The kernel's non-transfer energy is spread uniformly
// over the head and tail wall spans; the transfer energy is charged at
// the intrinsic transfer power for every wall second spent in the
// transfer phase — contention stretch (and outage stall) sustain
// transfer power, the same convention record() applies to completed
// flights.
func (e *engine) abortCharge(f *flight, t time.Duration) (units.Joules, string) {
	intrinsicE := f.run.SourceEnergy.Total() + f.run.TargetEnergy.Total()
	transferE := f.run.SourceEnergy.Transfer + f.run.TargetEnergy.Transfer
	nonTransferE := intrinsicE - transferE
	headSpan := f.headEnd - f.start
	ntSpan := headSpan + f.tailSpan
	var ntElapsed, wallTransfer time.Duration
	var phase string
	switch f.state {
	case fHead:
		phase = "head"
		ntElapsed = t - f.start
	case fTransfer:
		phase = "transfer"
		ntElapsed = headSpan
		wallTransfer = t - f.headEnd
	default:
		phase = "tail"
		ntElapsed = headSpan + (t - f.transferEnd)
		wallTransfer = f.transferEnd - f.headEnd
	}
	var charged float64
	if ntSpan > 0 {
		charged += float64(nonTransferE) * (float64(ntElapsed) / float64(ntSpan))
	}
	if f.intrinsic > 0 {
		charged += float64(transferE) * (float64(wallTransfer) / float64(f.intrinsic))
	}
	return units.Joules(charged), phase
}

// removeAirborne drops a flight from the dispatch-ordered airborne
// list.
func (e *engine) removeAirborne(f *flight) {
	a := e.fail.airborne
	for i, g := range a {
		if g == f {
			copy(a[i:], a[i+1:])
			a[len(a)-1] = nil
			e.fail.airborne = a[:len(a)-1]
			return
		}
	}
}

// strandRemaining aborts every flight still airborne when the event
// loop drains — transfers stalled forever on a switch that was never
// restored. Charged like any abort, at the drain instant.
func (e *engine) strandRemaining() {
	for len(e.fail.airborne) > 0 {
		e.abortFlight(e.fail.airborne[0], e.now, "stranded")
	}
}

// scoreSLO fills the report's failure scoring: abort and orphan counts
// and the evacuation-deadline verdict. The verdict holds vacuously when
// nothing crashed; with crashes, every orphaned VM must have landed on
// a live host — within Config.EvacuationDeadline of its crash when a
// deadline is set, eventually otherwise.
func (e *engine) scoreSLO() {
	e.rep.AbortedFlights = len(e.rep.Aborted)
	e.rep.OrphanedVMs = len(e.fail.orphanedAt)
	e.rep.EvacuatedVMs = len(e.fail.evacuatedAt)
	met := true
	for name, at := range e.fail.orphanedAt {
		ev, ok := e.fail.evacuatedAt[name]
		if !ok || (e.cfg.EvacuationDeadline > 0 && ev-at > e.cfg.EvacuationDeadline) {
			met = false
		}
	}
	e.rep.EvacuationDeadlineMet = met
}

// buildPowerTrace assembles the fleet's piecewise-constant power
// timeline: the sum of live hosts' idle floors (a crash drops its
// host's floor at the crash instant) plus each migration's — and each
// aborted flight's — charged energy spread uniformly over its wall
// span. FleetEnergy integrates the trace over [0, max(Makespan,
// Horizon, last breakpoint)]. Every sum runs in a fixed, documented
// order (hosts by name, crashes in event order, migrations in dispatch
// order, aborts in abort order), so the floats are bit-identical across
// schedulers, workers and cache settings.
func (e *engine) buildPowerTrace() {
	type delta struct {
		at time.Duration
		dw float64
	}
	deltas := make([]delta, 0, 1+len(e.fail.crashes)+2*(len(e.rep.Timeline)+len(e.rep.Aborted)))
	deltas = append(deltas, delta{0, e.facts.idleFloor})
	for _, c := range e.fail.crashes {
		deltas = append(deltas, delta{c.at, -float64(c.host.IdlePower)})
	}
	span := func(start, end time.Duration, energy units.Joules) {
		if d := end - start; d > 0 && energy != 0 {
			p := float64(energy) / d.Seconds()
			deltas = append(deltas, delta{start, p}, delta{end, -p})
		}
	}
	for _, rec := range e.rep.Timeline {
		span(rec.Start, rec.End, rec.Energy)
	}
	for _, a := range e.rep.Aborted {
		span(a.Start, a.End, a.Energy)
	}
	sort.SliceStable(deltas, func(i, j int) bool { return deltas[i].at < deltas[j].at })

	end := e.rep.Makespan
	if e.cfg.Horizon > end {
		end = e.cfg.Horizon
	}
	if n := len(deltas); n > 0 && deltas[n-1].at > end {
		end = deltas[n-1].at
	}
	watts := 0.0
	energy := 0.0
	var trace []PowerPoint
	for i := 0; i < len(deltas); {
		at := deltas[i].at
		if len(trace) > 0 {
			energy += watts * (at - trace[len(trace)-1].At).Seconds()
		}
		for i < len(deltas) && deltas[i].at == at {
			watts += deltas[i].dw
			i++
		}
		trace = append(trace, PowerPoint{At: at, Watts: units.Watts(watts)})
	}
	if len(trace) > 0 && end > trace[len(trace)-1].At {
		energy += watts * (end - trace[len(trace)-1].At).Seconds()
	}
	e.rep.PowerTrace = trace
	e.rep.FleetEnergy = units.Joules(energy)
}

// validateFailures rejects unusable failure schedules against the
// already-resolved host index (name → position in Hosts), VM name set
// and per-host switch domains, with an *InputError. Beyond per-event
// shape checks it simulates the event order to refuse double crashes,
// unpaired outage windows, and explicit moves that statically must fail
// at dispatch (to a crashed host, or onto a downed switch). The moves
// themselves are already validated, so every move's hosts are in the
// index.
func (c Config) validateFailures(index, vms map[string]int32, switches []string) error {
	if c.EvacuationDeadline < 0 {
		return refuse("EvacuationDeadline", -1, "", "negative evacuation deadline %v", c.EvacuationDeadline)
	}
	if len(c.Failures) == 0 {
		return nil
	}
	domains := map[string]bool{}
	for _, sw := range switches {
		domains[sw] = true
	}
	for i, ev := range c.Failures {
		if ev.At < 0 {
			return refuse("Failures", i, "At", "happens before the timeline (%v)", ev.At)
		}
		switch ev.Kind {
		case FailHostCrash:
			_, hostKnown := index[ev.Host]
			switch {
			case ev.Host == "":
				return refuse("Failures", i, "Host", "required for kind %q", ev.Kind)
			case ev.VM != "" || ev.Switch != "":
				return refuse("Failures", i, "", "%q must target exactly one host", ev.Kind)
			case !hostKnown:
				return refuse("Failures", i, "Host", "crashes unknown host %q", ev.Host)
			}
		case FailFlightAbort:
			_, vmKnown := vms[ev.VM]
			switch {
			case ev.VM == "":
				return refuse("Failures", i, "VM", "required for kind %q", ev.Kind)
			case ev.Host != "" || ev.Switch != "":
				return refuse("Failures", i, "", "%q must target exactly one VM", ev.Kind)
			case !vmKnown:
				return refuse("Failures", i, "VM", "aborts unknown VM %q", ev.VM)
			}
		case FailSwitchOutage, FailSwitchRestore:
			switch {
			case ev.Switch == "":
				return refuse("Failures", i, "Switch", "required for kind %q", ev.Kind)
			case ev.Host != "" || ev.VM != "":
				return refuse("Failures", i, "", "%q must target exactly one switch", ev.Kind)
			case !domains[ev.Switch]:
				return refuse("Failures", i, "Switch", "references unknown switch %q", ev.Switch)
			}
		default:
			return refuse("Failures", i, "Kind", "unknown kind %q", ev.Kind)
		}
	}
	// Replay the schedule in the engine's (At, declaration) order.
	order := inOrder(len(c.Failures), func(i int) time.Duration { return c.Failures[i].At })
	crashAt := map[string]time.Duration{}
	openAt := map[string]time.Duration{}
	swDown := map[string]bool{}
	outages := map[string][][2]time.Duration{}
	for _, i := range order {
		ev := c.Failures[i]
		switch ev.Kind {
		case FailHostCrash:
			if _, dup := crashAt[ev.Host]; dup {
				return refuse("Failures", i, "Host", "crashes host %q twice", ev.Host)
			}
			crashAt[ev.Host] = ev.At
		case FailSwitchOutage:
			if swDown[ev.Switch] {
				return refuse("Failures", i, "Switch", "takes switch %q down twice without a restore", ev.Switch)
			}
			swDown[ev.Switch] = true
			openAt[ev.Switch] = ev.At
		case FailSwitchRestore:
			if !swDown[ev.Switch] {
				return refuse("Failures", i, "Switch", "restores switch %q, which is not down", ev.Switch)
			}
			swDown[ev.Switch] = false
			outages[ev.Switch] = append(outages[ev.Switch], [2]time.Duration{openAt[ev.Switch], ev.At})
		}
	}
	for sw, down := range swDown {
		if down { // never restored: the window stays open forever
			outages[sw] = append(outages[sw], [2]time.Duration{openAt[sw], math.MaxInt64})
		}
	}
	for i, m := range c.Moves {
		if at, dead := crashAt[m.To]; dead && m.At >= at {
			return refuse("Moves", i, "To", "dispatches %q to host %q after it crashes at %v", m.VM, m.To, at)
		}
		sw := switches[index[m.To]]
		for _, w := range outages[sw] {
			if m.At >= w[0] && m.At < w[1] {
				return refuse("Moves", i, "At", "dispatches %q at %v, inside an outage of switch %q starting at %v",
					m.VM, m.At, sw, w[0])
			}
		}
	}
	return nil
}
