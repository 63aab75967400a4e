package cluster

import "time"

// This file is the engine's O(log F) scheduling core. The discrete-event
// loop needs, per event, the earliest instant anything happens and the
// set of flights due at it. Head and tail phases have fixed transition
// instants, so they live in one indexed min-heap keyed by absolute time.
// Transfer phases share links: a flight's completion instant moves every
// time the occupancy of its switch changes, so transfers are kept per
// switch, ordered by *virtual* completion time, which never moves.
//
// Virtual time makes equal-share processor sharing heap-friendly while
// reproducing the linear engine's integer arithmetic exactly. Each
// switch accumulates virt += dt/occ at every clock advance (truncating
// integer division, occ = transfers on the switch — the same floor the
// linear engine applies to every flight's remaining work individually,
// so remaining work == virtDone − virt bit-for-bit). A transfer joining
// at virtual time v with intrinsic work w completes when virt reaches
// v+w; since every co-resident transfer drains at the same rate, the
// completion *order* on a switch is fixed at admission, and the
// per-switch heap keys (virtDone) never need re-projection. Only the
// switch's next completion *instant* — now + (minVirtDone−virt)·occ —
// moves when occupancy changes, and that is recomputed in O(1) per
// switch per event instead of O(F) per flight.
type swState struct {
	// virt is the cumulative equal-share virtual service time: how much
	// intrinsic transfer work one flight on this switch has received
	// since the switch first carried traffic.
	virt time.Duration
	// heap holds the in-transfer flights ordered by virtDone. Its length
	// is the switch occupancy — the O(1) counter the sharing arithmetic
	// divides by.
	heap flightHeap
	// active marks membership in the engine's active-switch list.
	active bool
	// down marks an injected outage window: advance() freezes the
	// switch's virtual clock (transfers stall with their remaining work
	// intact) and checkMove refuses new admissions until restore.
	down bool
}

// occ is the switch occupancy: how many transfers currently share the
// link.
func (s *swState) occ() time.Duration {
	return time.Duration(len(s.heap.fs))
}

// nextAt projects the switch's earliest transfer completion under the
// current occupancy. Valid only while the switch carries traffic.
func (s *swState) nextAt(now time.Duration) time.Duration {
	return now + (s.heap.fs[0].virtDone-s.virt)*s.occ()
}

// flightHeap is an indexed binary min-heap of flights. One
// implementation serves both keys — absolute due time (head/tail
// events) and virtual completion time (per-switch transfers) — because
// a flight sits in at most one heap at a time: `key` selects the field.
// Ties break on dispatch index, though nothing depends on it: fire
// collects every flight due at an instant and processes them in
// dispatch order regardless of pop order.
type flightHeap struct {
	fs  []*flight
	key func(*flight) time.Duration
}

func (h *flightHeap) less(a, b *flight) bool {
	ka, kb := h.key(a), h.key(b)
	if ka != kb {
		return ka < kb
	}
	return a.idx < b.idx
}

// push inserts a flight and records its position for O(log n) removal.
func (h *flightHeap) push(f *flight) {
	h.fs = append(h.fs, f)
	f.heapIdx = len(h.fs) - 1
	h.up(f.heapIdx)
}

// pop removes and returns the minimum flight.
func (h *flightHeap) pop() *flight {
	f := h.fs[0]
	last := len(h.fs) - 1
	h.fs[0] = h.fs[last]
	h.fs[0].heapIdx = 0
	h.fs[last] = nil
	h.fs = h.fs[:last]
	if last > 0 {
		h.down(0)
	}
	f.heapIdx = -1
	return f
}

// remove deletes a flight from any heap position in O(log n) via its
// tracked index — the abort path's counterpart to pop. A flight held by
// no heap is left alone.
func (h *flightHeap) remove(f *flight) {
	i := f.heapIdx
	if i < 0 {
		return
	}
	last := len(h.fs) - 1
	if i != last {
		h.fs[i] = h.fs[last]
		h.fs[i].heapIdx = i
	}
	h.fs[last] = nil
	h.fs = h.fs[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
	f.heapIdx = -1
}

func (h *flightHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.fs[i], h.fs[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *flightHeap) down(i int) {
	n := len(h.fs)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(h.fs[l], h.fs[small]) {
			small = l
		}
		if r < n && h.less(h.fs[r], h.fs[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

func (h *flightHeap) swap(i, j int) {
	h.fs[i], h.fs[j] = h.fs[j], h.fs[i]
	h.fs[i].heapIdx = i
	h.fs[j].heapIdx = j
}

// dueKey reads the fixed-instant key of head/tail events.
func dueKey(f *flight) time.Duration { return f.due }

// virtKey reads the virtual-completion key of transfer events.
func virtKey(f *flight) time.Duration { return f.virtDone }

// switchState returns (creating on first use) the scheduling state of a
// link domain.
func (e *engine) switchState(name string) *swState {
	if s, ok := e.switches[name]; ok {
		return s
	}
	s := &swState{heap: flightHeap{key: virtKey}}
	e.switches[name] = s
	return s
}

// activate puts a switch on the engine's active list; advance() drains
// virtual time only for listed switches, so activation must accompany
// the first transfer admitted after an idle span.
func (e *engine) activate(s *swState) {
	if !s.active {
		s.active = true
		e.active = append(e.active, s)
	}
}

// compactActive drops switches whose last transfer completed. Called
// once per fire, after all transitions have settled.
func (e *engine) compactActive() {
	kept := e.active[:0]
	for _, s := range e.active {
		if len(s.heap.fs) > 0 {
			kept = append(kept, s)
		} else {
			s.active = false
		}
	}
	// Let dropped tails be collected.
	for i := len(kept); i < len(e.active); i++ {
		e.active[i] = nil
	}
	e.active = kept
}

// timedPush registers a flight's next fixed-instant event (head end or
// tail end).
func (e *engine) timedPush(f *flight, at time.Duration) {
	f.due = at
	e.timed.push(f)
}
