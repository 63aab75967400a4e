// Package netsim models the gigabit path between migration endpoints. Its
// one load-bearing behaviour is the coupling the paper measures in the
// CPULOAD experiments: the Xen migration stream is pumped by a dom-0
// helper process, so when either endpoint's CPU is saturated the helper is
// descheduled part of the time and the achievable bandwidth falls below
// the hardware's migration rate — lengthening the transfer phase and
// changing its energy.
package netsim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/units"
)

// Link is the unidirectional migration path from a source to a target
// machine through their shared switch.
type Link struct {
	src, dst hw.MachineSpec
	// base is the zero-contention migration bandwidth: the lower of the
	// two endpoints' achievable migration rates.
	base units.BitsPerSecond
}

// NewLink builds the migration path between two machines. Both ends must
// sit on the same switch (the testbed wires each pair through one switch).
func NewLink(src, dst hw.MachineSpec) (*Link, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	if err := dst.Validate(); err != nil {
		return nil, err
	}
	if src.Switch != dst.Switch {
		return nil, fmt.Errorf("netsim: %s (%s) and %s (%s) are on different switches",
			src.Name, src.Switch, dst.Name, dst.Switch)
	}
	base := src.MigrationRate
	if dst.MigrationRate < base {
		base = dst.MigrationRate
	}
	return &Link{src: src, dst: dst, base: base}, nil
}

// BaseRate returns the zero-contention migration bandwidth.
func (l *Link) BaseRate() units.BitsPerSecond { return l.base }

// Achievable returns BW(S,T,t) given the CPU shares the migration helper
// received on each endpoint (1 = fully scheduled). The stream is clocked
// by the slower side. A small floor keeps the DMA path alive even under
// total CPU starvation, matching the testbed where fully loaded hosts
// still migrated, only slower.
func (l *Link) Achievable(srcShare, dstShare float64) units.BitsPerSecond {
	share := srcShare
	if dstShare < share {
		share = dstShare
	}
	const floor = 0.15
	if share < floor {
		share = floor
	}
	if share > 1 {
		share = 1
	}
	return units.BitsPerSecond(float64(l.base) * share)
}

// LineFraction converts an in-use bandwidth into the fraction of NIC line
// rate for the ground-truth power model.
func (l *Link) LineFraction(bw units.BitsPerSecond) units.Fraction {
	if l.src.LinkRate <= 0 {
		return 0
	}
	return units.Fraction(float64(bw) / float64(l.src.LinkRate)).Clamp()
}

// Stream tracks one bulk transfer (a pre-copy round, a stop-and-copy, or a
// whole non-live state push) across simulation steps.
type Stream struct {
	total units.Bytes
	moved units.Bytes
}

// NewStream starts a transfer of the given size.
func NewStream(total units.Bytes) (*Stream, error) {
	if total <= 0 {
		return nil, errors.New("netsim: stream size must be positive")
	}
	return &Stream{total: total}, nil
}

// Advance moves data for dt at bandwidth bw. It returns the bytes moved in
// this step; the stream never overshoots its total.
func (s *Stream) Advance(bw units.BitsPerSecond, dt time.Duration) units.Bytes {
	if s.Done() || dt <= 0 || bw <= 0 {
		return 0
	}
	n := bw.BytesIn(dt)
	if s.moved+n > s.total {
		n = s.total - s.moved
	}
	s.moved += n
	return n
}

// Done reports whether the transfer completed.
func (s *Stream) Done() bool { return s.moved >= s.total }

// Moved returns the bytes transferred so far.
func (s *Stream) Moved() units.Bytes { return s.moved }

// Total returns the transfer size.
func (s *Stream) Total() units.Bytes { return s.total }

// Remaining returns the bytes still to move.
func (s *Stream) Remaining() units.Bytes { return s.total - s.moved }
