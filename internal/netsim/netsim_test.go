package netsim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/hw"
	"repro/internal/units"
)

func mLink(t *testing.T) *Link {
	t.Helper()
	src, dst, err := hw.Pair(hw.PairM)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLink(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewLinkValidation(t *testing.T) {
	cat := hw.Catalog()
	if _, err := NewLink(hw.MachineSpec{}, cat["m02"]); err == nil {
		t.Error("invalid source must fail")
	}
	if _, err := NewLink(cat["m01"], hw.MachineSpec{}); err == nil {
		t.Error("invalid target must fail")
	}
	// m01 and o1 sit on different switches.
	if _, err := NewLink(cat["m01"], cat["o1"]); err == nil {
		t.Error("cross-switch link must fail")
	}
}

func TestBaseRateIsMinOfEndpoints(t *testing.T) {
	cat := hw.Catalog()
	a := cat["m01"]
	b := cat["m02"]
	b.MigrationRate = 100 * units.Mbps
	l, err := NewLink(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if l.BaseRate() != 100*units.Mbps {
		t.Errorf("base = %v, want the slower endpoint's 100 Mbit/s", l.BaseRate())
	}
}

func TestAchievableSharesClamp(t *testing.T) {
	l := mLink(t)
	full := l.Achievable(1, 1)
	if full != l.BaseRate() {
		t.Errorf("unloaded achievable = %v, want base %v", full, l.BaseRate())
	}
	// Slower side clocks the stream.
	if got := l.Achievable(0.5, 1); math.Abs(float64(got)-0.5*float64(l.BaseRate())) > 1e-6 {
		t.Errorf("src-limited achievable = %v", got)
	}
	if got := l.Achievable(1, 0.5); math.Abs(float64(got)-0.5*float64(l.BaseRate())) > 1e-6 {
		t.Errorf("dst-limited achievable = %v", got)
	}
	// Floor: starving the helper never kills the stream.
	if got := l.Achievable(0, 0); float64(got) < 0.14*float64(l.BaseRate()) {
		t.Errorf("floored achievable = %v, too low", got)
	}
	// Over-unity shares clamp to base.
	if got := l.Achievable(2, 3); got != l.BaseRate() {
		t.Errorf("overshared achievable = %v", got)
	}
}

func TestAchievableMonotone(t *testing.T) {
	l := mLink(t)
	f := func(a, b uint8) bool {
		sa, sb := float64(a)/255, float64(b)/255
		if sa > sb {
			sa, sb = sb, sa
		}
		return l.Achievable(sa, 1) <= l.Achievable(sb, 1)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLineFraction(t *testing.T) {
	l := mLink(t)
	if f := l.LineFraction(0); f != 0 {
		t.Errorf("zero bw fraction = %v", f)
	}
	if f := l.LineFraction(units.Gbps); f != 1 {
		t.Errorf("line-rate fraction = %v, want 1", f)
	}
	if f := l.LineFraction(500 * units.Mbps); math.Abs(float64(f)-0.5) > 1e-9 {
		t.Errorf("half-rate fraction = %v, want 0.5", f)
	}
	if f := l.LineFraction(10 * units.Gbps); f != 1 {
		t.Errorf("over-rate fraction = %v, want clamped to 1", f)
	}
}

func TestStreamLifecycle(t *testing.T) {
	s, err := NewStream(1000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Done() || s.Moved() != 0 || s.Remaining() != 1000 || s.Total() != 1000 {
		t.Fatal("fresh stream state wrong")
	}
	// 8 kbit/s moves 1000 bytes per second.
	moved := s.Advance(8000, 500*time.Millisecond)
	if moved != 500 {
		t.Errorf("moved %d in half a second at 1000 B/s, want 500", moved)
	}
	moved = s.Advance(8000, 10*time.Second) // would overshoot
	if moved != 500 {
		t.Errorf("final chunk = %d, want 500 (no overshoot)", moved)
	}
	if !s.Done() || s.Remaining() != 0 {
		t.Error("stream should be done")
	}
	if s.Advance(8000, time.Second) != 0 {
		t.Error("advancing a done stream must move nothing")
	}
}

func TestStreamValidation(t *testing.T) {
	if _, err := NewStream(0); err == nil {
		t.Error("zero-size stream must fail")
	}
	if _, err := NewStream(-1); err == nil {
		t.Error("negative stream must fail")
	}
	s, _ := NewStream(100)
	if s.Advance(0, time.Second) != 0 {
		t.Error("zero bandwidth moves nothing")
	}
	if s.Advance(1000, 0) != 0 {
		t.Error("zero dt moves nothing")
	}
	if s.Advance(1000, -time.Second) != 0 {
		t.Error("negative dt moves nothing")
	}
}

func TestStreamConservation(t *testing.T) {
	// Property: across arbitrary step sizes, total moved equals stream size
	// exactly when done, and Moved+Remaining == Total at every point.
	f := func(steps []uint8) bool {
		s, err := NewStream(100_000)
		if err != nil {
			return false
		}
		var acc units.Bytes
		for _, st := range steps {
			mv := s.Advance(units.BitsPerSecond(1+int(st))*units.Mbps, 50*time.Millisecond)
			acc += mv
			if s.Moved()+s.Remaining() != s.Total() {
				return false
			}
		}
		return acc == s.Moved() && acc <= s.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
