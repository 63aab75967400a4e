package cluster

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/units"
)

// TestReportInvariants checks the physics every cluster report must
// obey, whatever the fleet: on 300 seeded random fleets, every other
// one with a random failure schedule, flight and abort energies are
// finite and non-negative, contention only ever adds energy, the
// report's totals are the sums of its parts, the fleet energy is the
// hosts' idle draw over their live spans plus the migration energy, the
// power trace is well formed, every VM ends placed exactly once, and
// the freed hosts are the live hosts the end placement leaves empty.
// Determinism cannot catch a wrong energy that is wrong the same way on
// every run; these checks can.
func TestReportInvariants(t *testing.T) {
	cache := sim.NewCache(0)
	flights, aborts := 0, 0
	for i, cfg := range invariantFleets() {
		cfg.Cache = cache
		rep, final, err := runPlaced(cfg)
		if err != nil {
			t.Fatalf("fleet %d: %v", i, err)
		}
		flights += len(rep.Timeline)
		aborts += len(rep.Aborted)
		for _, msg := range reportViolations(cfg, rep, final) {
			t.Errorf("fleet %d: %s", i, msg)
		}
	}
	t.Logf("300 fleets: %d flights, %d aborts", flights, aborts)
	if flights == 0 || aborts == 0 {
		t.Fatalf("%d flights, %d aborts: generator drift leaves the invariants unexercised", flights, aborts)
	}
}

// reportViolations lists every invariant rep and its end placement
// final break for cfg.
func reportViolations(cfg Config, rep *Report, final []placedHost) []string {
	var bad []string
	fail := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}
	finiteNonNeg := func(j units.Joules) bool {
		f := float64(j)
		return !math.IsNaN(f) && !math.IsInf(f, 0) && f >= 0
	}

	var total units.Joules
	for _, m := range rep.Timeline {
		if !finiteNonNeg(m.Energy) || !finiteNonNeg(m.IntrinsicEnergy) {
			fail("flight %s: energy %v, intrinsic %v", m.VM, m.Energy, m.IntrinsicEnergy)
		}
		if !(m.Stretch >= 1) {
			fail("flight %s: stretch %v < 1", m.VM, m.Stretch)
		}
		if (m.Energy == m.IntrinsicEnergy) != (m.Stretch == 1) {
			fail("flight %s: energy %v vs intrinsic %v at stretch %v", m.VM, m.Energy, m.IntrinsicEnergy, m.Stretch)
		}
		if m.Duration != m.End-m.Start || m.Duration <= 0 {
			fail("flight %s: duration %v over [%v, %v]", m.VM, m.Duration, m.Start, m.End)
		}
		total += m.Energy
	}
	for _, a := range rep.Aborted {
		if !finiteNonNeg(a.Energy) {
			fail("abort %s: energy %v", a.VM, a.Energy)
		}
		total += a.Energy
	}
	if rep.TotalEnergy != total {
		fail("TotalEnergy %v, flights and aborts sum to %v", rep.TotalEnergy, total)
	}

	for i, p := range rep.PowerTrace {
		if math.IsNaN(float64(p.Watts)) || p.Watts < -1e-6 {
			fail("power trace point %d: %v W at %v", i, p.Watts, p.At)
		}
		if i > 0 && p.At <= rep.PowerTrace[i-1].At {
			fail("power trace point %d at %v does not follow %v", i, p.At, rep.PowerTrace[i-1].At)
		}
	}

	// Each host draws its idle floor from 0 to its crash, or else to the
	// end of the trace; the migration energy rides on top.
	end := rep.Makespan
	if cfg.Horizon > end {
		end = cfg.Horizon
	}
	if n := len(rep.PowerTrace); n > 0 && rep.PowerTrace[n-1].At > end {
		end = rep.PowerTrace[n-1].At
	}
	crashAt := map[string]time.Duration{}
	for _, ev := range cfg.Failures {
		if ev.Kind == FailHostCrash {
			crashAt[ev.Host] = ev.At
		}
	}
	l, err := cfg.validate()
	if err != nil {
		return append(bad, err.Error())
	}
	want := float64(rep.TotalEnergy)
	idle := map[string]units.Watts{}
	for _, h := range l.hosts {
		live := end
		if at, crashed := crashAt[h.Name]; crashed {
			live = at
		}
		want += float64(h.IdlePower) * live.Seconds()
		idle[h.Name] = h.IdlePower
	}
	if got := float64(rep.FleetEnergy); math.Abs(got-want) > 1e-9*math.Abs(want) {
		fail("FleetEnergy %v J, idle floors plus TotalEnergy give %v J", got, want)
	}

	// The end placement is in name order, as FreedHosts is, so the freed
	// hosts' idle powers sum in the report's order.
	var freed []string
	var savings units.Watts
	for _, h := range final {
		if len(h.VMs) == 0 && !h.Down {
			freed = append(freed, h.Name)
			savings += idle[h.Name]
		}
	}
	if !slices.Equal(rep.FreedHosts, freed) || rep.IdleSavings != savings {
		fail("freed %v reclaiming %v W, the end placement frees %v reclaiming %v W", rep.FreedHosts, rep.IdleSavings, freed, savings)
	}

	placed := map[string]int{}
	for _, h := range final {
		for _, v := range h.VMs {
			if strings.HasSuffix(v, "+incoming") {
				fail("final placement keeps reservation %s on %s", v, h.Name)
			}
			placed[v]++
		}
	}
	for _, h := range cfg.Hosts {
		for _, v := range h.VMs {
			if placed[v.Name] != 1 {
				fail("VM %s placed %d times at the end", v.Name, placed[v.Name])
			}
			delete(placed, v.Name)
		}
	}
	for name := range placed {
		if !strings.HasSuffix(name, "+incoming") {
			fail("final placement holds unknown VM %s", name)
		}
	}
	return bad
}
