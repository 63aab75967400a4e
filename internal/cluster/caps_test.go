package cluster_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/consolidation"
	"repro/internal/units"
)

// capCheck plans through the wrapped policy and holds every plan the
// engine asks for to the policies' caps: with the plan's moves applied
// to the view's Busy and Mem, every host that received a guest must end
// within CPUCap × Threads (0.9 when unset) and within its MemCap. A
// breach fails t; rounds counts the plans checked.
type capCheck struct {
	consolidation.ViewPolicy
	t      testing.TB
	name   string
	rounds int
}

func (c *capCheck) PlanView(v *consolidation.View, cfg consolidation.Config) (*consolidation.Plan, error) {
	plan, err := c.ViewPolicy.PlanView(v, cfg)
	if err != nil {
		return plan, err
	}
	c.rounds++
	if msg := capBreach(v, plan, cfg.CPUCap); msg != "" {
		c.t.Errorf("%s: %s", c.name, msg)
	}
	return plan, nil
}

// withCapCheck returns cfg planning through a capCheck of its policy,
// and the check; a config without a view policy comes back as it is,
// with a nil check.
func withCapCheck(t testing.TB, name string, cfg cluster.Config) (cluster.Config, *capCheck) {
	vp, ok := cfg.Policy.(consolidation.ViewPolicy)
	if !ok {
		return cfg, nil
	}
	c := &capCheck{ViewPolicy: vp, t: t, name: name}
	cfg.Policy = c
	return cfg, c
}

// capBreach applies plan's moves to v's per-host loads and describes
// the first receiving host left past its caps, or returns "". The
// engine's view is name-ordered, so hosts are found by binary search.
func capBreach(v *consolidation.View, plan *consolidation.Plan, cpuCap float64) string {
	if cpuCap <= 0 || cpuCap > 1 {
		cpuCap = 0.9
	}
	host := func(name string) int {
		if i, ok := slices.BinarySearch(v.HostName, name); ok {
			return i
		}
		return -1
	}
	busy := map[int]float64{}
	mem := map[int]units.Bytes{}
	load := func(i int) {
		if _, ok := busy[i]; !ok {
			busy[i], mem[i] = v.Busy[i], v.Mem[i]
		}
	}
	var received []int
	for _, m := range plan.Moves {
		from, to := host(m.From), host(m.To)
		if from < 0 || to < 0 {
			return fmt.Sprintf("move %+v names an unknown host", m)
		}
		s, n := v.VMStart[from], v.VMCount[from]
		k := slices.Index(v.VMName[s:s+n], m.VM)
		if k < 0 {
			return fmt.Sprintf("move %+v names a VM not on its source", m)
		}
		k += int(s)
		load(from)
		load(to)
		busy[from] -= v.VMBusy[k]
		mem[from] -= v.VMMem[k]
		busy[to] += v.VMBusy[k]
		mem[to] += v.VMMem[k]
		received = append(received, to)
	}
	for _, i := range received {
		limit := float64(v.Threads[i]) * cpuCap
		if busy[i] > limit+1e-9 || mem[i] > v.MemCap[i] {
			return fmt.Sprintf("a plan leaves %s at %v busy vCPUs and %v of memory, past its cap of %v busy vCPUs and %v",
				v.HostName[i], busy[i], mem[i], limit, v.MemCap[i])
		}
	}
	return ""
}
