package consolidation

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/units"
)

// reuseFleet builds a random n-host data centre for the workspace-reuse
// test: mixed host sizes, zero to three VMs per host, names in index
// order.
func reuseFleet(rng *rand.Rand, n int) []HostState {
	hosts := make([]HostState, n)
	vmID := 0
	for i := range hosts {
		hosts[i] = HostState{
			Name:      fmt.Sprintf("h%02d", i),
			Threads:   16 << rng.Intn(2),
			MemBytes:  gib(32 << rng.Intn(2)),
			IdlePower: units.Watts(200 + rng.Intn(300)),
		}
		for v := rng.Intn(4); v > 0; v-- {
			hosts[i].VMs = append(hosts[i].VMs, VMState{
				Name:       fmt.Sprintf("vm%03d", vmID),
				MemBytes:   gib(1 + rng.Intn(6)),
				BusyVCPUs:  0.5 + 5.5*rng.Float64(),
				DirtyRatio: units.Fraction(rng.Float64()),
			})
			vmID++
		}
	}
	return hosts
}

// nextRound evolves the data centre the way a periodic re-planner sees
// it: most of the last plan's moves land, demands drift, a live host
// crashes now and then and an empty crashed host comes back.
func nextRound(rng *rand.Rand, hosts []HostState, plan *Plan) []HostState {
	next := cloneHosts(hosts)
	if plan != nil {
		for _, m := range plan.Moves {
			if rng.Float64() < 0.3 {
				continue // the flight aborted; the VM stays on its source
			}
			vm, ok := removeVM(hostByName(next, m.From), m.VM)
			if !ok {
				continue // a reservation entry or an already-moved VM
			}
			dst := hostByName(next, m.To)
			dst.VMs = append(dst.VMs, vm)
		}
	}
	for i := range next {
		for k := range next[i].VMs {
			if rng.Float64() < 0.3 {
				next[i].VMs[k].BusyVCPUs *= 0.5 + rng.Float64()
			}
		}
	}
	switch h := &next[rng.Intn(len(next))]; {
	case !h.Down && len(h.VMs) > 0 && rng.Float64() < 0.3:
		h.Down = true
	case h.Down && len(h.VMs) == 0:
		h.Down = false
	}
	return next
}

// refill rewrites v in place from hosts, as a caller that keeps one View
// across planning rounds does (the cluster engine's rebuild), so the
// view keeps its planning workspace.
func refill(v *View, hosts []HostState) {
	v.HostName, v.Threads, v.MemCap, v.IdlePower, v.Down = v.HostName[:0], v.Threads[:0], v.MemCap[:0], v.IdlePower[:0], v.Down[:0]
	v.Busy, v.Mem, v.VMStart, v.VMCount = v.Busy[:0], v.Mem[:0], v.VMStart[:0], v.VMCount[:0]
	v.VMName, v.VMMem, v.VMBusy, v.VMDirty = v.VMName[:0], v.VMMem[:0], v.VMBusy[:0], v.VMDirty[:0]
	for _, h := range hosts {
		v.AppendHost(h)
	}
	v.NameOrdered = slices.IsSortedFunc(hosts, func(a, b HostState) int { return strings.Compare(a.Name, b.Name) })
	v.SortOrder()
}

// roundConfig draws one round's bounds: a move budget (often none),
// pinned VMs plus a name that matches nothing, and every resident of a
// crashed host as an evacuee.
func roundConfig(rng *rand.Rand, hosts []HostState) Config {
	cfg := Config{Horizon: 24 * time.Hour, MaxMoves: rng.Intn(4), Pinned: []string{"no-such-vm"}}
	for _, h := range hosts {
		for _, vm := range h.VMs {
			switch {
			case h.Down:
				cfg.Evacuate = append(cfg.Evacuate, vm.Name)
			case rng.Float64() < 0.1:
				cfg.Pinned = append(cfg.Pinned, vm.Name)
			}
		}
	}
	return cfg
}

// TestPlanViewWorkspaceReuse plans evolving rounds on one persistent
// View, whose planning workspace carries over from call to call, and
// requires every plan to equal planning a fresh NewView of the same
// round. The rounds include evacuations (which re-sort the drain order
// under touched hosts), pinned VMs, MaxMoves cut-offs, a change of host
// count and fleets that are not name-ordered; a reset that leaves any
// per-host overlay or mark of an earlier round behind diverges.
func TestPlanViewWorkspaceReuse(t *testing.T) {
	planners := []ViewPolicy{
		EnergyAware{Model: HeuristicCost{}}, // order-indexed target scan on name-ordered views
		EnergyAware{Model: &stubModel{}},    // linear target scan
		FirstFitDecreasing{Model: HeuristicCost{}},
	}
	var moves, resorted, unordered int
	for seed := int64(1); seed <= 24; seed++ {
		for _, p := range planners {
			rng := rand.New(rand.NewSource(seed))
			hosts := reuseFleet(rng, 20+rng.Intn(20))
			if seed%4 == 0 {
				rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
			}
			persistent := &View{}
			var last *Plan
			for round := 0; round < 16; round++ {
				if round > 0 {
					hosts = nextRound(rng, hosts, last)
				}
				if round == 8 {
					hosts = append(hosts, HostState{Name: "h99", Threads: 32, MemBytes: gib(64), IdlePower: 300})
				}
				cfg := roundConfig(rng, hosts)
				refill(persistent, hosts)
				got, gotErr := p.PlanView(persistent, cfg)
				fresh := NewView(hosts)
				want, wantErr := p.PlanView(fresh, cfg)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("seed %d %s round %d: reused view err = %v, fresh view err = %v", seed, p.Name(), round, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s round %d: reused view plans\n%+v\nfresh view plans\n%+v", seed, p.Name(), round, got, want)
				}
				if got == nil {
					last = nil
					continue
				}
				if !sort.StringsAreSorted(got.FreedHosts) {
					t.Fatalf("seed %d %s round %d: FreedHosts not in name order: %v", seed, p.Name(), round, got.FreedHosts)
				}
				moves += len(got.Moves)
				if !fresh.NameOrdered {
					unordered++
				}
				if _, ok := p.(EnergyAware); ok {
					evacs := 0
					for _, m := range got.Moves {
						if fresh.Down[slices.Index(fresh.HostName, m.From)] {
							evacs++
						}
					}
					if evacs > 0 && evacs < len(got.Moves) {
						resorted++ // drains planned under evacuation-touched hosts
					}
				}
				last = got
			}
		}
	}
	// Guard against fixture drift: the sequences must exercise what the
	// test claims to cover.
	if moves == 0 || resorted == 0 || unordered == 0 {
		t.Fatalf("fixture drift: %d moves, %d rounds draining after an evacuation, %d plans on unordered views",
			moves, resorted, unordered)
	}
	t.Logf("%d moves, %d rounds draining after an evacuation, %d plans on unordered views", moves, resorted, unordered)
}
