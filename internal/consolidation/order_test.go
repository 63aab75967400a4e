package consolidation

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// tieFleet builds a random n-host data centre that is mostly empty, so
// most hosts tie at zero busy and the rest share a few whole-vCPU busy
// values: the ties the (Busy, HostName) order must break by name.
func tieFleet(rng *rand.Rand, n int) []HostState {
	hosts := make([]HostState, n)
	vmID := 0
	for i := range hosts {
		hosts[i] = HostState{Name: fmt.Sprintf("h%04d", i), Threads: 32, MemBytes: gib(64), IdlePower: 300}
		if rng.Float64() < 0.25 {
			for k := 1 + rng.Intn(2); k > 0; k-- {
				hosts[i].VMs = append(hosts[i].VMs, VMState{
					Name:      fmt.Sprintf("vm%04d", vmID),
					MemBytes:  gib(2),
					BusyVCPUs: float64(1 + rng.Intn(3)),
				})
				vmID++
			}
		}
	}
	return hosts
}

// nameSorted returns the view's host indices sorted by (busy, HostName)
// with a string comparison: the order's definition.
func nameSorted(v *View, busy []float64) []int32 {
	out := make([]int32, len(busy))
	for i := range out {
		out[i] = int32(i)
	}
	sort.Slice(out, func(a, b int) bool {
		i, j := out[a], out[b]
		if busy[i] != busy[j] {
			return busy[i] < busy[j]
		}
		return v.HostName[i] < v.HostName[j]
	})
	return out
}

// TestOrderMatchesNameSort holds the view's comparator to its
// definition on seeded random views with many busy ties: SortOrder and
// the drain re-sort, under loads an evacuation moved in the planning
// workspace's overlay, must give exactly the permutation a (Busy,
// HostName) string sort of the effective loads gives, whether the host
// list is in name order (ties broken by index) or shuffled (ties broken
// by name).
func TestOrderMatchesNameSort(t *testing.T) {
	var ordered, shuffled int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(400)
		hosts := tieFleet(rng, n)
		if seed%2 == 0 {
			rng.Shuffle(n, func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
		}
		v := NewView(hosts)
		if v.NameOrdered {
			ordered++
		} else {
			shuffled++
		}
		if want := nameSorted(v, v.Busy); !slices.Equal(v.Order, want) {
			t.Fatalf("seed %d (name-ordered %v): SortOrder gives\n%v\nthe name sort gives\n%v", seed, v.NameOrdered, v.Order, want)
		}
		// Evacuations move whole VMs: some hosts gain or lose a few
		// vCPUs of load, and the drain order is re-sorted under them.
		// The moved loads go into the workspace's overlay, as a plan's
		// mutations do; every other host keeps the view's load.
		w := v.workspace()
		for k := 1 + rng.Intn(n/4); k > 0; k-- {
			w.touch(int32(rng.Intn(n))).busy = float64(rng.Intn(4))
		}
		loads := make([]float64, n)
		for i := range loads {
			loads[i], _ = w.load(int32(i))
		}
		if got, want := w.resort(), nameSorted(v, loads); !slices.Equal(got, want) {
			t.Fatalf("seed %d (name-ordered %v): the drain re-sort gives\n%v\nthe name sort gives\n%v", seed, v.NameOrdered, got, want)
		}
	}
	if ordered == 0 || shuffled == 0 {
		t.Fatalf("fixture drift: %d name-ordered and %d shuffled views", ordered, shuffled)
	}
}
