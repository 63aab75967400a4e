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
// values: the ties the (Busy, HostName) order must break by name. One
// host in ten is down, so the live order leaves out populated hosts too.
func tieFleet(rng *rand.Rand, n int) []HostState {
	hosts := make([]HostState, n)
	vmID := 0
	for i := range hosts {
		hosts[i] = HostState{Name: fmt.Sprintf("h%04d", i), Threads: 32, MemBytes: gib(64), IdlePower: 300, Down: rng.Intn(10) == 0}
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

// nameSorted returns the given host indices, or every host's when
// hosts is nil, sorted by (busy, HostName) with a string comparison:
// the order's definition.
func nameSorted(v *View, busy []float64, hosts []int32) []int32 {
	out := slices.Clone(hosts)
	if hosts == nil {
		out = make([]int32, len(busy))
		for i := range out {
			out[i] = int32(i)
		}
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

// liveOf filters order to the hosts that are up and hold at least one
// VM under the resident counts count: the live order's definition.
func liveOf(v *View, order []int32, count func(i int32) int32) []int32 {
	var out []int32
	for _, i := range order {
		if count(i) > 0 && !v.Down[i] {
			out = append(out, i)
		}
	}
	return out
}

// TestOrderMatchesNameSort holds the view's comparator to its
// definition on seeded random views with many busy ties, whether the
// host list is in name order (ties broken by index) or shuffled (ties
// broken by name). SortOrder's Live must be the up, populated hosts of
// a (Busy, HostName) string sort of every host. Under loads an
// evacuation moved in the planning workspace's overlay, the drain
// re-sort must give the string sort of Live and the touched hosts, and
// the drain order it yields must be the up, populated hosts of the
// string sort of every host under those loads.
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
		viewCount := func(i int32) int32 { return v.VMCount[i] }
		if want := liveOf(v, nameSorted(v, v.Busy, nil), viewCount); !slices.Equal(v.Live, want) || len(want) == 0 {
			t.Fatalf("seed %d (name-ordered %v): SortOrder's Live is\n%v\nthe filtered name sort is\n%v", seed, v.NameOrdered, v.Live, want)
		}
		if got := v.workspace().liveOrder(); !slices.Equal(got, v.Live) {
			t.Fatalf("seed %d: an untouched plan's drain order is\n%v\nnot the view's Live\n%v", seed, got, v.Live)
		}
		// Evacuations move whole VMs: some hosts gain or lose a few
		// vCPUs of load, and the drain order is re-sorted under them.
		// The moved loads go into the workspace's overlay, as a plan's
		// mutations do; every other host keeps the view's load.
		// Evacuations also empty hosts and fill empty ones, which moves
		// them out of and into the live order.
		w := v.workspace()
		for k := 1 + rng.Intn(n/4); k > 0; k-- {
			o := w.touch(int32(rng.Intn(n)))
			o.busy = float64(rng.Intn(4))
			if rng.Intn(2) == 0 {
				o.vms = o.vms[:0]
			} else {
				o.vms = append(o.vms, VMState{Name: "evacuee", MemBytes: gib(1)})
			}
		}
		loads := make([]float64, n)
		for i := range loads {
			loads[i], _ = w.load(int32(i))
		}
		cands := slices.Clone(v.Live)
		for _, i := range w.touched {
			if !slices.Contains(cands, i) {
				cands = append(cands, i)
			}
		}
		if got, want := w.resort(), nameSorted(v, loads, cands); !slices.Equal(got, want) {
			t.Fatalf("seed %d (name-ordered %v): the drain re-sort gives\n%v\nthe name sort of Live and the touched hosts gives\n%v", seed, v.NameOrdered, got, want)
		}
		if got, want := w.liveOrder(), liveOf(v, nameSorted(v, loads, nil), w.count); !slices.Equal(got, want) {
			t.Fatalf("seed %d (name-ordered %v): the re-sorted drain order is\n%v\nthe filtered name sort is\n%v", seed, v.NameOrdered, got, want)
		}
	}
	if ordered == 0 || shuffled == 0 {
		t.Fatalf("fixture drift: %d name-ordered and %d shuffled views", ordered, shuffled)
	}
}
