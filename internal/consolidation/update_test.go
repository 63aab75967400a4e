package consolidation

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// viewMismatch reports the first way got differs from want in what
// Update keeps: each host's slots, aggregates and down flag, Order and
// Live. It is empty when they agree.
func viewMismatch(got, want *View) string {
	for i := range want.HostName {
		slots := func(v *View) []VMState {
			var out []VMState
			for k := v.VMStart[i]; k < v.VMStart[i]+v.VMCount[i]; k++ {
				out = append(out, v.vm(k))
			}
			return out
		}
		if g, w := slots(got), slots(want); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("host %s: slots %+v, want %+v", want.HostName[i], g, w)
		}
		if got.Busy[i] != want.Busy[i] || got.Mem[i] != want.Mem[i] || got.Down[i] != want.Down[i] {
			return fmt.Sprintf("host %s: busy %v mem %v down %v, want busy %v mem %v down %v", want.HostName[i],
				got.Busy[i], got.Mem[i], got.Down[i], want.Busy[i], want.Mem[i], want.Down[i])
		}
	}
	if !slices.Equal(got.Order, want.Order) {
		return fmt.Sprintf("order %v, want %v", got.Order, want.Order)
	}
	if !slices.Equal(got.Live, want.Live) {
		return fmt.Sprintf("live %v, want %v", got.Live, want.Live)
	}
	return ""
}

// TestUpdateMatchesNewView holds View's incremental upkeep to a fresh
// build: on the tie-heavy fleets, name-ordered and shuffled, each round
// changes a few random hosts' VM demands, residents and down flags,
// marks them (and a few unchanged hosts, some twice) on a Clone of the
// first view, and updates it. After every round the clone must equal
// NewView of the same hosts, and the view it was cloned from must be
// untouched.
func TestUpdateMatchesNewView(t *testing.T) {
	var ordered, shuffled, grown, flips int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(400)
		hosts := tieFleet(rng, n)
		if seed%2 == 0 {
			rng.Shuffle(n, func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
		}
		orig := cloneHosts(hosts)
		base := NewView(hosts)
		if base.NameOrdered {
			ordered++
		} else {
			shuffled++
		}
		v := base.Clone()
		fill := func(i int32, dst []VMState) ([]VMState, bool) {
			return append(dst, hosts[i].VMs...), hosts[i].Down
		}
		if v.Update(fill) {
			t.Fatalf("seed %d: an Update with no host marked reported a change", seed)
		}
		vmID := 0
		for round := 0; round < 20; round++ {
			for k := 1 + rng.Intn(8); k > 0; k-- {
				i := rng.Intn(n)
				h := &hosts[i]
				switch c := rng.Intn(4); {
				case c == 0 && len(h.VMs) > 0:
					h.VMs[rng.Intn(len(h.VMs))].BusyVCPUs = float64(rng.Intn(4))
				case c == 1 && len(h.VMs) > 0:
					h.VMs = slices.Delete(h.VMs, 0, 1)
				case c == 2:
					h.Down = !h.Down
					flips++
				default:
					h.VMs = append(h.VMs, VMState{
						Name: fmt.Sprintf("new%03d", vmID), MemBytes: gib(1), BusyVCPUs: float64(rng.Intn(4)),
					})
					vmID++
					grown++
				}
				v.Mark(int32(i))
				if rng.Intn(4) == 0 {
					v.Mark(int32(i))
				}
			}
			v.Mark(int32(rng.Intn(n)))
			if !v.Update(fill) {
				t.Fatalf("seed %d round %d: an Update of marked hosts reported no change", seed, round)
			}
			if diff := viewMismatch(&v, NewView(hosts)); diff != "" {
				t.Fatalf("seed %d (name-ordered %v) round %d: the updated view differs from a fresh one: %s", seed, v.NameOrdered, round, diff)
			}
		}
		if diff := viewMismatch(base, NewView(orig)); diff != "" {
			t.Fatalf("seed %d: updating a clone changed the view it was cloned from: %s", seed, diff)
		}
	}
	if ordered == 0 || shuffled == 0 || grown == 0 || flips == 0 {
		t.Fatalf("fixture drift: %d name-ordered and %d shuffled views, %d grown hosts, %d down flips", ordered, shuffled, grown, flips)
	}
}
