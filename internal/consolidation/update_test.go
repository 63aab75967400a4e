package consolidation

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/units"
)

// viewMismatch reports the first way got differs from want in what
// Update keeps: each host's slots, aggregates and down flag, and Live.
// It is empty when they agree.
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

// rewindMismatch reports the first field in which v, rewound to base,
// differs from want, a fresh base.Clone(): every array Update writes,
// with its length (the arena's too), the shared constants, and the
// upkeep state, which must hold no mark and no rewritten host. It is
// empty when they agree.
func rewindMismatch(v, want *View) string {
	if &v.HostName[0] != &want.HostName[0] || &v.Threads[0] != &want.Threads[0] ||
		&v.MemCap[0] != &want.MemCap[0] || &v.IdlePower[0] != &want.IdlePower[0] || v.NameOrdered != want.NameOrdered {
		return "the per-host constants are not the base's"
	}
	for _, f := range []struct {
		name string
		eq   bool
	}{
		{"Down", slices.Equal(v.Down, want.Down)},
		{"Busy", slices.Equal(v.Busy, want.Busy)},
		{"Mem", slices.Equal(v.Mem, want.Mem)},
		{"VMStart", slices.Equal(v.VMStart, want.VMStart)},
		{"VMCount", slices.Equal(v.VMCount, want.VMCount)},
		{"Live", slices.Equal(v.Live, want.Live)},
		{"VMName", slices.Equal(v.VMName, want.VMName)},
		{"VMMem", slices.Equal(v.VMMem, want.VMMem)},
		{"VMBusy", slices.Equal(v.VMBusy, want.VMBusy)},
		{"VMDirty", slices.Equal(v.VMDirty, want.VMDirty)},
	} {
		if !f.eq {
			return f.name + " differs from a fresh clone's"
		}
	}
	u := &v.up
	if len(u.marks) != 0 || slices.Contains(u.marked, true) {
		return fmt.Sprintf("%d marks pending", len(u.marks))
	}
	if len(u.rewritten) != 0 || slices.Contains(u.rewrote, true) {
		return fmt.Sprintf("%d hosts still listed as rewritten", len(u.rewritten))
	}
	return ""
}

// churn changes a few random hosts of a fleet and marks them on v, as
// the cluster engine's events do: a host takes VMs past its slot count
// (its range moves to the arena's tail), sheds some, empties and leaves
// Live, fills from empty and enters it, goes down or comes back up, or
// has a guest's demand, memory and dirty ratio drift. Every slot field
// changes somewhere, so a rewind that skips restoring any one array
// shows.
func churn(rng *rand.Rand, hosts []HostState, v *View, vmID *int) {
	n := len(hosts)
	newVM := func() VMState {
		*vmID++
		return VMState{
			Name:       fmt.Sprintf("churn%05d", *vmID),
			MemBytes:   gib(1 + rng.Intn(4)),
			BusyVCPUs:  float64(rng.Intn(5)) / 2,
			DirtyRatio: units.Fraction(rng.Float64()),
		}
	}
	for k := 1 + rng.Intn(12); k > 0; k-- {
		i := rng.Intn(n)
		h := &hosts[i]
		switch c := rng.Intn(6); {
		case c == 0 || (c == 1 && len(h.VMs) == 0):
			for g := 1 + rng.Intn(3); g > 0; g-- {
				h.VMs = append(h.VMs, newVM())
			}
		case c == 1:
			h.VMs = h.VMs[:rng.Intn(len(h.VMs))]
		case c == 2:
			h.VMs = nil
		case c == 3:
			h.Down = !h.Down
		case len(h.VMs) > 0:
			g := &h.VMs[rng.Intn(len(h.VMs))]
			g.BusyVCPUs, g.MemBytes, g.DirtyRatio = float64(rng.Intn(7))/2, gib(1+rng.Intn(4)), units.Fraction(rng.Float64())
		}
		v.Mark(int32(i))
	}
}

// TestRewindMatchesClone holds View.Rewind to a fresh Clone: on the
// tie-heavy fleets, name-ordered and shuffled, a clone of each fleet's
// view goes through cycles of random Mark and Update rounds (churn),
// some cycles also planning on it or leaving marks pending, and is
// rewound to the base view after each. Every rewound view must equal
// base.Clone() in every field, arena length, Live and cleared upkeep
// state included, and every policy must plan on it exactly as on a
// fresh clone, with evacuations that re-sort the drain order; the base
// view must be left as built.
func TestRewindMatchesClone(t *testing.T) {
	planners := []ViewPolicy{
		EnergyAware{Model: HeuristicCost{}}, // order-indexed target scan on name-ordered views
		EnergyAware{Model: &stubModel{}},    // linear target scan
		FirstFitDecreasing{Model: HeuristicCost{}},
	}
	var ordered, shuffled, moved, plans, pending int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(400)
		orig := tieFleet(rng, n)
		if seed%2 == 0 {
			rng.Shuffle(n, func(i, j int) { orig[i], orig[j] = orig[j], orig[i] })
		}
		base := NewView(orig)
		if base.NameOrdered {
			ordered++
		} else {
			shuffled++
		}
		fill := func(hosts []HostState) func(i int32, dst []VMState) ([]VMState, bool) {
			return func(i int32, dst []VMState) ([]VMState, bool) {
				return append(dst, hosts[i].VMs...), hosts[i].Down
			}
		}
		v := base.Clone()
		vmID := 0
		for cycle := 0; cycle < 6; cycle++ {
			hosts := cloneHosts(orig)
			for round := rng.Intn(8); round >= 0; round-- {
				churn(rng, hosts, &v, &vmID)
				v.Update(fill(hosts))
				if rng.Intn(3) == 0 {
					if _, err := planners[rng.Intn(len(planners))].PlanView(&v, roundConfig(rng, hosts)); err != nil {
						t.Fatalf("seed %d cycle %d: %v", seed, cycle, err)
					}
				}
			}
			if len(v.VMName) > len(base.VMName) {
				moved++
			}
			if rng.Intn(3) == 0 {
				churn(rng, hosts, &v, &vmID) // marks that no Update consumes
				pending++
			}
			v.Rewind(base)
			want := base.Clone()
			if diff := rewindMismatch(&v, &want); diff != "" {
				t.Fatalf("seed %d (name-ordered %v) cycle %d: the rewound view differs from a fresh clone: %s", seed, base.NameOrdered, cycle, diff)
			}
			cfg := roundConfig(rng, orig)
			for _, p := range planners {
				fresh := base.Clone()
				got, gotErr := p.PlanView(&v, cfg)
				wantPlan, wantErr := p.PlanView(&fresh, cfg)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, wantPlan) {
					t.Fatalf("seed %d cycle %d %s: the rewound view plans\n%+v (%v)\na fresh clone plans\n%+v (%v)", seed, cycle, p.Name(), got, gotErr, wantPlan, wantErr)
				}
				plans++
			}
		}
		if diff := viewMismatch(base, NewView(orig)); diff != "" {
			t.Fatalf("seed %d: rewinding a clone changed the view it was cloned from: %s", seed, diff)
		}
	}
	if ordered == 0 || shuffled == 0 || moved == 0 || pending == 0 || plans == 0 {
		t.Fatalf("fixture drift: %d name-ordered and %d shuffled views, %d cycles with moved ranges, %d with pending marks, %d plans",
			ordered, shuffled, moved, pending, plans)
	}
}
