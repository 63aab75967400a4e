package xen

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/units"
	"repro/internal/vm"
	"repro/internal/workload"
)

func newHost(t *testing.T, machine string) *Host {
	t.Helper()
	spec, ok := hw.Catalog()[machine]
	if !ok {
		t.Fatalf("no machine %s", machine)
	}
	h, err := NewHost(spec)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func addVM(t *testing.T, h *Host, name, typeID string, demand units.Utilisation) *vm.VM {
	t.Helper()
	typ, err := vm.Lookup(typeID)
	if err != nil {
		t.Fatal(err)
	}
	g, err := vm.New(name, typ)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Attach(g); err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	g.SetDemand(demand)
	return g
}

// grant reads the CPU granted to the named guest, through its slot as
// the kernel reads it.
func grant(h *Host, a Allocation, name string) units.Utilisation {
	slot, _ := h.GuestIndex(name)
	return a.Guest(slot)
}

func TestNewHostValidates(t *testing.T) {
	if _, err := NewHost(hw.MachineSpec{}); err == nil {
		t.Error("invalid spec must fail")
	}
}

func TestAttachDetach(t *testing.T) {
	h := newHost(t, "m01")
	g := addVM(t, h, "a", vm.TypeLoadCPU, 4)
	if err := h.Attach(g); err == nil {
		t.Error("duplicate attach must fail")
	}
	if err := h.Attach(nil); err == nil {
		t.Error("nil attach must fail")
	}
	if got, ok := h.Guest("a"); !ok || got != g {
		t.Error("Guest lookup failed")
	}
	if err := h.Detach("a"); err != nil {
		t.Fatal(err)
	}
	if err := h.Detach("a"); err == nil {
		t.Error("double detach must fail")
	}
}

func TestAttachMemoryLimit(t *testing.T) {
	h := newHost(t, "m01") // 32 GiB
	// Seven 4 GiB guests fit (28 GiB + dom-0); the eighth does not.
	for i := 0; i < 7; i++ {
		addVM(t, h, string(rune('a'+i)), vm.TypeMigratingCPU, 4)
	}
	typ, _ := vm.Lookup(vm.TypeMigratingCPU)
	extra, _ := vm.New("z", typ)
	if err := h.Attach(extra); err == nil {
		t.Error("over-RAM attach must succeed... actually must fail")
	}
}

func TestVMMDemandGrowsWithGuests(t *testing.T) {
	h := newHost(t, "m01")
	base := h.VMMDemand()
	if base != Dom0BaseCPU {
		t.Errorf("empty host VMM = %v, want %v", base, Dom0BaseCPU)
	}
	addVM(t, h, "a", vm.TypeLoadCPU, 4)
	addVM(t, h, "b", vm.TypeLoadCPU, 4)
	if got := h.VMMDemand(); got != Dom0BaseCPU+2*VMMPerVM {
		t.Errorf("VMM with 2 guests = %v", got)
	}
	// Suspended guests do not add arbitration load.
	g, _ := h.Guest("a")
	_ = g.Suspend()
	if got := h.VMMDemand(); got != Dom0BaseCPU+VMMPerVM {
		t.Errorf("VMM with 1 active guest = %v", got)
	}
}

func TestScheduleUndersubscribed(t *testing.T) {
	h := newHost(t, "m01") // 32 threads
	addVM(t, h, "a", vm.TypeLoadCPU, 4)
	addVM(t, h, "b", vm.TypeLoadCPU, 2)
	alloc := h.Schedule()
	if alloc.Saturated {
		t.Error("6 demanded of 32 must not saturate")
	}
	if grant(h, alloc, "a") != 4 || grant(h, alloc, "b") != 2 {
		t.Errorf("full grants expected, got %v", alloc.Guests)
	}
	wantHost := float64(h.VMMDemand()) + 6
	if math.Abs(float64(alloc.HostCPU())-wantHost) > 1e-9 {
		t.Errorf("HostCPU = %v, want %v (Eq. 2)", alloc.HostCPU(), wantHost)
	}
	if alloc.MigrationShare() != 1 {
		t.Error("no-migration share must be 1")
	}
}

func TestScheduleSaturatedMultiplexing(t *testing.T) {
	// The paper's 8-VM case: 8×4 vCPU load VMs + 4 vCPU migrating VM = 36
	// demanded on 32 threads → proportional scaling, flat total.
	h := newHost(t, "m01")
	for i := 0; i < 8; i++ {
		addVM(t, h, string(rune('a'+i)), vm.TypeLoadCPU, 4)
	}
	addVM(t, h, "mig", vm.TypeMigratingCPU, 4)
	h.SetMigrationActive(true)

	alloc := h.Schedule()
	if !alloc.Saturated {
		t.Fatal("36+ demanded of 32 must saturate")
	}
	// Everything the machine has is allocated: HostCPU == capacity.
	if math.Abs(float64(alloc.HostCPU()-h.Spec.Capacity())) > 1e-9 {
		t.Errorf("saturated HostCPU = %v, want capacity %v", alloc.HostCPU(), h.Spec.Capacity())
	}
	// Guests all get the same scaled share (equal weights).
	a, b := grant(h, alloc, "a"), grant(h, alloc, "b")
	if math.Abs(float64(a-b)) > 1e-9 {
		t.Errorf("equal demands got unequal grants: %v vs %v", a, b)
	}
	if a >= 4 {
		t.Errorf("saturated grant %v must be below demand 4", a)
	}
	// The migration helper is squeezed too — the bandwidth-reduction
	// mechanism of Figures 3 and 4.
	if share := alloc.MigrationShare(); share >= 1 || share <= 0 {
		t.Errorf("migration share under saturation = %v, want within (0,1)", share)
	}
}

func TestScheduleIdleHost(t *testing.T) {
	h := newHost(t, "m01")
	alloc := h.Schedule()
	if alloc.HostCPU() != Dom0BaseCPU {
		t.Errorf("idle host CPU = %v, want dom-0 only", alloc.HostCPU())
	}
	if alloc.Saturated {
		t.Error("idle host cannot saturate")
	}
}

func TestMigrationAddsDemand(t *testing.T) {
	h := newHost(t, "m01")
	addVM(t, h, "mig", vm.TypeMigratingCPU, 4)
	before := h.Schedule().HostCPU()
	h.SetMigrationActive(true)
	after := h.Schedule().HostCPU()
	if math.Abs(float64(after-before-MigrationCPUDemand)) > 1e-9 {
		t.Errorf("migration added %v CPU, want %v", after-before, MigrationCPUDemand)
	}
	if !h.MigrationActive() {
		t.Error("MigrationActive not set")
	}
}

func TestStepDrivesDirtying(t *testing.T) {
	h := newHost(t, "m01")
	g := addVM(t, h, "mem", vm.TypeMigratingMem, 1)
	g.SetDirtier(workload.PagedirtierProfile(0.95).Dirtier(1))
	alloc := h.Schedule()
	events := h.Step(alloc, 1.0)
	if events <= 0 {
		t.Error("step must issue page writes for an active pagedirtier guest")
	}
	if g.DirtyRatio() <= 0 {
		t.Error("dirty ratio must rise")
	}
	// Suspended guests stop dirtying.
	_ = g.Suspend()
	if ev := h.Step(h.Schedule(), 1.0); ev != 0 {
		t.Errorf("suspended guest issued %d events", ev)
	}
}

func TestHostLoadAssembly(t *testing.T) {
	h := newHost(t, "m01")
	addVM(t, h, "a", vm.TypeLoadCPU, 4)
	h.SetMigrationActive(true)
	alloc := h.Schedule()
	pagesPerSec := 1e9 / float64(units.PageSize) // → 1 GB/s
	l := h.Load(alloc, pagesPerSec, 0.5)
	if l.CPU != alloc.HostCPU() {
		t.Errorf("load CPU = %v, want %v", l.CPU, alloc.HostCPU())
	}
	if math.Abs(l.MemGBs-1.0) > 1e-9 {
		t.Errorf("load mem = %v GB/s, want 1", l.MemGBs)
	}
	if l.NetFrac != 0.5 || !l.MigActive {
		t.Errorf("load net/mig = %v/%v", l.NetFrac, l.MigActive)
	}
}

func TestHostCreate(t *testing.T) {
	h := newHost(t, "m01")
	g, err := h.Create(vm.TypeLoadCPU, workload.MatrixMultProfile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.State() != vm.StateRunning {
		t.Errorf("created guest state = %v", g.State())
	}
	if g.Demand() != 4 {
		t.Errorf("matrixmult on 4 vCPUs demands %v, want 4", g.Demand())
	}
	if _, ok := h.Guest(g.Name); !ok {
		t.Error("guest not attached to host")
	}
}

func TestHostCreateValidation(t *testing.T) {
	h := newHost(t, "m01")
	if _, err := h.Create("bogus-type", workload.IdleProfile(), 1); err == nil {
		t.Error("unknown type must fail")
	}
	if _, err := h.Create(vm.TypeLoadCPU, workload.Profile{Name: "x", CPUPerVCPU: 2}, 1); err == nil {
		t.Error("invalid profile must fail")
	}
}

func TestHostCreateNamesUnique(t *testing.T) {
	h := newHost(t, "o1") // plenty of RAM
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		g, err := h.Create(vm.TypeLoadCPU, workload.MatrixMultProfile(), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if seen[g.Name] {
			t.Fatalf("duplicate name %q", g.Name)
		}
		seen[g.Name] = true
	}
}
