package vm

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/units"
)

func TestTypesMatchTableIIb(t *testing.T) {
	types := Types()
	if len(types) != 4 {
		t.Fatalf("catalog has %d types, want 4", len(types))
	}
	cases := []struct {
		id      string
		vcpus   int
		ram     units.Bytes
		work    string
		storage units.Bytes
		kernel  string
	}{
		{TypeLoadCPU, 4, 512 * units.MiB, "matrixmult", 1 * units.GiB, "2.6.32"},
		{TypeMigratingCPU, 4, 4 * units.GiB, "matrixmult", 6 * units.GiB, "2.6.32"},
		{TypeMigratingMem, 1, 4 * units.GiB, "pagedirtier", 6 * units.GiB, "2.6.32"},
		{TypeDom0, 1, 512 * units.MiB, "VMM", 115 * units.GiB, "3.11.4"},
	}
	for _, c := range cases {
		tt, err := Lookup(c.id)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", c.id, err)
		}
		if tt.VCPUs != c.vcpus || tt.RAM != c.ram || tt.Workload != c.work ||
			tt.Storage != c.storage || tt.Kernel != c.kernel {
			t.Errorf("%s = %+v, want %+v", c.id, tt, c)
		}
	}
	if _, err := Lookup("no-such-type"); err == nil {
		t.Error("unknown type must fail")
	}
}

func newRunning(t *testing.T, typ string) *VM {
	t.Helper()
	tt, err := Lookup(typ)
	if err != nil {
		t.Fatal(err)
	}
	v, err := New("test-vm", tt)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Start(); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNewValidation(t *testing.T) {
	tt, _ := Lookup(TypeLoadCPU)
	if _, err := New("", tt); err == nil {
		t.Error("empty name must fail")
	}
	if _, err := New("x", InstanceType{ID: "broken"}); err == nil {
		t.Error("resourceless type must fail")
	}
}

func TestLifecycle(t *testing.T) {
	v := newRunning(t, TypeMigratingCPU)
	if v.State() != StateRunning || !v.Active() {
		t.Fatalf("after Start state = %v", v.State())
	}
	if v.Memory == nil || v.Memory.TotalPages() != units.PagesOf(4*units.GiB) {
		t.Fatal("memory image not allocated to type size")
	}
	if err := v.Start(); err == nil {
		t.Error("double start must fail")
	}
	if err := v.BeginMigration(); err != nil {
		t.Fatal(err)
	}
	if v.State() != StateMigrating || !v.Active() {
		t.Errorf("migrating VM must stay active, state = %v", v.State())
	}
	if err := v.Suspend(); err != nil {
		t.Fatal(err)
	}
	if v.Active() {
		t.Error("suspended VM must be inactive")
	}
	if err := v.Resume(); err != nil {
		t.Fatal(err)
	}
	if v.State() != StateRunning {
		t.Errorf("after resume state = %v", v.State())
	}
}

func TestIllegalTransitions(t *testing.T) {
	tt, _ := Lookup(TypeLoadCPU)
	v, _ := New("x", tt)
	if err := v.Suspend(); err == nil {
		t.Error("suspend from stopped must fail")
	}
	if err := v.Resume(); err == nil {
		t.Error("resume from stopped must fail")
	}
	if err := v.BeginMigration(); err == nil {
		t.Error("migrate from stopped must fail")
	}
	if err := v.EndMigration(); err == nil {
		t.Error("end migration from stopped must fail")
	}
	_ = v.Start()
	if err := v.Resume(); err == nil {
		t.Error("resume from running must fail")
	}
}

func TestDemandClampedToVCPUs(t *testing.T) {
	v := newRunning(t, TypeLoadCPU) // 4 vCPUs
	v.SetDemand(10)
	if v.Demand() != 4 {
		t.Errorf("demand = %v, want clamped to 4", v.Demand())
	}
	v.SetDemand(-3)
	if v.Demand() != 0 {
		t.Errorf("negative demand = %v, want 0", v.Demand())
	}
}

func TestSuspendedDemandsNothing(t *testing.T) {
	v := newRunning(t, TypeMigratingCPU)
	v.SetDemand(4)
	if v.Demand() != 4 {
		t.Fatalf("demand = %v", v.Demand())
	}
	_ = v.Suspend()
	if v.Demand() != 0 {
		t.Errorf("suspended demand = %v, want 0 (CPU(v,t)=0 when suspended)", v.Demand())
	}
	if v.DirtyRatio() != 0 {
		t.Errorf("suspended DR = %v, want 0 (DR(v,t)=0 when suspended)", v.DirtyRatio())
	}
}

func TestStepMemoryScalesWithCPUShare(t *testing.T) {
	v := newRunning(t, TypeMigratingMem)
	v.SetDirtier(mem.NewUniformDirtier(1000, 0.95, 1))
	full := v.StepMemory(1, 1)
	if full != 1000 {
		t.Errorf("full-share step issued %d, want 1000", full)
	}
	v2 := newRunning(t, TypeMigratingMem)
	v2.SetDirtier(mem.NewUniformDirtier(1000, 0.95, 1))
	half := v2.StepMemory(1, 0.5)
	if half != 500 {
		t.Errorf("half-share step issued %d, want 500", half)
	}
	// Over-unity share clamps.
	v3 := newRunning(t, TypeMigratingMem)
	v3.SetDirtier(mem.NewUniformDirtier(1000, 0.95, 1))
	over := v3.StepMemory(1, 2)
	if over != 1000 {
		t.Errorf("over-share step issued %d, want 1000", over)
	}
}

func TestStepMemoryInactive(t *testing.T) {
	v := newRunning(t, TypeMigratingMem)
	v.SetDirtier(mem.NewUniformDirtier(1000, 0.95, 1))
	_ = v.Suspend()
	if n := v.StepMemory(1, 1); n != 0 {
		t.Errorf("suspended StepMemory issued %d, want 0", n)
	}
	if n := newRunning(t, TypeMigratingMem).StepMemory(1, 0); n != 0 {
		t.Errorf("zero-share StepMemory issued %d, want 0", n)
	}
}

func TestSetDirtierNil(t *testing.T) {
	v := newRunning(t, TypeMigratingMem)
	v.SetDirtier(nil)
	if n := v.StepMemory(1, 1); n != 0 {
		t.Error("nil dirtier must issue nothing")
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		StateStopped:   "stopped",
		StateRunning:   "running",
		StateSuspended: "suspended",
		StateMigrating: "migrating",
		State(42):      "State(42)",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("State %d = %q, want %q", int(s), s.String(), w)
		}
	}
}

func TestEndMigrationFromSuspended(t *testing.T) {
	// Target-side activation: the VM arrives suspended and is resumed via
	// EndMigration.
	v := newRunning(t, TypeMigratingCPU)
	_ = v.BeginMigration()
	_ = v.Suspend()
	if err := v.EndMigration(); err != nil {
		t.Fatalf("EndMigration from suspended: %v", err)
	}
	if v.State() != StateRunning {
		t.Errorf("state = %v, want running", v.State())
	}
}
