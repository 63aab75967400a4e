package hw

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func m01(t *testing.T) MachineSpec {
	t.Helper()
	m, ok := Catalog()["m01"]
	if !ok {
		t.Fatal("m01 missing from catalog")
	}
	return m
}

func TestCatalogMatchesTableIIc(t *testing.T) {
	cat := Catalog()
	// The paper's four machines plus the h1 extension machine.
	if len(cat) != 5 {
		t.Fatalf("catalog has %d machines, want 5", len(cat))
	}
	for _, name := range []string{"m01", "m02", "o1", "o2", "h1"} {
		if _, ok := cat[name]; !ok {
			t.Fatalf("catalog missing %s", name)
		}
	}
	for name, m := range cat {
		if err := m.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
		if m.XenVersion != "4.2.5" {
			t.Errorf("%s Xen version = %s, want 4.2.5", name, m.XenVersion)
		}
		if m.LinkRate != units.Gbps {
			t.Errorf("%s link = %v, want 1 Gbit/s", name, m.LinkRate)
		}
	}
	if cat["m01"].Threads != 32 || cat["m02"].Threads != 32 {
		t.Error("m-pair must have 32 threads (16×Opteron 8356, dual threaded)")
	}
	if cat["o1"].Threads != 40 || cat["o2"].Threads != 40 {
		t.Error("o-pair must have 40 threads (20×Xeon E5-2690, dual threaded)")
	}
	if cat["m01"].RAM != 32*units.GiB {
		t.Errorf("m01 RAM = %v, want 32 GiB", cat["m01"].RAM)
	}
	if cat["o1"].RAM != 128*units.GiB {
		t.Errorf("o1 RAM = %v, want 128 GiB", cat["o1"].RAM)
	}
	// Homogeneity within each pair (Xen requirement).
	if cat["m01"].Power != cat["m02"].Power || cat["m01"].Threads != cat["m02"].Threads {
		t.Error("m01 and m02 must be homogeneous")
	}
	if cat["o1"].Power != cat["o2"].Power || cat["o1"].Threads != cat["o2"].Threads {
		t.Error("o1 and o2 must be homogeneous")
	}
}

func TestPair(t *testing.T) {
	s, d, err := Pair(PairM)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "m01" || d.Name != "m02" {
		t.Errorf("PairM = (%s, %s), want (m01, m02)", s.Name, d.Name)
	}
	s, d, err = Pair(PairO)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "o1" || d.Name != "o2" {
		t.Errorf("PairO = (%s, %s), want (o1, o2)", s.Name, d.Name)
	}
	if _, _, err := Pair("nonsense"); err == nil {
		t.Error("unknown pair must fail")
	}
}

func TestCustomPair(t *testing.T) {
	// "src/dst" selects an arbitrary — possibly heterogeneous — pair.
	s, d, err := Pair("m01/h1")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "m01" || d.Name != "h1" {
		t.Errorf("custom pair = (%s, %s), want (m01, h1)", s.Name, d.Name)
	}
	// A catalog entry is a model, not a box: "m01/m01" is two physical
	// instances of the same model (a homogeneous cluster pair).
	s, d, err = Pair("m01/m01")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "m01" || d.Name != "m01" {
		t.Errorf("same-model pair = (%s, %s), want (m01, m01)", s.Name, d.Name)
	}
	for _, bad := range []string{"m01/nope", "nope/m01", "m01/"} {
		if _, _, err := Pair(bad); err == nil {
			t.Errorf("custom pair %q accepted, want error", bad)
		}
	}
}

func TestTruePowerMonotoneInCPU(t *testing.T) {
	m := m01(t)
	f := func(a, b uint8) bool {
		ua := units.Utilisation(float64(a) / 255 * 32)
		ub := units.Utilisation(float64(b) / 255 * 32)
		if ua > ub {
			ua, ub = ub, ua
		}
		pa := m.TruePower(Load{CPU: ua})
		pb := m.TruePower(Load{CPU: ub})
		return pa <= pb+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTruePowerBand(t *testing.T) {
	// The m-pair ground truth must stay in the paper's plotted band:
	// idle above 400 W, and fully loaded (migration + full net + heavy
	// memory traffic) below 1000 W.
	m := m01(t)
	idle := m.IdlePower()
	if idle < 400 || idle > 500 {
		t.Errorf("m01 idle = %v, want within [400, 500] W", idle)
	}
	full := m.TruePower(Load{CPU: 32, MemGBs: 2, NetFrac: 1, MigActive: true})
	if full < 800 || full > 1000 {
		t.Errorf("m01 full load = %v, want within [800, 1000] W", full)
	}
	if full <= idle+300 {
		t.Errorf("dynamic range %v too small for the paper's 400-900 W plots", full-idle)
	}
}

func TestXeonIdleBelowOpteron(t *testing.T) {
	// The C1→C2 bias correction only exists because the o-pair idles lower.
	cat := Catalog()
	mi, oi := cat["m01"].IdlePower(), cat["o1"].IdlePower()
	if oi >= mi {
		t.Errorf("o1 idle %v must be below m01 idle %v", oi, mi)
	}
	if mi-oi < 100 {
		t.Errorf("idle gap %v too small to exercise the bias correction", mi-oi)
	}
}

func TestTruePowerCapsAtCapacity(t *testing.T) {
	m := m01(t)
	atCap := m.TruePower(Load{CPU: 32})
	beyond := m.TruePower(Load{CPU: 64})
	if math.Abs(float64(atCap-beyond)) > 1e-9 {
		t.Errorf("power beyond capacity (%v) must equal power at capacity (%v): multiplexing flattens the curve", beyond, atCap)
	}
}

func TestTruePowerComponentsAdd(t *testing.T) {
	m := m01(t)
	base := m.TruePower(Load{})
	withNet := m.TruePower(Load{NetFrac: 1})
	withMem := m.TruePower(Load{MemGBs: 2})
	withMig := m.TruePower(Load{MigActive: true})
	if withNet <= base || withMem <= base || withMig <= base {
		t.Error("each active component must add power")
	}
	// NIC at half rate is half the NIC delta (linear in utilisation).
	half := m.TruePower(Load{NetFrac: 0.5})
	wantHalf := float64(base) + (float64(withNet)-float64(base))/2
	if math.Abs(float64(half)-wantHalf) > 1e-9 {
		t.Errorf("NIC power not linear: half = %v, want %v", half, wantHalf)
	}
}

func TestTruePowerSuperlinearBend(t *testing.T) {
	// κ > 1 means the second half of the load adds more power than the
	// first half — the nonlinearity the linear models must approximate.
	m := m01(t)
	p0 := m.TruePower(Load{CPU: 0})
	p16 := m.TruePower(Load{CPU: 16})
	p32 := m.TruePower(Load{CPU: 32})
	firstHalf := float64(p16 - p0)
	secondHalf := float64(p32 - p16)
	if secondHalf <= firstHalf {
		t.Errorf("expected convex CPU power curve: first half %v, second half %v", firstHalf, secondHalf)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	good := m01(t)
	mutations := []func(*MachineSpec){
		func(m *MachineSpec) { m.Name = "" },
		func(m *MachineSpec) { m.Threads = 0 },
		func(m *MachineSpec) { m.RAM = 0 },
		func(m *MachineSpec) { m.LinkRate = 0 },
		func(m *MachineSpec) { m.MigrationRate = 0 },
		func(m *MachineSpec) { m.MigrationRate = 2 * units.Gbps },
		func(m *MachineSpec) { m.Power.Idle = 0 },
		func(m *MachineSpec) { m.Power.CPUExponent = 0.9 },
		func(m *MachineSpec) { m.Power.PSUEfficiency = 0 },
		func(m *MachineSpec) { m.Power.PSUEfficiency = 1.5 },
	}
	for i, mut := range mutations {
		m := good
		mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNegativeLoadClamped(t *testing.T) {
	m := m01(t)
	neg := m.TruePower(Load{CPU: -5, MemGBs: 0, NetFrac: -0.3})
	if math.Abs(float64(neg-m.IdlePower())) > 1e-9 {
		t.Errorf("negative loads should clamp to idle, got %v vs %v", neg, m.IdlePower())
	}
}
