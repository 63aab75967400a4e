package hw

import (
	"fmt"
	"strings"

	"repro/internal/units"
)

// Machine pair identifiers used throughout the experiments.
const (
	PairM = "m01-m02" // AMD Opteron pair used for training and validation
	PairO = "o1-o2"   // Intel Xeon pair used for cross-hardware validation
)

// opteronProfile is the ground-truth power model calibrated so that the
// m01/m02 traces span the paper's 400–900 W band: idle ≈ 440 W AC, full
// CPU load ≈ 880 W AC (Figures 3–7 plot exactly this range).
func opteronProfile() PowerProfile {
	return PowerProfile{
		Idle:          405,
		CPUPerThread:  12.4,
		CPUExponent:   1.10,
		MemPerGBs:     26, // DDR2 random-write traffic is power-hungry
		NICActive:     16,
		MigOverhead:   24,
		PSUEfficiency: 0.92,
	}
}

// xeonProfile models the newer, lower-idle Xeon E5-2690 pair. Its idle
// power sits well below the Opterons', which is what forces the paper's
// C1 → C2 bias correction when transporting coefficients.
func xeonProfile() PowerProfile {
	return PowerProfile{
		Idle:          245,
		CPUPerThread:  9.8,
		CPUExponent:   1.13,
		MemPerGBs:     19,
		NICActive:     11,
		MigOverhead:   19,
		PSUEfficiency: 0.94,
	}
}

// denseProfile models h1, a modern dense-core node beyond the paper's
// testbed (see Catalog): much lower idle power and per-thread cost than
// either paper machine, with a sharper saturation bend. Its role is to
// make heterogeneous-pair scenarios interesting — migrating between
// machines whose power curves disagree is exactly where a per-pair bias
// correction starts to strain.
func denseProfile() PowerProfile {
	return PowerProfile{
		Idle:          175,
		CPUPerThread:  6.2,
		CPUExponent:   1.16,
		MemPerGBs:     14,
		NICActive:     9,
		MigOverhead:   15,
		PSUEfficiency: 0.96,
	}
}

// newMachine builds a validated MachineSpec or panics: the catalog is
// static data and a bad entry is a programming error.
func newMachine(name string, threads int, ram units.Bytes, nic, sw string, migRate units.BitsPerSecond, p PowerProfile) MachineSpec {
	m := MachineSpec{
		Name:          name,
		Threads:       threads,
		RAM:           ram,
		NIC:           nic,
		Switch:        sw,
		LinkRate:      units.Gbps,
		MigrationRate: migRate,
		XenVersion:    "4.2.5",
		Power:         p,
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// Catalog returns the testbed machines keyed by name: the four machines
// of the paper's Table IIc (m01/m02, o1/o2) plus h1, an extension machine
// beyond the paper used by heterogeneous-pair scenarios. The two paper
// pairs differ in CPU generation, RAM, NIC and switch; within a pair the
// machines are homogeneous, matching Xen's requirement that migration
// endpoints share an architecture. h1 shares m01/m02's switch so custom
// pairs like "m01/h1" have a physical path.
func Catalog() map[string]MachineSpec {
	// The Broadcom BCM5704 path sustains a higher share of line rate for
	// the Xen migration stream than the Intel 82574L behind the small HP
	// switch; this asymmetry gives the o-pair its longer transfers.
	mRate := 760 * units.Mbps
	oRate := 620 * units.Mbps
	hRate := 840 * units.Mbps
	return map[string]MachineSpec{
		"m01": newMachine("m01", 32, 32*units.GiB, "Broadcom BCM5704", "Cisco Catalyst 3750", mRate, opteronProfile()),
		"m02": newMachine("m02", 32, 32*units.GiB, "Broadcom BCM5704", "Cisco Catalyst 3750", mRate, opteronProfile()),
		"o1":  newMachine("o1", 40, 128*units.GiB, "Intel 82574L", "HP 1810-8G", oRate, xeonProfile()),
		"o2":  newMachine("o2", 40, 128*units.GiB, "Intel 82574L", "HP 1810-8G", oRate, xeonProfile()),
		"h1":  newMachine("h1", 48, 64*units.GiB, "Intel X540-T2", "Cisco Catalyst 3750", hRate, denseProfile()),
	}
}

// Pair returns the (source, target) machines of a named pair. Beyond the
// paper's two named pairs, "src/dst" selects a custom — possibly
// heterogeneous — pair of catalog machines, e.g. "m01/h1". A catalog
// entry names a machine *model*, so "h1/h1" is valid: two physical
// instances of the same model, the common case inside an N-host cluster
// built from one rack SKU. Whether a custom pair can actually migrate
// (shared switch) is checked where the link is built, in netsim.NewLink.
func Pair(name string) (src, dst MachineSpec, err error) {
	cat := Catalog()
	switch name {
	case PairM:
		return cat["m01"], cat["m02"], nil
	case PairO:
		return cat["o1"], cat["o2"], nil
	}
	if s, d, ok := strings.Cut(name, "/"); ok {
		src, okS := cat[s]
		dst, okD := cat[d]
		switch {
		case !okS:
			return MachineSpec{}, MachineSpec{}, fmt.Errorf("hw: unknown machine %q in pair %q", s, name)
		case !okD:
			return MachineSpec{}, MachineSpec{}, fmt.Errorf("hw: unknown machine %q in pair %q", d, name)
		}
		return src, dst, nil
	}
	return MachineSpec{}, MachineSpec{}, fmt.Errorf("hw: unknown machine pair %q (want %q, %q or \"src/dst\" from the catalog)", name, PairM, PairO)
}
