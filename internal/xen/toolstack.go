package xen

import (
	"fmt"

	"repro/internal/units"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Toolstack is the xm/xl-style management facade used by the experiment
// runner: create, start and load guests by instance type, mirroring how
// the paper's scripts drove the testbed. Both toolstack flavours of Xen
// 4.2.5 expose the same operations; the flavour is recorded for the
// experiment metadata only.
type Toolstack struct {
	// Flavour is "xm" or "xl".
	Flavour string
	host    *Host
	counter int
}

// NewToolstack attaches a toolstack to a host.
func NewToolstack(flavour string, h *Host) (*Toolstack, error) {
	if flavour != "xm" && flavour != "xl" {
		return nil, fmt.Errorf("xen: unknown toolstack flavour %q (want xm or xl)", flavour)
	}
	if h == nil {
		return nil, fmt.Errorf("xen: toolstack needs a host")
	}
	return &Toolstack{Flavour: flavour, host: h}, nil
}

// Create builds, attaches and starts a guest of the named instance type,
// wiring in the workload profile's CPU demand and dirtier. The seed makes
// the guest's memory behaviour reproducible.
func (ts *Toolstack) Create(typeID string, profile workload.Profile, seed int64) (*vm.VM, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	t, err := vm.Lookup(typeID)
	if err != nil {
		return nil, err
	}
	ts.counter++
	name := fmt.Sprintf("%s-%s-%d", ts.host.Spec.Name, typeID, ts.counter)
	g, err := vm.New(name, t)
	if err != nil {
		return nil, err
	}
	if err := ts.host.Attach(g); err != nil {
		return nil, err
	}
	if err := g.Start(); err != nil {
		_ = ts.host.Detach(name)
		return nil, err
	}
	g.SetDemand(units.Utilisation(float64(t.VCPUs) * float64(profile.CPUPerVCPU)))
	g.SetDirtier(profile.Dirtier(seed))
	return g, nil
}
