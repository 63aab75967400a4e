package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/hw"
	"repro/internal/migration"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/xen"
)

// Plan describes a migration whose energy is to be estimated, in the
// model's feature terms.
type Plan struct {
	// Kind is the migration mechanism.
	Kind migration.Kind
	// VMMemoryBytes is the migrating VM's memory size.
	VMMemoryBytes int64
	// VMBusyVCPUs is CPU(v,t): how many vCPUs the guest keeps busy.
	VMBusyVCPUs float64
	// DirtyRatio is the guest's steady-state dirty ratio (0 for non-live
	// or idle-memory guests).
	DirtyRatio float64
	// SourceBusyThreads / TargetBusyThreads are CPU(h,t) of the two hosts
	// *excluding* the migrating VM and the migration process itself.
	SourceBusyThreads, TargetBusyThreads float64
	// BandwidthBitsPerSec is the expected migration bandwidth; 0 selects
	// the source machine's migration rate degraded by CPU contention.
	BandwidthBitsPerSec float64
}

// Validate rejects unusable plans. Every feature must be finite: the
// range checks are written so that NaN fails them.
func (p Plan) Validate() error {
	switch {
	case p.VMMemoryBytes <= 0:
		return errors.New("core: plan needs a VM memory size")
	case !within(p.VMBusyVCPUs, 0, math.MaxFloat64) || !within(p.DirtyRatio, 0, 1):
		return errors.New("core: plan has out-of-range workload features")
	case !within(p.SourceBusyThreads, 0, math.MaxFloat64) || !within(p.TargetBusyThreads, 0, math.MaxFloat64):
		return errors.New("core: host load is negative or not finite")
	case !within(p.BandwidthBitsPerSec, 0, math.MaxFloat64):
		return errors.New("core: bandwidth is negative or not finite")
	}
	return nil
}

// within reports whether x lies in [lo, hi]; NaN lies nowhere.
func within(x, lo, hi float64) bool { return x >= lo && x <= hi }

// Estimate is the per-host energy prediction for one migration.
type Estimate struct {
	// Source and Target are the predicted migration energies per host.
	Source, Target units.Joules
	// Duration is the predicted migration span (ms → me).
	Duration time.Duration
	// TransferBytes is the predicted amount of state data moved.
	TransferBytes int64
}

// Total returns the data-centre-level energy of the migration.
func (e Estimate) Total() units.Joules { return e.Source + e.Target }

// Estimate predicts the migration energy of a plan from src to dst
// (Eqs. 3–7). The plan implies three phases: initiation, a transfer whose
// length follows from the data volume and the achievable bandwidth, and
// activation. Every feature is constant within a phase, so each host's
// energy is the sum over the phases of the phase's predicted power times
// its span.
func (m *Model) Estimate(p Plan, src, dst hw.MachineSpec) (Estimate, error) {
	if err := p.Validate(); err != nil {
		return Estimate{}, err
	}
	if p.Kind != m.Kind {
		return Estimate{}, fmt.Errorf("core: %v model cannot estimate a %v plan", m.Kind, p.Kind)
	}

	// Transfer volume: non-live moves the image once; live pre-copy
	// retransmits dirtied pages (the engine's measured expansion is
	// ≈ 1+2·DR), which reaches Xen's 3× safety valve,
	// migration.DefaultMaxDataFactor, at a dirty ratio of 1.
	expansion := 1.0
	if p.Kind == migration.Live {
		expansion = 1 + 2*p.DirtyRatio
	}
	bytes := float64(p.VMMemoryBytes) * expansion

	// Achievable bandwidth: the hardware migration rate degraded by CPU
	// contention on either endpoint, unless the caller pinned one.
	bw := p.BandwidthBitsPerSec
	if bw == 0 {
		share := min(helperShare(p.SourceBusyThreads+p.VMBusyVCPUs, src.Threads),
			helperShare(p.TargetBusyThreads, dst.Threads))
		bw = float64(src.MigrationRate) * share
	}
	// The spans of modelPhases: initiation, transfer, activation. The
	// volume and the whole span must fit an int64, and the comparisons
	// fail for NaN.
	head, tail := migration.DefaultInitiationTime, migration.DefaultActivationTime
	transfer := bytes * 8 / bw * float64(time.Second)
	if !(bytes < math.MaxInt64) || !(transfer < float64(math.MaxInt64-head-tail)) {
		return Estimate{}, errors.New("core: plan's transfer volume or span overflows")
	}
	spans := [3]time.Duration{head, time.Duration(transfer), tail}
	out := Estimate{Duration: spans[0] + spans[1] + spans[2], TransferBytes: int64(bytes)}

	for _, role := range Roles() {
		host, threads := p.SourceBusyThreads, src.Threads
		if role == Target {
			host, threads = p.TargetBusyThreads, dst.Threads
		}
		// CPU(h,t) is the resident load plus the VMM's dom-0 and per-guest
		// overhead, for roughly host/4 load VMs of 4 vCPUs and one guest.
		host += float64(xen.Dom0BaseCPU) + float64(xen.VMMPerVM)*(host/4+1)
		var joules float64
		for i, ph := range modelPhases() {
			o := trace.Observation{Phase: ph}
			hcpu := host
			switch {
			case ph != trace.PhaseActivation:
				// The migration helper runs on both ends; a live guest
				// keeps running on the source until activation.
				hcpu += float64(xen.MigrationCPUDemand)
				if role == Source && p.Kind == migration.Live {
					hcpu += p.VMBusyVCPUs
					o.VMCPU = units.Utilisation(p.VMBusyVCPUs)
					o.DirtyRatio = units.Fraction(p.DirtyRatio)
				}
				if ph == trace.PhaseTransfer {
					o.Bandwidth = units.BitsPerSecond(bw)
				}
			case role == Target:
				// The guest starts on the target during activation.
				hcpu += p.VMBusyVCPUs
				o.VMCPU = units.Utilisation(p.VMBusyVCPUs)
			}
			o.HostCPU = units.Utilisation(hcpu).Clamp(units.Utilisation(threads))
			w, err := m.PredictPower(role, o)
			if err != nil {
				return Estimate{}, err
			}
			joules += float64(w) * spans[i].Seconds()
		}
		if math.IsNaN(joules) || math.IsInf(joules, 0) {
			return Estimate{}, fmt.Errorf("core: plan's %v energy is not finite", role)
		}
		if role == Source {
			out.Source = units.Joules(joules)
		} else {
			out.Target = units.Joules(joules)
		}
	}
	return out, nil
}

// helperShare is the CPU share the dom-0 migration helper gets on a host
// of the given threads with busy threads of other work.
func helperShare(busy float64, threads int) float64 {
	demand := busy + float64(xen.MigrationCPUDemand)
	if demand <= float64(threads) {
		return 1
	}
	return float64(threads) / demand
}
