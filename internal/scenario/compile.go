package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/consolidation"
	"repro/internal/hw"
	"repro/internal/migration"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vm"
)

// Default observation windows of compiled runs (simulated time). The
// pre-migration window must cover the meter stabilisation rule — 20
// samples at the default 2 Hz cadence — with a little slack.
const (
	DefaultPreMigration  = 11 * time.Second
	DefaultPostMigration = 6 * time.Second
)

// phaseSeedStride separates the derived seeds of a spec's phases. It is a
// large prime, coprime to the repeat stride (1009) used inside
// sim.RunRepeated and the point stride (7919) used by experiment
// campaigns, so the seed lattices of phases, repeats and campaign points
// never collide for realistic index ranges.
const phaseSeedStride = 15485863

// Run is one independently executable migration block compiled from a
// spec: a fully determined sim.Scenario plus the spec's repeat policy.
type Run struct {
	// Label identifies the run in reports: the spec name, plus the phase
	// label when the spec has a phase timeline.
	Label string
	// Scenario is the compiled simulation input (also its run-cache key).
	Scenario sim.Scenario
	// MinRuns / VarianceTol are the repeat policy (paper's variance rule).
	MinRuns     int
	VarianceTol float64
}

// PlanRun is the compiled form of a data-centre scenario: a host
// population and an explicit move plan for cluster.Executor. Workers
// and Cache on the Executor are left to the caller.
type PlanRun struct {
	// Policy labels the execution report ("scenario/<name>" or the
	// planning policy that produced implicit moves).
	Policy string
	// Hosts is the pre-plan data-centre state.
	Hosts []consolidation.HostState
	// Plan holds the moves in execution order.
	Plan *consolidation.Plan
	// Executor is pre-configured with the spec's pair, kind and seed.
	Executor cluster.Executor
}

// ClusterRun is the compiled form of a cluster scenario: a ready
// cluster.Config with Workers and Cache left to the caller.
type ClusterRun struct {
	// Policy labels the timeline in reports: the planning policy, or
	// "timeline" for explicit move lists.
	Policy string
	// Config is the lowered engine input, prepared (cluster.Prepare), so
	// every run of it skips the engine's validation and host layout. Its
	// Hosts, Moves and Failures are read-only; a copy may set Workers,
	// Cache, Ctx or another policy and still run prepared.
	Config cluster.Config
}

// Compiled is everything a spec lowers to. Exactly one of Runs (migration
// scenarios, one entry per phase), Plan (data-centre scenarios) or
// Cluster (N-host timelines) is populated. A Compiled is read-only, as
// a prepared cluster config is: Compile may hand the same one to every
// caller, and concurrent runs share it.
type Compiled struct {
	Spec    *Spec
	Runs    []Run
	Plan    *PlanRun
	Cluster *ClusterRun
}

// keptCompile is what Parse compiled a spec to, with the spec's JSON
// encoding at that moment, by which Compile tells whether the spec has
// been edited since.
type keptCompile struct {
	c   *Compiled
	enc []byte
}

// Compile checks the spec exhaustively and lowers it into executable
// form in one pass, returning the first failure as a pathed *Error.
// Each form is checked and lowered together: a cluster spec's fleet
// expands once, and its config is engine-validated once, by
// cluster.Prepare. The result is deterministic: the same spec compiles
// to the same scenarios — and therefore the same run-cache keys — in
// every process, on every machine.
//
// A spec from Parse (and so from Load, LoadDir and LoadGlob) was
// compiled there, and Compile returns that result while the spec is
// the one Parse returned and still encodes to the same JSON. A spec
// whose exported fields were edited since, and a copy of a spec, are
// compiled afresh. Compile never writes to the spec, so concurrent
// calls are safe.
func (s *Spec) Compile() (*Compiled, error) {
	if k := s.kept; k != nil && k.c.Spec == s {
		if enc, err := json.Marshal(s); err == nil && bytes.Equal(enc, k.enc) {
			return k.c, nil
		}
	}
	return s.compile()
}

// compile is Compile without the kept result.
func (s *Spec) compile() (*Compiled, error) {
	name := s.Name
	if s.Version != CurrentVersion {
		return nil, errf(name, "version", "unsupported version %d (this build reads version %d)", s.Version, CurrentVersion)
	}
	if !validName(s.Name) {
		return nil, errf(name, "name", "must be non-empty lowercase [a-z0-9._-], got %q", s.Name)
	}
	src, dst, err := hw.Pair(s.pair())
	if err != nil {
		return nil, errf(name, "pair", "%v", err)
	}
	// netsim will refuse a cross-switch link at run time; catch it here so
	// the -check gate cannot green-light a scenario that can never run.
	if src.Switch != dst.Switch {
		return nil, errf(name, "pair", "%s (%s) and %s (%s) are on different switches and cannot migrate", src.Name, src.Switch, dst.Name, dst.Switch)
	}
	kind, err := s.kind()
	if err != nil {
		return nil, errf(name, "kind", "%v", err)
	}
	if s.Seed < 0 {
		return nil, errf(name, "seed", "must be non-negative, got %d", s.Seed)
	}
	if s.Datacenter != nil && s.Cluster != nil {
		return nil, errf(name, "cluster", "mutually exclusive with \"datacenter\"; pick one form")
	}
	switch {
	case s.Datacenter != nil:
		return s.compileDatacenter(kind)
	case s.Cluster != nil:
		return s.compileCluster(kind)
	}
	return s.compileMigration(kind)
}

// scaleVMs scales a load-VM count by a phase factor, rounding to nearest.
func scaleVMs(n int, factor float64) int {
	if n <= 0 || factor <= 0 {
		return 0
	}
	return int(math.Round(float64(n) * factor))
}

// baseScenario lowers the spec's common fields into a sim.Scenario
// (before any phase modulation). compileMigration has checked the
// workload profiles it resolves.
func (s *Spec) baseScenario(kind migration.Kind) (sim.Scenario, error) {
	prof, _ := s.Migrating.Workload.profile()
	typ := s.Migrating.Type
	if typ == "" {
		if prof.DirtyPagesPerSecond > 0 && s.Migrating.Workload.dirties() {
			typ = vm.TypeMigratingMem
		} else {
			typ = vm.TypeMigratingCPU
		}
	}
	mig, err := s.Migration.config(s.Name, kind)
	if err != nil {
		return sim.Scenario{}, err
	}
	mc, err := s.Meter.config(s.Name)
	if err != nil {
		return sim.Scenario{}, err
	}
	sc := sim.Scenario{
		Name:             "scen/" + s.Name,
		Pair:             s.pair(),
		Kind:             kind,
		MigratingType:    typ,
		MigratingProfile: prof,
		SourceLoadVMs:    s.SourceLoadVMs,
		TargetLoadVMs:    s.TargetLoadVMs,
		PreMigration:     DefaultPreMigration,
		PostMigration:    DefaultPostMigration,
		Migration:        mig,
		Meter:            mc,
		Seed:             s.EffectiveSeed(),
	}
	if s.LoadWorkload != nil {
		sc.LoadProfile, _ = s.LoadWorkload.profile()
	}
	if s.Timing != nil {
		if s.Timing.PreS > 0 {
			if sc.PreMigration, err = seconds(s.Name, "timing.pre_s", s.Timing.PreS); err != nil {
				return sim.Scenario{}, err
			}
		}
		if s.Timing.PostS > 0 {
			if sc.PostMigration, err = seconds(s.Name, "timing.post_s", s.Timing.PostS); err != nil {
				return sim.Scenario{}, err
			}
		}
	}
	return sc, nil
}

// hostStates lowers the datacenter host specs.
func (s *Spec) hostStates() ([]consolidation.HostState, error) {
	dc := s.Datacenter
	hosts := make([]consolidation.HostState, 0, len(dc.Hosts))
	for hi, h := range dc.Hosts {
		mem, err := gib(s.Name, h.MemGiB)
		if err != nil {
			return nil, under(err, fmt.Sprintf("datacenter.hosts[%d]", hi))
		}
		hs := consolidation.HostState{
			Name:      h.Name,
			Threads:   h.Threads,
			MemBytes:  mem,
			IdlePower: units.Watts(h.IdlePowerW),
		}
		for vi, v := range h.VMs {
			mem, err := gib(s.Name, v.MemGiB)
			if err != nil {
				return nil, under(err, fmt.Sprintf("datacenter.hosts[%d].vms[%d]", hi, vi))
			}
			hs.VMs = append(hs.VMs, consolidation.VMState{
				Name:       v.Name,
				MemBytes:   mem,
				BusyVCPUs:  v.BusyVCPUs,
				DirtyRatio: units.Fraction(v.DirtyRatio),
			})
		}
		hosts = append(hosts, hs)
	}
	return hosts, nil
}

// gib converts a mem_gib field into bytes. A size that lowers to less
// than one byte, or beyond what units.Bytes holds, fails with an error at
// ".mem_gib", which the caller roots at the field's host or VM with
// under, instead of becoming a memoryless machine or wrapping into a
// wrong, possibly negative, size; the negated test refuses NaN too.
func gib(scenario string, n float64) (units.Bytes, error) {
	b := n * float64(units.GiB)
	switch {
	case !(b >= 1):
		return 0, errf(scenario, ".mem_gib", "must be at least one byte, got %v GiB", n)
	case b >= 1<<63:
		return 0, errf(scenario, ".mem_gib", "%v GiB exceeds the largest representable size (%d GiB)", n, int64(math.MaxInt64/units.GiB))
	}
	return units.Bytes(b), nil
}
