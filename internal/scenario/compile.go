package scenario

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/consolidation"
	"repro/internal/dcsim"
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
// population and an explicit move plan for the dcsim executor. Workers
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
	Executor dcsim.Executor
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
// Cluster (N-host timelines) is populated.
type Compiled struct {
	Spec    *Spec
	Runs    []Run
	Plan    *PlanRun
	Cluster *ClusterRun
}

// Compile validates the spec and lowers it into executable form, with
// the same errors as Validate. A cluster spec is lowered once, and its
// config prepared for the engine: preparing it is Validate's last check.
// The result is deterministic: the same spec compiles to the same
// scenarios — and therefore the same run-cache keys — in every session.
func (s *Spec) Compile() (*Compiled, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	if s.Datacenter != nil {
		return s.compileDatacenter()
	}
	if s.Cluster != nil {
		return s.compileCluster()
	}
	base, err := s.baseScenario()
	if err != nil {
		return nil, err
	}
	out := &Compiled{Spec: s}
	if len(s.Phases) == 0 {
		out.Runs = []Run{{
			Label:       s.Name,
			Scenario:    base,
			MinRuns:     s.Repeat.minRuns(),
			VarianceTol: s.Repeat.varianceTol(),
		}}
		return out, nil
	}
	for i, p := range s.Phases {
		factor := p.phase().Factor(p.at())
		sc := base
		sc.Name = fmt.Sprintf("%s/%s", base.Name, p.label(i))
		sc.MigratingProfile = base.MigratingProfile.Modulate(factor)
		// Co-located load tracks the phase intensity: a burst doubles both
		// the guest's appetite and its neighbours'.
		sc.SourceLoadVMs = scaleVMs(s.SourceLoadVMs, factor)
		sc.TargetLoadVMs = scaleVMs(s.TargetLoadVMs, factor)
		sc.Seed = base.Seed + int64(i)*phaseSeedStride
		out.Runs = append(out.Runs, Run{
			Label:       fmt.Sprintf("%s/%s", s.Name, p.label(i)),
			Scenario:    sc,
			MinRuns:     s.Repeat.minRuns(),
			VarianceTol: s.Repeat.varianceTol(),
		})
	}
	return out, nil
}

// scaleVMs scales a load-VM count by a phase factor, rounding to nearest.
func scaleVMs(n int, factor float64) int {
	if n <= 0 || factor <= 0 {
		return 0
	}
	return int(math.Round(float64(n) * factor))
}

// baseScenario lowers the spec's common fields into a sim.Scenario
// (before any phase modulation).
func (s *Spec) baseScenario() (sim.Scenario, error) {
	kind, err := s.kind()
	if err != nil {
		return sim.Scenario{}, errf(s.Name, "kind", "%v", err)
	}
	prof, err := s.Migrating.Workload.profile()
	if err != nil {
		return sim.Scenario{}, errf(s.Name, "migrating.workload.profile", "%v", err)
	}
	typ := s.Migrating.Type
	if typ == "" {
		if prof.DirtyPagesPerSecond > 0 && s.Migrating.Workload.dirties() {
			typ = vm.TypeMigratingMem
		} else {
			typ = vm.TypeMigratingCPU
		}
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
		Migration:        s.Migration.config(kind),
		Meter:            s.Meter.config(),
		Seed:             s.EffectiveSeed(),
	}
	if s.LoadWorkload != nil {
		lp, err := s.LoadWorkload.profile()
		if err != nil {
			return sim.Scenario{}, errf(s.Name, "load_workload.profile", "%v", err)
		}
		sc.LoadProfile = lp
	}
	if s.Timing != nil {
		if s.Timing.PreS > 0 {
			sc.PreMigration = time.Duration(s.Timing.PreS * float64(time.Second))
		}
		if s.Timing.PostS > 0 {
			sc.PostMigration = time.Duration(s.Timing.PostS * float64(time.Second))
		}
	}
	return sc, nil
}

// hostStates lowers the datacenter host specs.
func (s *Spec) hostStates() ([]consolidation.HostState, error) {
	dc := s.Datacenter
	hosts := make([]consolidation.HostState, 0, len(dc.Hosts))
	for _, h := range dc.Hosts {
		hs := consolidation.HostState{
			Name:      h.Name,
			Threads:   h.Threads,
			MemBytes:  gib(h.MemGiB),
			IdlePower: units.Watts(h.IdlePowerW),
		}
		for _, v := range h.VMs {
			hs.VMs = append(hs.VMs, consolidation.VMState{
				Name:       v.Name,
				MemBytes:   gib(v.MemGiB),
				BusyVCPUs:  v.BusyVCPUs,
				DirtyRatio: units.Fraction(v.DirtyRatio),
			})
		}
		hosts = append(hosts, hs)
	}
	return hosts, nil
}

// gib converts a fractional GiB count to bytes.
func gib(n float64) units.Bytes {
	return units.Bytes(n * float64(units.GiB))
}

// compileDatacenter lowers the data-centre form of the spec.
func (s *Spec) compileDatacenter() (*Compiled, error) {
	kind, err := s.kind()
	if err != nil {
		return nil, errf(s.Name, "kind", "%v", err)
	}
	hosts, err := s.hostStates()
	if err != nil {
		return nil, err
	}
	pr := &PlanRun{
		Policy: "scenario/" + s.Name,
		Hosts:  hosts,
		Executor: dcsim.Executor{
			Pair: s.pair(),
			Kind: kind,
			Seed: s.EffectiveSeed(),
		},
	}
	if len(s.Datacenter.Moves) > 0 {
		plan := &consolidation.Plan{}
		for _, mv := range s.Datacenter.Moves {
			plan.Moves = append(plan.Moves, consolidation.Move{VM: mv.VM, From: mv.From, To: mv.To})
		}
		pr.Plan = plan
	} else {
		// No explicit moves: plan with the energy-blind first-fit-
		// decreasing policy, the only built-in planner that needs no
		// trained estimator — keeping compilation deterministic data.
		ffd := consolidation.FirstFitDecreasing{}
		plan, err := ffd.Plan(hosts, consolidation.Config{})
		if err != nil {
			return nil, errf(s.Name, "datacenter", "planning moves with %s: %v", ffd.Name(), err)
		}
		pr.Policy = ffd.Name()
		pr.Plan = plan
	}
	return &Compiled{Spec: s, Plan: pr}, nil
}

// clusterConfig lowers the cluster form into the engine's Config. The
// result is deterministic: the same spec lowers to the same timeline —
// and the same lowered migration scenarios, the run-cache keys — in
// every session.
func (s *Spec) clusterConfig() (cluster.Config, error) {
	kind, err := s.kind()
	if err != nil {
		return cluster.Config{}, errf(s.Name, "kind", "%v", err)
	}
	c := s.Cluster
	cfg := cluster.Config{
		Kind:    kind,
		Horizon: time.Duration(c.HorizonS * float64(time.Second)),
		Tick:    time.Duration(c.TickS * float64(time.Second)),
		Seed:    s.EffectiveSeed(),
	}
	switch c.Policy {
	case PolicyEnergyAware:
		cfg.Policy = consolidation.EnergyAware{Model: consolidation.HeuristicCost{}}
	case PolicyFirstFit:
		cfg.Policy = consolidation.FirstFitDecreasing{Model: consolidation.HeuristicCost{}}
	case "":
	default:
		return cluster.Config{}, errf(s.Name, "cluster.policy", "unknown policy %q", c.Policy)
	}
	cfg.PolicyConfig = consolidation.Config{
		CPUCap:   c.CPUCap,
		MaxMoves: c.MaxMoves,
		Horizon:  time.Duration(c.PaybackS * float64(time.Second)),
	}
	hosts, _ := s.expandedClusterHosts()
	cfg.Hosts = make([]cluster.Host, 0, len(hosts))
	for _, h := range hosts {
		ch := cluster.Host{Name: h.Name, Machine: h.Machine}
		for _, v := range h.VMs {
			cv := cluster.VM{
				Name:       v.Name,
				MemBytes:   gib(v.MemGiB),
				BusyVCPUs:  v.BusyVCPUs,
				DirtyRatio: units.Fraction(v.DirtyRatio),
			}
			for _, p := range v.Phases {
				cv.Phases = append(cv.Phases, p.phase())
			}
			ch.VMs = append(ch.VMs, cv)
		}
		cfg.Hosts = append(cfg.Hosts, ch)
	}
	for _, m := range c.Moves {
		cfg.Moves = append(cfg.Moves, cluster.TimedMove{
			VM: m.VM, From: m.From, To: m.To,
			At: time.Duration(m.AtS * float64(time.Second)),
		})
	}
	for _, f := range c.Failures {
		cfg.Failures = append(cfg.Failures, cluster.FailureEvent{
			At:     time.Duration(f.AtS * float64(time.Second)),
			Kind:   cluster.FailureKind(f.Kind),
			Host:   f.Host,
			VM:     f.VM,
			Switch: f.Switch,
		})
	}
	cfg.EvacuationDeadline = time.Duration(c.EvacuationDeadlineS * float64(time.Second))
	return cfg, nil
}

// compileCluster lowers the cluster form of the spec and prepares the
// config. Preparing runs the engine's validation, Validate's last check,
// so a compiled spec is lowered and engine-validated once.
func (s *Spec) compileCluster() (*Compiled, error) {
	cfg, err := s.clusterConfig()
	if err != nil {
		return nil, err
	}
	if cfg, err = cluster.Prepare(cfg); err != nil {
		return nil, errf(s.Name, "(compiled)", "%v", err)
	}
	policy := "timeline"
	if cfg.Policy != nil {
		policy = cfg.Policy.Name()
	}
	return &Compiled{Spec: s, Cluster: &ClusterRun{Policy: policy, Config: cfg}}, nil
}
