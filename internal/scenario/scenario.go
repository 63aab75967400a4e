package scenario

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/consolidation"
	"repro/internal/hw"
	"repro/internal/meter"
	"repro/internal/migration"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vm"
	"repro/internal/workload"
)

// CurrentVersion is the spec format version this package reads and
// writes. Committed scenarios carry their version explicitly so a future
// format change can migrate or reject old files deliberately instead of
// misreading them.
const CurrentVersion = 1

// Error is a scenario load or validation failure tied to the scenario it
// occurred in and the JSON field path that caused it, so a failing file
// in a library of dozens points straight at the offending line.
type Error struct {
	// Scenario names the spec ("diurnal-day") or, before the name is
	// known, the file being loaded.
	Scenario string
	// Path is the dotted JSON field path ("migrating.workload.profile",
	// "phases[2].duration_s"). Syntax errors use "(json)".
	Path string
	// Msg describes the failure.
	Msg string
}

// Error renders "scenario <name>: <path>: <msg>".
func (e *Error) Error() string {
	return fmt.Sprintf("scenario %q: %s: %s", e.Scenario, e.Path, e.Msg)
}

// errf builds a pathed Error.
func errf(scenario, path, format string, args ...any) *Error {
	return &Error{Scenario: scenario, Path: path, Msg: fmt.Sprintf(format, args...)}
}

// under roots an error whose path is relative to one element (a host, a
// VM, a phase) at that element's path, so an element formats its path
// only for the error returned.
func under(err error, prefix string) error {
	if e, ok := err.(*Error); ok {
		e.Path = prefix + e.Path
	}
	return err
}

// seconds converts a seconds field into a time.Duration. A value beyond
// what a Duration holds (about 292 years) fails with a pathed error
// instead of wrapping into a wrong, possibly negative, duration; the
// negated range test refuses NaN too.
func seconds(scenario, path string, v float64) (time.Duration, error) {
	ns := v * float64(time.Second)
	if !(ns >= -1<<63 && ns < 1<<63) {
		return 0, errf(scenario, path, "%v s exceeds the longest representable duration (%v)", v, time.Duration(math.MaxInt64))
	}
	return time.Duration(ns), nil
}

// Spec is one declarative scenario. The zero value of every optional
// field selects the documented default, so minimal specs stay minimal.
type Spec struct {
	// Version is the spec format version; must equal CurrentVersion.
	Version int `json:"version"`
	// Name identifies the scenario in the registry, in run labels and in
	// cache keys. Lowercase letters, digits, '.', '_' and '-' only.
	Name string `json:"name"`
	// Description says what the scenario probes (shown by List and the
	// runner's -list flag).
	Description string `json:"description,omitempty"`
	// Pair selects the machine pair: "m01-m02" (default), "o1-o2", or a
	// custom "src/dst" mix of hw catalog machines such as "m01/h1".
	Pair string `json:"pair,omitempty"`
	// Kind is the migration mechanism: "live" (default), "non-live" or
	// "post-copy".
	Kind string `json:"kind,omitempty"`
	// Seed pins the scenario's randomness; 0 derives a stable seed from
	// the name (see EffectiveSeed).
	Seed int64 `json:"seed,omitempty"`
	// Migrating describes the migrating guest (migration scenarios only).
	Migrating Guest `json:"migrating,omitempty"`
	// SourceLoadVMs / TargetLoadVMs are the co-located load-VM counts.
	SourceLoadVMs int `json:"source_load_vms,omitempty"`
	TargetLoadVMs int `json:"target_load_vms,omitempty"`
	// LoadWorkload overrides the load VMs' workload (matrixmult default).
	LoadWorkload *Workload `json:"load_workload,omitempty"`
	// Phases is the optional workload-phase timeline. Each phase compiles
	// to one independently runnable migration block: the migration happens
	// at the phase's sampling point with the workload and co-located load
	// scaled by the phase's intensity factor.
	Phases []PhaseSpec `json:"phases,omitempty"`
	// Timing overrides the pre/post-migration observation windows.
	Timing *Timing `json:"timing,omitempty"`
	// Migration overrides the migration engine's tuning.
	Migration *MigrationTuning `json:"migration,omitempty"`
	// Meter overrides the simulated power analysers.
	Meter *Meter `json:"meter,omitempty"`
	// Repeat overrides the repeat policy (2 runs, 50% variance tolerance
	// by default).
	Repeat *Repeat `json:"repeat,omitempty"`
	// Datacenter turns the spec into a data-centre scenario: a host
	// population whose consolidation plan is executed move by move as
	// measured migrations (cluster.Executor). Mutually exclusive with
	// Migrating.
	Datacenter *Datacenter `json:"datacenter,omitempty"`
	// Cluster turns the spec into an N-host discrete-event timeline: a
	// host population built from hw catalog machine models, evolved
	// through policy ticks, timed migrations and workload phase
	// transitions, with concurrent migrations contending on shared
	// links (internal/cluster). Mutually exclusive with Migrating and
	// Datacenter.
	Cluster *ClusterSpec `json:"cluster,omitempty"`

	// kept is what Parse compiled the spec to (see Compile).
	kept *keptCompile
}

// Guest describes the migrating VM.
type Guest struct {
	// Type is the vm instance type; empty infers migrating-mem for
	// memory-dirtying workloads and migrating-cpu otherwise.
	Type string `json:"type,omitempty"`
	// Workload is what runs inside the guest.
	Workload Workload `json:"workload,omitempty"`
}

// Workload names a workload profile plus its parameters.
type Workload struct {
	// Profile is one of "matrixmult", "pagedirtier", "hotcold",
	// "netintensive", "idle".
	Profile string `json:"profile"`
	// DirtyTarget is the target dirty ratio of the pagedirtier/hotcold
	// profiles (ignored — and rejected if set — for the others).
	DirtyTarget float64 `json:"dirty_target,omitempty"`
}

// Workload profile names.
const (
	ProfileMatrixMult   = "matrixmult"
	ProfilePagedirtier  = "pagedirtier"
	ProfileHotCold      = "hotcold"
	ProfileNetIntensive = "netintensive"
	ProfileIdle         = "idle"
)

// profileNames lists the accepted workload profiles for error messages.
var profileNames = []string{ProfileMatrixMult, ProfilePagedirtier, ProfileHotCold, ProfileNetIntensive, ProfileIdle}

// profile resolves the named workload profile.
func (w Workload) profile() (workload.Profile, error) {
	switch w.Profile {
	case ProfileMatrixMult:
		return workload.MatrixMultProfile(), nil
	case ProfilePagedirtier:
		return workload.PagedirtierProfile(units.Fraction(w.DirtyTarget)), nil
	case ProfileHotCold:
		return workload.HotColdMemProfile(units.Fraction(w.DirtyTarget)), nil
	case ProfileNetIntensive:
		return workload.NetIntensiveProfile(), nil
	case ProfileIdle:
		return workload.IdleProfile(), nil
	default:
		return workload.Profile{}, fmt.Errorf("unknown workload profile %q (want one of %v)", w.Profile, profileNames)
	}
}

// dirties reports whether the profile is parameterised by a dirty target.
func (w Workload) dirties() bool {
	return w.Profile == ProfilePagedirtier || w.Profile == ProfileHotCold
}

// validate checks one workload reference under the given path.
func (w Workload) validate(name, path string) error {
	if _, err := w.profile(); err != nil {
		return errf(name, path+".profile", "%v", err)
	}
	if w.DirtyTarget < 0 || w.DirtyTarget > 1 {
		return errf(name, path+".dirty_target", "%v outside [0, 1]", w.DirtyTarget)
	}
	if w.DirtyTarget != 0 && !w.dirties() {
		return errf(name, path+".dirty_target", "profile %q takes no dirty target", w.Profile)
	}
	return nil
}

// PhaseSpec is the JSON form of one workload phase.
type PhaseSpec struct {
	// Name labels the phase in run labels; "<kind><index>" when empty.
	Name string `json:"name,omitempty"`
	// Kind is "steady", "burst", "diurnal" or "ramp".
	Kind string `json:"kind"`
	// DurationS is the phase length in seconds; must be positive.
	DurationS float64 `json:"duration_s"`
	// Level is the baseline intensity factor (0 selects 1).
	Level float64 `json:"level,omitempty"`
	// Peak is the maximum intensity factor of burst/diurnal/ramp shapes
	// (0 selects Level).
	Peak float64 `json:"peak,omitempty"`
	// At is the fractional position within the phase at which the
	// migration is sampled, in [0, 1]; nil selects 0.5 (the midpoint — the
	// burst peak, midday of a diurnal phase, halfway up a ramp).
	At *float64 `json:"at,omitempty"`
}

// lower checks the phase's fields and lowers it into the workload
// package's Phase, naming the field that is actually wrong. Error paths
// are relative to the phase (".duration_s"); the caller roots them with
// under. sampled marks contexts where the phase is sampled at one
// position (migration timelines); cluster VM phases play out
// continuously, so "at" is rejected there.
func (p PhaseSpec) lower(name string, sampled bool) (workload.Phase, error) {
	ph := workload.Phase{Name: p.Name, Kind: workload.PhaseKind(p.Kind), Level: p.Level, Peak: p.Peak}
	switch ph.Kind {
	case workload.PhaseSteady, workload.PhaseBurst, workload.PhaseDiurnal, workload.PhaseRamp:
	default:
		return ph, errf(name, ".kind", "unknown phase kind %q (want one of %v)", p.Kind, workload.PhaseKinds())
	}
	if p.DurationS <= 0 {
		return ph, errf(name, ".duration_s", "must be positive, got %v", p.DurationS)
	}
	var err error
	if ph.Duration, err = seconds(name, ".duration_s", p.DurationS); err != nil {
		return ph, err
	}
	if p.Level < 0 || p.Level > workload.MaxPhaseFactor {
		return ph, errf(name, ".level", "must be in [0, %v], got %v", workload.MaxPhaseFactor, p.Level)
	}
	if p.Peak < 0 || p.Peak > workload.MaxPhaseFactor {
		return ph, errf(name, ".peak", "must be in [0, %v], got %v", workload.MaxPhaseFactor, p.Peak)
	}
	// Belt and braces: the lowered phase must agree.
	if err := ph.Validate(); err != nil {
		return ph, errf(name, "", "%v", err)
	}
	if !sampled {
		if p.At != nil {
			return ph, errf(name, ".at", "meaningless for a cluster VM phase (the timeline plays out continuously)")
		}
		return ph, nil
	}
	if at := p.at(); at < 0 || at > 1 {
		return ph, errf(name, ".at", "%v outside [0, 1]", at)
	}
	return ph, nil
}

// factor is the phase's intensity factor at a fractional position; it
// depends on the phase's shape, not its duration.
func (p PhaseSpec) factor(frac float64) float64 {
	return workload.Phase{Kind: workload.PhaseKind(p.Kind), Level: p.Level, Peak: p.Peak}.Factor(frac)
}

// at returns the sampling position.
func (p PhaseSpec) at() float64 {
	if p.At == nil {
		return 0.5
	}
	return *p.At
}

// label names the phase for run labels.
func (p PhaseSpec) label(i int) string {
	if p.Name != "" {
		return p.Name
	}
	return fmt.Sprintf("%s%d", p.Kind, i)
}

// Timing is the pre/post-migration observation window override, in
// seconds of simulated time.
type Timing struct {
	// PreS is the normal-execution span before the migration starts. It
	// must cover the meter stabilisation rule (20 samples at the meter
	// cadence); 0 selects 11 s.
	PreS float64 `json:"pre_s,omitempty"`
	// PostS is the observed tail after the migration ends; 0 selects 6 s.
	PostS float64 `json:"post_s,omitempty"`
}

// MigrationTuning overrides the migration engine's defaults. Zero fields
// keep the engine defaults.
type MigrationTuning struct {
	// InitiationS / ActivationS override the handshake and resume spans.
	InitiationS float64 `json:"initiation_s,omitempty"`
	ActivationS float64 `json:"activation_s,omitempty"`
	// MaxRounds bounds pre-copy iterations.
	MaxRounds int `json:"max_rounds,omitempty"`
	// StopThresholdPages ends pre-copy once the dirty set is this small.
	StopThresholdPages int64 `json:"stop_threshold_pages,omitempty"`
	// MaxDataFactor is Xen's data valve (total sent ≤ factor × VM memory).
	MaxDataFactor float64 `json:"max_data_factor,omitempty"`
}

// config lowers the tuning into the migration package's Config.
func (m *MigrationTuning) config(name string, kind migration.Kind) (migration.Config, error) {
	cfg := migration.Config{Kind: kind}
	if m == nil {
		return cfg, nil
	}
	var err error
	if cfg.InitiationTime, err = seconds(name, "migration.initiation_s", m.InitiationS); err != nil {
		return cfg, err
	}
	if cfg.ActivationTime, err = seconds(name, "migration.activation_s", m.ActivationS); err != nil {
		return cfg, err
	}
	cfg.MaxRounds = m.MaxRounds
	cfg.StopThreshold = units.Pages(m.StopThresholdPages)
	cfg.MaxDataFactor = m.MaxDataFactor
	return cfg, nil
}

// Meter is the power-analyser override: sampling period in milliseconds
// plus the instrument's accuracy band and reading jitter.
type Meter struct {
	// PeriodMS is the sampling interval in milliseconds; it must be a
	// positive multiple of 100 (the simulation step). 0 keeps 500 ms.
	PeriodMS int `json:"period_ms,omitempty"`
	// Accuracy / NoiseSigma override the instrument bands when > 0.
	Accuracy   float64 `json:"accuracy,omitempty"`
	NoiseSigma float64 `json:"noise_sigma,omitempty"`
}

// config lowers the override into the sim package's MeterConfig. A
// period no time.Duration holds fails with a pathed error instead of
// wrapping (2^58 ms wraps to zero, which would select the default).
func (m *Meter) config(scenario string) (sim.MeterConfig, error) {
	if m == nil {
		return sim.MeterConfig{}, nil
	}
	const maxMS = math.MaxInt64 / int64(time.Millisecond)
	if ms := int64(m.PeriodMS); ms > maxMS || ms < -maxMS {
		return sim.MeterConfig{}, errf(scenario, "meter.period_ms", "%d ms exceeds the longest representable duration (%v)", m.PeriodMS, time.Duration(math.MaxInt64))
	}
	return sim.MeterConfig{
		Period:     time.Duration(m.PeriodMS) * time.Millisecond,
		Accuracy:   m.Accuracy,
		NoiseSigma: m.NoiseSigma,
	}, nil
}

// Repeat is the repeat policy: how many times each compiled run executes
// and when the paper's variance-convergence rule stops it.
type Repeat struct {
	// MinRuns is the repeat floor; at least 2 (the default) and at most
	// sim.MaxRuns, where every repeat sequence stops.
	MinRuns int `json:"min_runs,omitempty"`
	// VarianceTol is the convergence tolerance; 0 selects 0.5.
	VarianceTol float64 `json:"variance_tol,omitempty"`
}

// Default repeat policy of compiled runs.
const (
	DefaultMinRuns     = 2
	DefaultVarianceTol = 0.5
)

// minRuns returns the effective repeat floor.
func (r *Repeat) minRuns() int {
	if r == nil || r.MinRuns == 0 {
		return DefaultMinRuns
	}
	return r.MinRuns
}

// varianceTol returns the effective convergence tolerance.
func (r *Repeat) varianceTol() float64 {
	if r == nil || r.VarianceTol == 0 {
		return DefaultVarianceTol
	}
	return r.VarianceTol
}

// Datacenter is the host population of a data-centre scenario.
type Datacenter struct {
	// Hosts are the physical hosts and their resident VMs.
	Hosts []HostSpec `json:"hosts"`
	// Moves is the explicit migration plan, executed in order. When
	// empty, the energy-blind first-fit-decreasing policy plans the moves
	// (the only built-in policy that needs no trained estimator, so the
	// plan stays deterministic data).
	Moves []MoveSpec `json:"moves,omitempty"`
}

// HostSpec describes one data-centre host.
type HostSpec struct {
	Name string `json:"name"`
	// Threads is the CPU capacity in hardware threads.
	Threads int `json:"threads"`
	// MemGiB is the RAM capacity in GiB.
	MemGiB float64 `json:"mem_gib"`
	// IdlePowerW is the host's idle draw in watts (the saving made by
	// emptying and switching it off).
	IdlePowerW float64 `json:"idle_power_w"`
	// VMs are the resident guests.
	VMs []VMSpec `json:"vms,omitempty"`
}

// VMSpec describes one resident VM of a data-centre host.
type VMSpec struct {
	Name string `json:"name"`
	// MemGiB is the VM memory size in GiB.
	MemGiB float64 `json:"mem_gib"`
	// BusyVCPUs is the VM's CPU demand in busy-vCPU units.
	BusyVCPUs float64 `json:"busy_vcpus,omitempty"`
	// DirtyRatio is the VM's steady-state memory dirtying ratio.
	DirtyRatio float64 `json:"dirty_ratio,omitempty"`
}

// MoveSpec is one explicit migration of a data-centre plan.
type MoveSpec struct {
	VM   string `json:"vm"`
	From string `json:"from"`
	To   string `json:"to"`
}

// ClusterSpec is the host population and timeline of a cluster
// scenario.
type ClusterSpec struct {
	// HorizonS bounds the observed timeline in simulated seconds: policy
	// ticks fire strictly below it and phase transitions are recorded up
	// to it. Required with a policy; optional for explicit timelines.
	HorizonS float64 `json:"horizon_s,omitempty"`
	// TickS is the re-planning period in seconds (required with a
	// policy).
	TickS float64 `json:"tick_s,omitempty"`
	// Policy re-plans the cluster every tick: "energy-aware" (priced
	// with the deterministic heuristic cost model) or
	// "first-fit-decreasing". Empty runs the explicit Moves instead.
	Policy string `json:"policy,omitempty"`
	// CPUCap, MaxMoves and PaybackS bound each planning round (see
	// consolidation.Config; PaybackS is its amortisation horizon).
	CPUCap   float64 `json:"cpu_cap,omitempty"`
	MaxMoves int     `json:"max_moves,omitempty"`
	PaybackS float64 `json:"payback_s,omitempty"`
	// Hosts is the cluster population.
	Hosts []ClusterHostSpec `json:"hosts,omitempty"`
	// Fleet replicates named host-group templates into a large
	// population: each group's template is stamped Count times with
	// deterministic name suffixes (and, optionally, seed-jittered phase
	// offsets), and the replicas are appended after the explicit Hosts,
	// group by group. A 1,024-host scenario stays a ~40-line file.
	Fleet []FleetGroupSpec `json:"fleet,omitempty"`
	// Moves is the explicit migration timeline (mutually exclusive with
	// Policy). Moves sharing an instant start concurrently and contend
	// on shared links.
	Moves []TimedMoveSpec `json:"moves,omitempty"`
	// Failures injects timed failure events — host crashes, in-flight
	// aborts, switch outage windows — into the timeline (see
	// cluster.FailureEvent for the semantics).
	Failures []FailureSpec `json:"failures,omitempty"`
	// EvacuationDeadlineS scores the crash-recovery SLO: every VM
	// orphaned by a host crash must land on a live host within this
	// many simulated seconds of the crash. Zero means "eventually".
	EvacuationDeadlineS float64 `json:"evacuation_deadline_s,omitempty"`
}

// FailureSpec is one injected failure of a cluster timeline.
type FailureSpec struct {
	// AtS is the injection instant in simulated seconds.
	AtS float64 `json:"at_s"`
	// Kind selects the event: "host-crash", "flight-abort",
	// "switch-outage" or "switch-restore".
	Kind string `json:"kind"`
	// Host names the crashing host (host-crash only).
	Host string `json:"host,omitempty"`
	// VM names the in-flight transfer to kill (flight-abort only).
	VM string `json:"vm,omitempty"`
	// Switch names the link domain (switch-outage / switch-restore
	// only), e.g. "Cisco Catalyst 3750".
	Switch string `json:"switch,omitempty"`
}

// MaxFleetReplicas bounds one fleet group's Count: a typoed count must
// not quietly ask for a million-host timeline. Sized for 100k-host
// fleet scenarios (the engine's struct-of-arrays planner handles them
// in seconds); MaxFleetHosts bounds the expanded total.
const MaxFleetReplicas = 131072

// MaxFleetHosts bounds the expanded cluster population — explicit
// hosts plus every fleet replica across all groups. Group counts are
// individually capped, but many groups must not compound into a
// timeline no machine can hold.
const MaxFleetHosts = 131072

// FleetGroupSpec is one host-group template of a cluster fleet. Every
// replica i (0-based) gets host name "<name>-NNNN" and VM names
// "<vm>-NNNN" (4-digit zero-padded index), so expansion is
// deterministic and replicas are addressable from explicit moves.
type FleetGroupSpec struct {
	// Name prefixes the replica host names. Same charset as scenario
	// names.
	Name string `json:"name"`
	// Count is how many replicas to stamp (1 to MaxFleetReplicas).
	Count int `json:"count"`
	// Machine names the hw catalog model every replica is an instance
	// of.
	Machine string `json:"machine"`
	// PhaseJitterS, when positive, desynchronises the replicas: each
	// replica's VM phase timelines start after a deterministic lead-in
	// of [0, PhaseJitterS) whole seconds — a steady phase at the
	// timeline's entry intensity — derived from the scenario's effective
	// seed, the group name and the replica index. Without it every
	// replica of a diurnal group would shift phase at the same instant.
	// Requires template VMs with phases; must be 0 or a whole number of
	// seconds >= 1.
	PhaseJitterS float64 `json:"phase_jitter_s,omitempty"`
	// VMs are the template guests stamped onto every replica.
	VMs []ClusterVMSpec `json:"vms,omitempty"`
}

// ClusterHostSpec is one host of a cluster scenario.
type ClusterHostSpec struct {
	Name string `json:"name"`
	// Machine names the hw catalog model the host is an instance of; it
	// supplies capacity, idle power and the switch (the link-contention
	// domain).
	Machine string `json:"machine"`
	// VMs are the initially resident guests.
	VMs []ClusterVMSpec `json:"vms,omitempty"`
}

// ClusterVMSpec is one guest of a cluster scenario.
type ClusterVMSpec struct {
	Name string `json:"name"`
	// MemGiB is the VM memory size in GiB.
	MemGiB float64 `json:"mem_gib"`
	// BusyVCPUs is the baseline CPU demand in busy-vCPU units.
	BusyVCPUs float64 `json:"busy_vcpus,omitempty"`
	// DirtyRatio is the baseline memory dirtying ratio.
	DirtyRatio float64 `json:"dirty_ratio,omitempty"`
	// Phases optionally modulates the baseline over cluster time (same
	// shapes as migration-scenario phases; the "at" sampling field is
	// meaningless here and rejected).
	Phases []PhaseSpec `json:"phases,omitempty"`
}

// TimedMoveSpec is one explicit migration of a cluster timeline.
type TimedMoveSpec struct {
	VM   string `json:"vm"`
	From string `json:"from"`
	To   string `json:"to"`
	// AtS is the dispatch instant in seconds.
	AtS float64 `json:"at_s,omitempty"`
}

// EffectiveSeed returns the seed the scenario runs under: the explicit
// Seed when set, otherwise a stable FNV-1a hash of the name (masked to a
// positive value so seed arithmetic downstream never wraps surprisingly).
// Deriving from the name keeps the compiled sim.Scenario values — the
// run-cache keys — identical across sessions and machines.
func (s *Spec) EffectiveSeed() int64 {
	if s.Seed != 0 {
		return s.Seed
	}
	h := fnv.New64a()
	h.Write([]byte(s.Name))
	seed := int64(h.Sum64() & (1<<62 - 1))
	if seed == 0 {
		seed = 1
	}
	return seed
}

// kind parses the spec's migration mechanism.
func (s *Spec) kind() (migration.Kind, error) {
	return migration.ParseKind(s.Kind)
}

// pair returns the effective machine pair name.
func (s *Spec) pair() string {
	if s.Pair == "" {
		return hw.PairM
	}
	return s.Pair
}

// validName reports whether a scenario name is usable in labels, file
// names and cache keys.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// compileMigration checks the single-migration form of the spec and
// lowers it into one run, or one run per phase.
func (s *Spec) compileMigration(kind migration.Kind) (*Compiled, error) {
	name := s.Name
	if s.Migrating.Workload.Profile == "" {
		return nil, errf(name, "migrating.workload.profile", "required (or set \"datacenter\" for a data-centre scenario)")
	}
	if err := s.Migrating.Workload.validate(name, "migrating.workload"); err != nil {
		return nil, err
	}
	if s.Migrating.Type != "" {
		if _, err := vm.Lookup(s.Migrating.Type); err != nil {
			return nil, errf(name, "migrating.type", "%v", err)
		}
	}
	if s.SourceLoadVMs < 0 {
		return nil, errf(name, "source_load_vms", "must be non-negative, got %d", s.SourceLoadVMs)
	}
	if s.TargetLoadVMs < 0 {
		return nil, errf(name, "target_load_vms", "must be non-negative, got %d", s.TargetLoadVMs)
	}
	if s.LoadWorkload != nil {
		if err := s.LoadWorkload.validate(name, "load_workload"); err != nil {
			return nil, err
		}
	}
	labels := make(map[string]int, len(s.Phases))
	for i, p := range s.Phases {
		if _, err := p.lower(name, true); err != nil {
			return nil, under(err, fmt.Sprintf("phases[%d]", i))
		}
		// Phase labels become run labels and scenario names; collisions
		// would make two blocks indistinguishable in every report.
		if prev, dup := labels[p.label(i)]; dup {
			return nil, errf(name, fmt.Sprintf("phases[%d].name", i), "label %q collides with phase %d", p.label(i), prev)
		}
		labels[p.label(i)] = i
	}
	if s.Timing != nil {
		if s.Timing.PreS < 0 {
			return nil, errf(name, "timing.pre_s", "must be non-negative, got %v", s.Timing.PreS)
		}
		if s.Timing.PostS < 0 {
			return nil, errf(name, "timing.post_s", "must be non-negative, got %v", s.Timing.PostS)
		}
	}
	if m := s.Migration; m != nil {
		switch {
		case m.InitiationS < 0:
			return nil, errf(name, "migration.initiation_s", "must be non-negative, got %v", m.InitiationS)
		case m.ActivationS < 0:
			return nil, errf(name, "migration.activation_s", "must be non-negative, got %v", m.ActivationS)
		case m.MaxRounds < 0:
			return nil, errf(name, "migration.max_rounds", "must be non-negative, got %d", m.MaxRounds)
		case m.StopThresholdPages < 0:
			return nil, errf(name, "migration.stop_threshold_pages", "must be non-negative, got %d", m.StopThresholdPages)
		case m.MaxDataFactor < 0:
			return nil, errf(name, "migration.max_data_factor", "must be non-negative, got %v", m.MaxDataFactor)
		}
	}
	base, err := s.baseScenario(kind)
	if err != nil {
		return nil, err
	}
	if err := base.Meter.Validate(); err != nil {
		return nil, errf(name, "meter", "%v", err)
	}
	// The pre-migration window must cover the paper's stabilisation rule:
	// 20 consecutive samples at the effective meter cadence.
	period := meter.DefaultPeriod
	if base.Meter.Period > 0 {
		period = base.Meter.Period
	}
	if need := time.Duration(meter.StabilisationWindow) * period; base.PreMigration < need {
		return nil, errf(name, "timing.pre_s", "pre-migration window %v cannot cover the stabilisation rule (%d samples at %v = %v)", base.PreMigration, meter.StabilisationWindow, period, need)
	}
	if r := s.Repeat; r != nil {
		if r.MinRuns == 1 || r.MinRuns < 0 {
			return nil, errf(name, "repeat.min_runs", "need at least 2 runs for the variance rule, got %d", r.MinRuns)
		}
		if r.MinRuns > sim.MaxRuns {
			return nil, errf(name, "repeat.min_runs", "a scenario repeats at most %d times, got a floor of %d", sim.MaxRuns, r.MinRuns)
		}
		if r.VarianceTol < 0 {
			return nil, errf(name, "repeat.variance_tol", "must be non-negative, got %v", r.VarianceTol)
		}
	}
	out := &Compiled{Spec: s}
	if len(s.Phases) == 0 {
		if err := s.checkRun(base, ""); err != nil {
			return nil, err
		}
		out.Runs = []Run{{
			Label:       s.Name,
			Scenario:    base,
			MinRuns:     s.Repeat.minRuns(),
			VarianceTol: s.Repeat.varianceTol(),
		}}
		return out, nil
	}
	for i, p := range s.Phases {
		factor := p.factor(p.at())
		sc := base
		sc.Name = fmt.Sprintf("%s/%s", base.Name, p.label(i))
		sc.MigratingProfile = base.MigratingProfile.Modulate(factor)
		// Co-located load tracks the phase intensity: a burst doubles both
		// the guest's appetite and its neighbours'.
		sc.SourceLoadVMs = scaleVMs(s.SourceLoadVMs, factor)
		sc.TargetLoadVMs = scaleVMs(s.TargetLoadVMs, factor)
		sc.Seed = base.Seed + int64(i)*phaseSeedStride
		if err := s.checkRun(sc, fmt.Sprintf("phases[%d]", i)); err != nil {
			return nil, err
		}
		out.Runs = append(out.Runs, Run{
			Label:       fmt.Sprintf("%s/%s", s.Name, p.label(i)),
			Scenario:    sc,
			MinRuns:     s.Repeat.minRuns(),
			VarianceTol: s.Repeat.varianceTol(),
		})
	}
	return out, nil
}

// RunError roots a refusal of one of the spec's own fields, a
// *cluster.InputError, at the field's JSON path, as an *Error. Compile
// maps the refusals of cluster.Prepare and the plan executor's Lower
// through it, and a run maps its refusal of an explicit move, for what
// only the run can know (an abort that kept the VM on an earlier host,
// a flight still in the air). Any other error is returned as it is.
func (s *Spec) RunError(err error) error {
	var ie *cluster.InputError
	if !errors.As(err, &ie) {
		return err
	}
	return errf(s.Name, s.inputPath(ie), "%v", ie.Err)
}

// inputPath is the JSON path of the field a *cluster.InputError
// locates: a cluster host through its position in the fleet expansion
// (hostPath), every other element by its index.
func (s *Spec) inputPath(ie *cluster.InputError) string {
	if ie.Field == "Kind" {
		return "kind"
	}
	form := "datacenter."
	if s.Cluster != nil {
		form = "cluster."
	}
	path := form + jsonName[ie.Field]
	switch {
	case ie.Index < 0:
	case ie.Field == "Hosts" && s.Cluster != nil:
		path = s.Cluster.hostPath(ie.Index)
	default:
		path += fmt.Sprintf("[%d]", ie.Index)
	}
	if ie.VM >= 0 {
		path += fmt.Sprintf(".vms[%d]", ie.VM)
	}
	if ie.Attr != "" {
		path += "." + jsonName[ie.Attr]
	}
	return path
}

// jsonName maps the engine's config and element field names to their
// JSON keys in a spec.
var jsonName = map[string]string{
	"Hosts": "hosts", "Moves": "moves", "Failures": "failures", "Kind": "kind",
	"Tick": "tick_s", "Horizon": "horizon_s", "EvacuationDeadline": "evacuation_deadline_s",
	"Name": "name", "Machine": "machine", "MemBytes": "mem_gib", "BusyVCPUs": "busy_vcpus",
	"DirtyRatio": "dirty_ratio", "Phases": "phases", "Threads": "threads", "IdlePower": "idle_power_w",
	"VM": "vm", "From": "from", "To": "to", "At": "at_s", "Host": "host", "Switch": "switch",
}

// checkRun holds a compiled block to the simulator's own validation,
// which every run repeats. Load VMs that do not fit a host fail at the
// field that set their count: the phase at path, which scales the
// counts, or else source_load_vms or target_load_vms.
func (s *Spec) checkRun(sc sim.Scenario, path string) error {
	err := sc.Validate()
	var fit *sim.FitError
	switch {
	case err == nil:
		return nil
	case !errors.As(err, &fit):
		return errf(s.Name, "(compiled)", "%v", err)
	case path != "":
	case fit.Target:
		path = "target_load_vms"
	default:
		path = "source_load_vms"
	}
	return errf(s.Name, path, "%v", err)
}

// compileDatacenter checks the data-centre form of the spec and lowers
// it into a host population and a move plan.
func (s *Spec) compileDatacenter(kind migration.Kind) (*Compiled, error) {
	name := s.Name
	if s.Migrating.Workload.Profile != "" || s.Migrating.Type != "" {
		return nil, errf(name, "migrating", "unused in data-centre scenarios (the plan's moves select the workloads)")
	}
	if len(s.Phases) > 0 {
		return nil, errf(name, "phases", "unused in data-centre scenarios")
	}
	if s.SourceLoadVMs != 0 || s.TargetLoadVMs != 0 {
		return nil, errf(name, "source_load_vms/target_load_vms", "unused in data-centre scenarios (host load comes from the hosts' resident VMs)")
	}
	if s.LoadWorkload != nil {
		return nil, errf(name, "load_workload", "unused in data-centre scenarios")
	}
	dc := s.Datacenter
	if len(dc.Hosts) < 2 {
		return nil, errf(name, "datacenter.hosts", "need at least 2 hosts, got %d", len(dc.Hosts))
	}
	hosts, err := s.hostStates()
	if err != nil {
		return nil, err
	}
	if r := s.Repeat; r != nil {
		return nil, errf(name, "repeat", "unused in data-centre scenarios (each move runs once)")
	}
	if s.Meter != nil || s.Migration != nil || s.Timing != nil {
		// The plan executor derives per-move scenarios itself; overrides
		// that would silently not apply are rejected.
		return nil, errf(name, "meter/migration/timing", "unused in data-centre scenarios")
	}
	pr := &PlanRun{
		Policy: "scenario/" + s.Name,
		Hosts:  hosts,
		Plan:   &consolidation.Plan{},
		Executor: cluster.Executor{
			Pair: s.pair(),
			Kind: kind,
			Seed: s.EffectiveSeed(),
		},
	}
	for _, mv := range dc.Moves {
		pr.Plan.Moves = append(pr.Plan.Moves, consolidation.Move{VM: mv.VM, From: mv.From, To: mv.To})
	}
	// The executor's own check replays the explicit plan against the
	// evolving placement, so a move referencing a VM after it has left
	// its host fails here, not at run time. Without moves it checks the
	// hosts the planner reads.
	if _, err := pr.Executor.Lower(pr.Plan, hosts); err != nil {
		return nil, s.RunError(err)
	}
	if len(dc.Moves) == 0 {
		// No explicit moves: plan with the energy-blind first-fit-
		// decreasing policy, the only built-in planner that needs no
		// trained estimator — keeping compilation deterministic data.
		ffd := consolidation.FirstFitDecreasing{}
		plan, err := ffd.Plan(hosts, consolidation.Config{})
		if err == nil {
			_, err = pr.Executor.Lower(plan, hosts)
		}
		if err != nil {
			return nil, errf(name, "datacenter", "planning moves with %s: %v", ffd.Name(), err)
		}
		pr.Policy = ffd.Name()
		pr.Plan = plan
	}
	return &Compiled{Spec: s, Plan: pr}, nil
}

// Cluster policy names.
const (
	PolicyEnergyAware = "energy-aware"
	PolicyFirstFit    = "first-fit-decreasing"
)

// compileCluster checks the cluster form of the spec and lowers it into
// a prepared cluster config. The fleet expands once, and each host is
// lowered in expansion order, so a host's position in the config is its
// position in the expansion. Preparing the config runs the engine's own
// validation, the only check of the hosts, guests, moves and failures
// the config holds; RunError roots a refusal at its JSON path.
func (s *Spec) compileCluster(kind migration.Kind) (*Compiled, error) {
	name := s.Name
	if s.Pair != "" {
		return nil, errf(name, "pair", "unused in cluster scenarios (host machine models define the topology)")
	}
	if s.Migrating.Workload.Profile != "" || s.Migrating.Type != "" {
		return nil, errf(name, "migrating", "unused in cluster scenarios (the timeline's moves select the workloads)")
	}
	if len(s.Phases) > 0 {
		return nil, errf(name, "phases", "unused in cluster scenarios (phase timelines live on the cluster's VMs)")
	}
	if s.SourceLoadVMs != 0 || s.TargetLoadVMs != 0 {
		return nil, errf(name, "source_load_vms/target_load_vms", "unused in cluster scenarios (host load comes from the resident VMs)")
	}
	if s.LoadWorkload != nil {
		return nil, errf(name, "load_workload", "unused in cluster scenarios")
	}
	if s.Repeat != nil {
		return nil, errf(name, "repeat", "unused in cluster scenarios (each migration runs once)")
	}
	if s.Meter != nil || s.Migration != nil || s.Timing != nil {
		return nil, errf(name, "meter/migration/timing", "unused in cluster scenarios")
	}
	c := s.Cluster
	if err := s.validateFleetGroups(); err != nil {
		return nil, err
	}
	if c.hostCount() == 0 {
		return nil, errf(name, "cluster.hosts", "required (directly or via \"fleet\" groups)")
	}
	cfg := cluster.Config{Kind: kind, Seed: s.EffectiveSeed()}
	switch c.Policy {
	case PolicyEnergyAware:
		cfg.Policy = consolidation.EnergyAware{Model: consolidation.HeuristicCost{}}
	case PolicyFirstFit:
		cfg.Policy = consolidation.FirstFitDecreasing{Model: consolidation.HeuristicCost{}}
	case "":
	default:
		return nil, errf(name, "cluster.policy", "unknown policy %q (want %q or %q)", c.Policy, PolicyEnergyAware, PolicyFirstFit)
	}
	if c.HorizonS < 0 {
		return nil, errf(name, "cluster.horizon_s", "must be non-negative, got %v", c.HorizonS)
	}
	var err error
	if cfg.Horizon, err = seconds(name, "cluster.horizon_s", c.HorizonS); err != nil {
		return nil, err
	}
	if c.Policy == "" {
		switch {
		case len(c.Moves) == 0:
			return nil, errf(name, "cluster.moves", "required without a policy (an empty timeline measures nothing)")
		case c.TickS != 0:
			return nil, errf(name, "cluster.tick_s", "needs a policy to tick")
		case c.CPUCap != 0 || c.MaxMoves != 0 || c.PaybackS != 0:
			return nil, errf(name, "cluster.cpu_cap/max_moves/payback_s", "bound planning rounds and need a policy")
		}
	} else {
		switch {
		case c.CPUCap < 0 || c.CPUCap > 1:
			return nil, errf(name, "cluster.cpu_cap", "%v outside [0, 1]", c.CPUCap)
		case c.MaxMoves < 0:
			return nil, errf(name, "cluster.max_moves", "must be non-negative, got %d", c.MaxMoves)
		case c.PaybackS < 0:
			return nil, errf(name, "cluster.payback_s", "must be non-negative, got %v", c.PaybackS)
		}
	}
	if cfg.Tick, err = seconds(name, "cluster.tick_s", c.TickS); err != nil {
		return nil, err
	}
	cfg.PolicyConfig = consolidation.Config{CPUCap: c.CPUCap, MaxMoves: c.MaxMoves}
	if cfg.PolicyConfig.Horizon, err = seconds(name, "cluster.payback_s", c.PaybackS); err != nil {
		return nil, err
	}
	hosts := s.expandedClusterHosts()
	nvms := 0
	for _, h := range hosts {
		nvms += len(h.VMs)
	}
	// The lowered guests, and their phases, share backing arrays; each
	// list is capped at its own length.
	vms := make([]cluster.VM, 0, nvms)
	var phases []workload.Phase
	cfg.Hosts = make([]cluster.Host, len(hosts))
	for hi, h := range hosts {
		first := len(vms)
		for vi, v := range h.VMs {
			// Paths are formatted only for the error returned.
			vmAt := func(field string) string { return c.hostPath(hi) + fmt.Sprintf(".vms[%d]", vi) + field }
			mem, err := gib(name, v.MemGiB)
			if err != nil {
				return nil, under(err, vmAt(""))
			}
			cv := cluster.VM{
				Name:       v.Name,
				MemBytes:   mem,
				BusyVCPUs:  v.BusyVCPUs,
				DirtyRatio: units.Fraction(v.DirtyRatio),
			}
			for pi, p := range v.Phases {
				ph, err := p.lower(name, false)
				if err != nil {
					return nil, under(err, vmAt(fmt.Sprintf(".phases[%d]", pi)))
				}
				phases = append(phases, ph)
			}
			if n := len(v.Phases); n > 0 {
				cv.Phases = phases[len(phases)-n : len(phases) : len(phases)]
			}
			vms = append(vms, cv)
		}
		cfg.Hosts[hi] = cluster.Host{Name: h.Name, Machine: h.Machine}
		if len(vms) > first {
			cfg.Hosts[hi].VMs = vms[first:len(vms):len(vms)]
		}
	}
	for mi, m := range c.Moves {
		at, err := seconds(name, fmt.Sprintf("cluster.moves[%d].at_s", mi), m.AtS)
		if err != nil {
			return nil, err
		}
		cfg.Moves = append(cfg.Moves, cluster.TimedMove{VM: m.VM, From: m.From, To: m.To, At: at})
	}
	for fi, f := range c.Failures {
		at, err := seconds(name, fmt.Sprintf("cluster.failures[%d].at_s", fi), f.AtS)
		if err != nil {
			return nil, err
		}
		cfg.Failures = append(cfg.Failures, cluster.FailureEvent{
			At: at, Kind: cluster.FailureKind(f.Kind), Host: f.Host, VM: f.VM, Switch: f.Switch,
		})
	}
	if c.EvacuationDeadlineS > 0 && len(c.Failures) == 0 {
		return nil, errf(name, "cluster.evacuation_deadline_s", "needs failures to score against")
	}
	if cfg.EvacuationDeadline, err = seconds(name, "cluster.evacuation_deadline_s", c.EvacuationDeadlineS); err != nil {
		return nil, err
	}
	if cfg, err = cluster.Prepare(cfg); err != nil {
		return nil, s.RunError(err)
	}
	policy := "timeline"
	if cfg.Policy != nil {
		policy = cfg.Policy.Name()
	}
	return &Compiled{Spec: s, Cluster: &ClusterRun{Policy: policy, Config: cfg}}, nil
}
