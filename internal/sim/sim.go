// Package sim is the discrete-time simulation kernel that plays the role
// of the paper's physical testbed campaign. One Run wires two Xen hosts, a
// migrating guest, optional co-located load VMs, the network link and two
// power meters together, advances everything on a fixed 100 ms step, and
// returns what the paper's instruments returned: a 2 Hz power trace per
// host, an aligned dstat-style feature trace, the phase boundaries of the
// migration and the per-phase energies.
package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/meter"
	"repro/internal/migration"
	"repro/internal/netsim"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/vm"
	"repro/internal/workload"
	"repro/internal/xen"
)

// Step is the simulation time step. It divides the meter period evenly so
// samples land exactly on the 2 Hz grid.
const Step = 100 * time.Millisecond

// Scenario describes one experimental point: which machine pair, migration
// type, migrating workload, and how much CPU load runs beside it.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Pair selects the machine pair (hw.PairM or hw.PairO).
	Pair string
	// Kind is the migration mechanism.
	Kind migration.Kind
	// MigratingType is the instance type of the VM being migrated
	// (vm.TypeMigratingCPU or vm.TypeMigratingMem).
	MigratingType string
	// MigratingProfile is the workload inside the migrating VM.
	MigratingProfile workload.Profile
	// SourceLoadVMs and TargetLoadVMs are the co-located load-cpu VM
	// counts (the paper's 0,1,3,5,7,8 staircase).
	SourceLoadVMs, TargetLoadVMs int
	// LoadProfile is the workload of the load VMs (matrixmult by default).
	LoadProfile workload.Profile
	// PreMigration is the normal-execution span before ms.
	PreMigration time.Duration
	// PostMigration is the observed tail after me.
	PostMigration time.Duration
	// Migration overrides engine timing/termination defaults when non-zero.
	Migration migration.Config
	// Meter overrides the simulated power analysers when non-zero.
	Meter MeterConfig
	// Seed pins all stochastic behaviour of the run.
	Seed int64
}

// MeterConfig overrides the simulated power analysers' behaviour. The
// zero value keeps the paper's instruments (2 Hz sampling, 0.3% accuracy
// band, 0.05% reading jitter), so existing scenarios — and their run-cache
// identities — are unchanged.
type MeterConfig struct {
	// Period is the sampling interval; 0 selects meter.DefaultPeriod.
	// It must be a positive multiple of the simulation Step.
	Period time.Duration
	// Accuracy overrides the instrument's relative accuracy band when > 0.
	Accuracy float64
	// NoiseSigma overrides the relative 1σ reading jitter when > 0.
	NoiseSigma float64
}

// period returns the effective sampling interval.
func (m MeterConfig) period() time.Duration {
	if m.Period <= 0 {
		return meter.DefaultPeriod
	}
	return m.Period
}

// apply configures a meter with the overrides.
func (m MeterConfig) apply(mt *meter.Meter) {
	mt.Period = m.period()
	if m.Accuracy > 0 {
		mt.Accuracy = m.Accuracy
	}
	if m.NoiseSigma > 0 {
		mt.NoiseSigma = m.NoiseSigma
	}
}

// Validate rejects unusable meter overrides.
func (m MeterConfig) Validate() error {
	if m.Period < 0 || (m.Period > 0 && m.Period%Step != 0) {
		return fmt.Errorf("sim: meter period %v must be a positive multiple of %v", m.Period, Step)
	}
	if m.Accuracy < 0 || m.Accuracy >= 1 {
		return fmt.Errorf("sim: meter accuracy %v outside [0, 1)", m.Accuracy)
	}
	if m.NoiseSigma < 0 || m.NoiseSigma >= 1 {
		return fmt.Errorf("sim: meter noise sigma %v outside [0, 1)", m.NoiseSigma)
	}
	return nil
}

// withDefaults fills unset scenario fields.
func (s Scenario) withDefaults() Scenario {
	if s.Pair == "" {
		s.Pair = hw.PairM
	}
	if s.MigratingType == "" {
		s.MigratingType = vm.TypeMigratingCPU
	}
	if s.MigratingProfile.Name == "" {
		s.MigratingProfile = workload.MatrixMultProfile()
	}
	if s.LoadProfile.Name == "" {
		s.LoadProfile = workload.MatrixMultProfile()
	}
	if s.PreMigration <= 0 {
		s.PreMigration = 12 * time.Second
	}
	if s.PostMigration <= 0 {
		s.PostMigration = 10 * time.Second
	}
	s.Migration.Kind = s.Kind
	return s
}

// Validate rejects impossible scenarios, among them load VMs that do
// not fit their host (a *FitError), which xen would refuse to attach
// mid-run.
func (s Scenario) Validate() error {
	if s.SourceLoadVMs < 0 || s.TargetLoadVMs < 0 {
		return fmt.Errorf("sim: negative load VM count")
	}
	d := s.withDefaults()
	guest, err := vm.Lookup(d.MigratingType)
	if err != nil {
		return err
	}
	if err := d.MigratingProfile.Validate(); err != nil {
		return err
	}
	if err := d.LoadProfile.Validate(); err != nil {
		return err
	}
	src, dst, err := hw.Pair(d.Pair)
	if err != nil {
		return err
	}
	if err := fits(src, guest, s.SourceLoadVMs, false); err != nil {
		return err
	}
	if err := fits(dst, guest, s.TargetLoadVMs, true); err != nil {
		return err
	}
	return s.Meter.Validate()
}

// FitError reports load VMs that do not fit a host of the scenario's
// pair: xen attaches a guest only while dom-0, the migrating guest and
// the load VMs together fit the host's RAM. The source holds the guest
// from the start, the target from activation.
type FitError struct {
	// Target marks the target host; false is the source.
	Target bool
	// Host names the machine, LoadVMs the count that does not fit, and
	// Max the most that fit.
	Host         string
	LoadVMs, Max int
	RAM          units.Bytes
}

func (e *FitError) Error() string {
	side := "source"
	if e.Target {
		side = "target"
	}
	return fmt.Sprintf("sim: %d load VMs do not fit the %s host %s: beside dom-0 and the migrating guest its %v of RAM holds at most %d",
		e.LoadVMs, side, e.Host, e.RAM, e.Max)
}

// fits applies xen's attach rule to n load VMs beside the migrating
// guest on host h, without multiplying n, so no count overflows it.
func fits(h hw.MachineSpec, guest vm.InstanceType, n int, target bool) error {
	types := vm.Types()
	free := h.RAM - types[vm.TypeDom0].RAM - guest.RAM
	max := int64(-1)
	if free >= 0 {
		max = int64(free / types[vm.TypeLoadCPU].RAM)
	}
	if int64(n) <= max {
		return nil
	}
	return &FitError{Target: target, Host: h.Name, LoadVMs: n, Max: int(max), RAM: h.RAM}
}

// RunResult is everything one testbed run yields.
type RunResult struct {
	Scenario Scenario
	// Source and Target are the 2 Hz power traces of the two hosts.
	Source, Target *trace.PowerTrace
	// SourceFeatures and TargetFeatures are the aligned feature traces.
	SourceFeatures, TargetFeatures *trace.FeatureTrace
	// Bounds are the measured phase boundaries (ms, ts, te, me).
	Bounds trace.Boundaries
	// SourceEnergy and TargetEnergy are the per-phase energies (the
	// paper's four metrics per host).
	SourceEnergy, TargetEnergy trace.PhaseEnergy
	// BytesSent is the state data moved.
	BytesSent units.Bytes
	// Rounds is the pre-copy round count (live only).
	Rounds int
	// Downtime is the guest suspension span.
	Downtime time.Duration
}

// Run executes one scenario to completion.
func Run(sc Scenario) (*RunResult, error) {
	return RunCtx(context.Background(), sc)
}

// RunCtx is Run with a cancellation boundary at every simulation step: a
// done ctx abandons the run and returns ctx's error, so a disconnected
// or deadline-expired caller stops burning CPU within one 100 ms step of
// simulated time. Cancellation never changes results — a run that
// completes under any ctx is bit-identical to an uncancellable one.
func RunCtx(ctx context.Context, sc Scenario) (*RunResult, error) {
	done := ctx.Done() // nil for background contexts: checks vanish
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	srcSpec, dstSpec, err := hw.Pair(sc.Pair)
	if err != nil {
		return nil, err
	}
	src, err := xen.NewHost(srcSpec)
	if err != nil {
		return nil, err
	}
	dst, err := xen.NewHost(dstSpec)
	if err != nil {
		return nil, err
	}
	link, err := netsim.NewLink(srcSpec, dstSpec)
	if err != nil {
		return nil, err
	}

	// Populate the hosts: migrating guest on the source, load VMs on both.
	guest, err := src.Create(sc.MigratingType, sc.MigratingProfile, sc.Seed*31+1)
	if err != nil {
		return nil, err
	}
	for i := 0; i < sc.SourceLoadVMs; i++ {
		if _, err := src.Create(vm.TypeLoadCPU, sc.LoadProfile, sc.Seed*31+int64(i)+2); err != nil {
			return nil, err
		}
	}
	for i := 0; i < sc.TargetLoadVMs; i++ {
		if _, err := dst.Create(vm.TypeLoadCPU, sc.LoadProfile, sc.Seed*31+int64(i)+100); err != nil {
			return nil, err
		}
	}

	engine, err := migration.New(sc.Migration, src, dst, guest.Name, link)
	if err != nil {
		return nil, err
	}

	srcMeter := meter.New(srcSpec.Name, sc.Seed*7+11)
	dstMeter := meter.New(dstSpec.Name, sc.Seed*7+13)
	sc.Meter.apply(srcMeter)
	sc.Meter.apply(dstMeter)
	srcFeat := &trace.FeatureTrace{Host: srcSpec.Name}
	dstFeat := &trace.FeatureTrace{Host: dstSpec.Name}

	// Pre-size the traces from the scenario's span: the pre/post windows
	// are known exactly and the transfer length is bounded by the data
	// valve over the migration rate, so Append never regrows mid-run.
	expected := expectedSteps(sc, srcSpec)
	srcFeat.Reserve(expected)
	dstFeat.Reserve(expected)
	meterSamples := expected/int(sc.Meter.period()/Step) + 2
	srcMeter.Reserve(meterSamples)
	dstMeter.Reserve(meterSamples)

	res := &RunResult{
		Scenario:       sc,
		SourceFeatures: srcFeat, TargetFeatures: dstFeat,
	}

	// The migrating guest's slot on the source is fixed for the whole run;
	// its target-side slot exists only once the engine has moved it (the
	// activation handover), so it resolves lazily below.
	guestSrcSlot, _ := src.GuestIndex(guest.Name)
	guestDstSlot := -1

	now := time.Duration(0)
	started := false
	var endAt time.Duration // set when the migration finishes

	// stepOnce advances the whole world by one Step.
	stepOnce := func() error {
		// 0. Cancellation boundary: one non-blocking channel poll per step
		// (skipped entirely for background contexts, whose Done is nil).
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		// 1. Schedule CPU on both hosts.
		sa := src.Schedule()
		da := dst.Schedule()

		// 2. Advance the migration.
		var rep migration.StepReport
		if started && !engine.Done() {
			rep, err = engine.Step(now, Step, sa.MigrationShare(), da.MigrationShare())
			if err != nil {
				return err
			}
		}

		// 3. Advance guest memory behaviour (page dirtying).
		srcEvents := src.Step(sa, Step.Seconds())
		dstEvents := dst.Step(da, Step.Seconds())

		// 4. Assemble component loads. State copying moves pages through
		// both hosts' memory subsystems at the transfer rate.
		copyPagesPerSec := 0.0
		if rep.BytesMoved > 0 {
			copyPagesPerSec = float64(rep.BytesMoved) / float64(units.PageSize) / Step.Seconds()
		}
		netFrac := link.LineFraction(rep.Bandwidth)

		// 5. Meters sample the ground truth. A meter only records at its
		// sampling period (2 Hz by default against the 100 ms step), so the
		// load assembly and the TruePower evaluation are skipped between
		// due times.
		if now >= srcMeter.NextDue() {
			srcLoad := src.Load(sa, float64(srcEvents)/Step.Seconds()+copyPagesPerSec, netFrac)
			srcMeter.Observe(now, srcSpec.TruePower(srcLoad))
		}
		if now >= dstMeter.NextDue() {
			dstLoad := dst.Load(da, float64(dstEvents)/Step.Seconds()+copyPagesPerSec, netFrac)
			dstMeter.Observe(now, dstSpec.TruePower(dstLoad))
		}

		// 6. Feature traces record what dstat + the hypervisor would see,
		// at the same instants the meters sample.
		guestHost := src
		vmCPU := sa.Guest(guestSrcSlot)
		if guestDstSlot < 0 {
			if slot, onDst := dst.GuestIndex(guest.Name); onDst {
				guestDstSlot = slot
			}
		}
		if guestDstSlot >= 0 {
			guestHost = dst
			vmCPU = da.Guest(guestDstSlot)
		}
		dr := guest.DirtyRatio()
		fsrc := trace.FeatureSample{
			At: now, HostCPU: sa.HostCPU(), Bandwidth: rep.Bandwidth,
		}
		fdst := trace.FeatureSample{
			At: now, HostCPU: da.HostCPU(), Bandwidth: rep.Bandwidth,
		}
		if guestHost == src {
			fsrc.VMCPU = vmCPU
			fsrc.DirtyRatio = dr
		} else {
			fdst.VMCPU = vmCPU
			fdst.DirtyRatio = dr
		}
		if err := srcFeat.Append(fsrc); err != nil {
			return err
		}
		return dstFeat.Append(fdst)
	}

	// Phase A: normal execution until the consolidation manager fires.
	for now < sc.PreMigration {
		if err := stepOnce(); err != nil {
			return nil, err
		}
		now += Step
	}
	if err := engine.Start(now); err != nil {
		return nil, err
	}
	started = true

	// Phase B: the migration itself.
	const hardCap = 2 * time.Hour
	for !engine.Done() {
		if err := stepOnce(); err != nil {
			return nil, err
		}
		now += Step
		if now > hardCap {
			return nil, errors.New("sim: migration exceeded the simulation cap")
		}
	}
	endAt = now

	// Phase C: post-migration tail.
	for now < endAt+sc.PostMigration {
		if err := stepOnce(); err != nil {
			return nil, err
		}
		now += Step
	}

	res.Source = srcMeter.Trace()
	res.Target = dstMeter.Trace()
	res.Bounds = engine.Boundaries()
	res.BytesSent = engine.BytesSent()
	res.Rounds = engine.Rounds()
	res.Downtime = engine.Downtime()
	if res.SourceEnergy, err = trace.EnergyByPhase(res.Source, res.Bounds); err != nil {
		return nil, err
	}
	if res.TargetEnergy, err = trace.EnergyByPhase(res.Target, res.Bounds); err != nil {
		return nil, err
	}
	return res, nil
}

// expectedSteps bounds the number of 100 ms steps a scenario can take:
// the exact pre/post windows plus a transfer span derived from the data
// valve (MaxDataFactor × VM memory) over the pair's migration rate, with
// slack for initiation, activation and scheduling-induced slowdown. Used
// to pre-size trace capacity; underestimates only cost a regrow.
func expectedSteps(sc Scenario, spec hw.MachineSpec) int {
	span := sc.PreMigration + sc.PostMigration
	typ, err := vm.Lookup(sc.MigratingType)
	if err == nil && spec.MigrationRate > 0 {
		factor := sc.Migration.MaxDataFactor
		if factor <= 0 {
			factor = migration.DefaultMaxDataFactor
		}
		bits := float64(typ.RAM) * 8 * factor
		transfer := time.Duration(bits / float64(spec.MigrationRate) * float64(time.Second))
		span += 2*transfer + 30*time.Second
	}
	return int(span/Step) + 2
}

// RunRepeatedCtx executes a scenario until the paper's variance-
// convergence rule holds on the total source-side migration energy: at
// least minRuns runs, and the variance change from adding the latest run
// below tol. Run i always gets seed sc.Seed + i*1009 and the rule is
// applied to run prefixes in index order, so every worker count (<= 0
// means runtime.NumCPU()) returns the bit-identical run sequence; workers
// only changes how many speculative runs execute concurrently. Each run
// is answered through the cache, and a nil receiver runs uncached. A
// done ctx, checked between speculative batches and inside every run,
// abandons the repeat sequence and returns ctx's error.
func (c *Cache) RunRepeatedCtx(ctx context.Context, sc Scenario, minRuns int, tol float64, workers int) ([]*RunResult, error) {
	return runRepeated(ctx, c, sc, minRuns, tol, workers, true)
}

// SummaryRepeatedCtx is RunRepeatedCtx with every run answered through
// SummaryCtx, for callers that read only the runs' summaries.
func (c *Cache) SummaryRepeatedCtx(ctx context.Context, sc Scenario, minRuns int, tol float64, workers int) ([]*RunResult, error) {
	return runRepeated(ctx, c, sc, minRuns, tol, workers, false)
}

// runRepeated answers each run through c.lookup with the given traces
// flag.
func runRepeated(ctx context.Context, c *Cache, sc Scenario, minRuns int, tol float64, workers int, traces bool) ([]*RunResult, error) {
	if minRuns < 2 {
		return nil, errors.New("sim: need at least two runs")
	}
	const maxRuns = 50
	// The convergence rule inspects growing prefixes in index order
	// (parallel.UntilCtx's contract), so the per-run energies accumulate
	// incrementally instead of being rebuilt from the whole prefix on
	// every check — the check stays O(new runs), not O(prefix²).
	energies := make([]float64, 0, maxRuns)
	// minRuns is the first-batch hint: convergence cannot fire earlier, so
	// speculating past it before the first variance check is pure waste.
	return parallel.UntilCtx(ctx, workers, maxRuns, minRuns,
		func(i int) (*RunResult, error) {
			run := sc
			run.Seed = sc.Seed + int64(i)*1009
			return c.lookup(ctx, run, traces)
		},
		func(prefix []*RunResult) bool {
			for i := len(energies); i < len(prefix); i++ {
				energies = append(energies, float64(prefix[i].SourceEnergy.Total()))
			}
			return stats.VarianceConverged(energies, minRuns, tol)
		})
}
