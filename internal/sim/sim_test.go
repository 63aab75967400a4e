package sim

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/meter"
	"repro/internal/migration"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/vm"
	"repro/internal/workload"
)

func cpuScenario(kind migration.Kind, srcLoad, dstLoad int, seed int64) Scenario {
	return Scenario{
		Name:          "test-cpu",
		Kind:          kind,
		MigratingType: vm.TypeMigratingCPU,
		SourceLoadVMs: srcLoad,
		TargetLoadVMs: dstLoad,
		Seed:          seed,
	}
}

func memScenario(dirty units.Fraction, srcLoad, dstLoad int, seed int64) Scenario {
	return Scenario{
		Name:             "test-mem",
		Kind:             migration.Live,
		MigratingType:    vm.TypeMigratingMem,
		MigratingProfile: workload.PagedirtierProfile(dirty),
		SourceLoadVMs:    srcLoad,
		TargetLoadVMs:    dstLoad,
		Seed:             seed,
	}
}

func TestRunNonLiveBasics(t *testing.T) {
	r, err := Run(cpuScenario(migration.NonLive, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bounds.Validate(); err != nil {
		t.Fatal(err)
	}
	// Power traces cover warm-up, migration and tail at 2 Hz.
	wantSpan := r.Bounds.ME + r.Scenario.PostMigration - time.Second
	if r.Source.Duration() < wantSpan || r.Target.Duration() < wantSpan {
		t.Errorf("trace spans %v/%v, want ≥ %v", r.Source.Duration(), r.Target.Duration(), wantSpan)
	}
	// MS lands after the configured warm-up.
	if r.Bounds.MS != r.Scenario.PreMigration {
		t.Errorf("MS = %v, want %v", r.Bounds.MS, r.Scenario.PreMigration)
	}
	// Exactly one image crossed the wire.
	img := units.PagesOf(4 * units.GiB).Bytes()
	if r.BytesSent != img {
		t.Errorf("bytes sent = %v, want %v", r.BytesSent, img)
	}
	// Per-phase energies are positive and sum to the window integral.
	if r.SourceEnergy.Initiation <= 0 || r.SourceEnergy.Transfer <= 0 || r.SourceEnergy.Activation <= 0 {
		t.Errorf("source phase energies %+v must be positive", r.SourceEnergy)
	}
	whole := r.Source.EnergyBetween(r.Bounds.MS, r.Bounds.ME)
	if math.Abs(float64(r.SourceEnergy.Total()-whole)) > 1e-6*float64(whole) {
		t.Errorf("phase sum %v != window energy %v", r.SourceEnergy.Total(), whole)
	}
}

func TestRunDeterministicGivenSeed(t *testing.T) {
	a, err := Run(cpuScenario(migration.Live, 1, 0, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cpuScenario(migration.Live, 1, 0, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Source.Len() != b.Source.Len() {
		t.Fatalf("trace lengths differ: %d vs %d", a.Source.Len(), b.Source.Len())
	}
	for i := range a.Source.Samples {
		if a.Source.Samples[i] != b.Source.Samples[i] {
			t.Fatalf("sample %d differs across identical seeds", i)
		}
	}
	if a.BytesSent != b.BytesSent || a.Rounds != b.Rounds {
		t.Error("migration outcome differs across identical seeds")
	}
}

func TestRunSeedChangesNoise(t *testing.T) {
	a, _ := Run(cpuScenario(migration.NonLive, 0, 0, 1))
	b, _ := Run(cpuScenario(migration.NonLive, 0, 0, 2))
	same := true
	n := a.Source.Len()
	if b.Source.Len() < n {
		n = b.Source.Len()
	}
	for i := 0; i < n; i++ {
		if a.Source.Samples[i].Power != b.Source.Samples[i].Power {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical noise")
	}
}

func TestRunPreMigrationStabilises(t *testing.T) {
	// The warm-up window must satisfy the paper's stabilisation rule
	// before the migration starts.
	r, err := Run(cpuScenario(migration.NonLive, 0, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	pre := r.Source.Slice(0, r.Bounds.MS-time.Nanosecond)
	at, err := meter.StabilisationPoint(pre)
	if err != nil {
		t.Fatalf("source never stabilised before migration: %v", err)
	}
	if at >= r.Bounds.MS {
		t.Errorf("stabilised only at %v, after MS %v", at, r.Bounds.MS)
	}
}

func TestRunTargetPowerRisesAfterActivation(t *testing.T) {
	// Fig. 4b / 5b: after activation the target runs the VM, so its
	// post-migration power exceeds its pre-migration idle power.
	r, err := Run(cpuScenario(migration.NonLive, 0, 0, 4))
	if err != nil {
		t.Fatal(err)
	}
	before := r.Target.Slice(0, r.Bounds.MS-time.Nanosecond).MeanPower()
	after := r.Target.Slice(r.Bounds.ME+time.Second, r.Bounds.ME+r.Scenario.PostMigration).MeanPower()
	if after <= before+20 {
		t.Errorf("target power: before %v, after %v — want a clear rise from running the VM", before, after)
	}
	// And the source drops back: it lost the 4-vCPU guest.
	sBefore := r.Source.Slice(0, r.Bounds.MS-time.Nanosecond).MeanPower()
	sAfter := r.Source.Slice(r.Bounds.ME+time.Second, r.Bounds.ME+r.Scenario.PostMigration).MeanPower()
	if sAfter >= sBefore-20 {
		t.Errorf("source power: before %v, after %v — want a clear drop", sBefore, sAfter)
	}
}

func TestRunNonLiveSourceDropsAtInitiation(t *testing.T) {
	// The paper: suspending the guest at non-live initiation causes "a
	// strong decrease in power consumption" on the source.
	r, err := Run(cpuScenario(migration.NonLive, 0, 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	before := r.Source.Slice(0, r.Bounds.MS-time.Nanosecond).MeanPower()
	during := r.Source.Slice(r.Bounds.MS, r.Bounds.TS).MeanPower()
	if during >= before {
		t.Errorf("source power during initiation %v must drop below normal %v", during, before)
	}
}

func TestRunLoadedSourceLengthensTransfer(t *testing.T) {
	idle, err := Run(cpuScenario(migration.NonLive, 0, 0, 6))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Run(cpuScenario(migration.NonLive, 8, 0, 6))
	if err != nil {
		t.Fatal(err)
	}
	ti := idle.Bounds.TE - idle.Bounds.TS
	tl := loaded.Bounds.TE - loaded.Bounds.TS
	if tl <= ti {
		t.Errorf("transfer with 8 load VMs (%v) must exceed idle transfer (%v)", tl, ti)
	}
}

func TestRunHighDirtyRatioLengthensLive(t *testing.T) {
	lo, err := Run(memScenario(0.05, 0, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Run(memScenario(0.95, 0, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	if hi.BytesSent <= lo.BytesSent {
		t.Errorf("95%% dirty sent %v, 5%% sent %v — want more data at high DR", hi.BytesSent, lo.BytesSent)
	}
	if hi.Downtime <= lo.Downtime {
		t.Errorf("95%% dirty downtime %v must exceed 5%% downtime %v", hi.Downtime, lo.Downtime)
	}
}

func TestRunFeatureTracesAligned(t *testing.T) {
	r, err := Run(memScenario(0.55, 0, 0, 9))
	if err != nil {
		t.Fatal(err)
	}
	obs, err := trace.Align(r.Source, r.SourceFeatures, r.Bounds)
	if err != nil {
		t.Fatal(err)
	}
	// During live transfer the source must report nonzero bandwidth and a
	// nonzero dirty ratio for the migrating VM.
	sawBW, sawDR := false, false
	for _, o := range obs {
		if o.Phase == trace.PhaseTransfer {
			if o.Bandwidth > 0 {
				sawBW = true
			}
			if o.DirtyRatio > 0 {
				sawDR = true
			}
		}
	}
	if !sawBW {
		t.Error("no transfer-phase bandwidth recorded on source")
	}
	if !sawDR {
		t.Error("no transfer-phase dirty ratio recorded on source")
	}
	// Target features: the VM is not there until activation, so VMCPU
	// stays zero until after TE.
	for _, fs := range r.TargetFeatures.Samples {
		if fs.At < r.Bounds.TE && fs.VMCPU != 0 {
			t.Fatalf("target reports VM CPU %v at %v, before activation", fs.VMCPU, fs.At)
		}
	}
}

func TestRunScenarioValidation(t *testing.T) {
	bad := cpuScenario(migration.Live, -1, 0, 1)
	if _, err := Run(bad); err == nil {
		t.Error("negative load VMs must fail")
	}
	badType := Scenario{MigratingType: "bogus"}
	if _, err := Run(badType); err == nil {
		t.Error("unknown migrating type must fail")
	}
	badPair := cpuScenario(migration.Live, 0, 0, 1)
	badPair.Pair = "x-y"
	if _, err := Run(badPair); err == nil {
		t.Error("unknown pair must fail")
	}
}

func TestRunOnXeonPair(t *testing.T) {
	sc := cpuScenario(migration.NonLive, 0, 0, 10)
	sc.Pair = hw.PairO
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// The o-pair idles lower; its baseline must sit below the m-pair's.
	m, err := Run(cpuScenario(migration.NonLive, 0, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	oBase := r.Source.Slice(0, r.Bounds.MS-time.Nanosecond).MeanPower()
	mBase := m.Source.Slice(0, m.Bounds.MS-time.Nanosecond).MeanPower()
	if oBase >= mBase {
		t.Errorf("o-pair baseline %v must be below m-pair %v", oBase, mBase)
	}
	// And its slower migration path lengthens the transfer.
	if (r.Bounds.TE - r.Bounds.TS) <= (m.Bounds.TE - m.Bounds.TS) {
		t.Errorf("o-pair transfer %v should exceed m-pair %v", r.Bounds.TE-r.Bounds.TS, m.Bounds.TE-m.Bounds.TS)
	}
}

func TestRunRepeatedConverges(t *testing.T) {
	runs, err := (*Cache)(nil).RunRepeatedCtx(context.Background(), cpuScenario(migration.NonLive, 0, 0, 11), 3, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) < 3 {
		t.Errorf("got %d runs, want ≥ 3", len(runs))
	}
	// All runs share the scenario but differ in seed.
	if runs[0].Scenario.Seed == runs[1].Scenario.Seed {
		t.Error("derived seeds must differ per run")
	}
	if _, err := (*Cache)(nil).RunRepeatedCtx(context.Background(), cpuScenario(migration.NonLive, 0, 0, 1), 1, 0.5, 0); err == nil {
		t.Error("minRuns < 2 must fail")
	}
}
