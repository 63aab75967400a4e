package wavm3

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/vm"
)

// sharedEstimator trains one quick estimator for the whole test file; the
// campaign behind it costs a few seconds.
var (
	estOnce sync.Once
	est     *Estimator
	estErr  error
)

func quickEstimator(t *testing.T) *Estimator {
	t.Helper()
	if testing.Short() {
		t.Skip("estimator training is a campaign-scale test")
	}
	estOnce.Do(func() {
		est, estErr = TrainEstimator(TrainingConfig{Quick: true, RunsPerPoint: 2, Seed: 7})
	})
	if estErr != nil {
		t.Fatal(estErr)
	}
	return est
}

func TestPlanValidate(t *testing.T) {
	good := Plan{Kind: Live, VMMemoryBytes: 4 << 30, VMBusyVCPUs: 1, DirtyRatio: 0.5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	bad := []Plan{
		{},
		{VMMemoryBytes: -1},
		{VMMemoryBytes: 1, DirtyRatio: 2},
		{VMMemoryBytes: 1, VMBusyVCPUs: -1},
		{VMMemoryBytes: 1, SourceBusyThreads: -1},
		{VMMemoryBytes: 1, BandwidthBitsPerSec: -5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
}

func TestEstimateBasics(t *testing.T) {
	e := quickEstimator(t)
	plan := Plan{
		Kind:          Live,
		VMMemoryBytes: 4 << 30,
		VMBusyVCPUs:   1,
		DirtyRatio:    0.05,
	}
	est, err := e.Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if est.Source <= 0 || est.Target <= 0 {
		t.Fatalf("non-positive energies: %+v", est)
	}
	if est.Total() != est.Source+est.Target {
		t.Error("total mismatch")
	}
	// A 4 GiB transfer at several hundred Mbit/s takes tens of seconds.
	if est.Duration.Seconds() < 20 || est.Duration.Seconds() > 600 {
		t.Errorf("duration = %v, implausible", est.Duration)
	}
	if est.TransferBytes < 4<<30 {
		t.Errorf("transfer bytes = %d, must cover the image", est.TransferBytes)
	}
	if _, err := e.Estimate(Plan{}); err == nil {
		t.Error("invalid plan must fail")
	}
}

func TestEstimateMonotoneInDirtyRatio(t *testing.T) {
	e := quickEstimator(t)
	base := Plan{Kind: Live, VMMemoryBytes: 4 << 30, VMBusyVCPUs: 1}
	lo := base
	lo.DirtyRatio = 0.05
	hi := base
	hi.DirtyRatio = 0.95
	elo, err := e.Estimate(lo)
	if err != nil {
		t.Fatal(err)
	}
	ehi, err := e.Estimate(hi)
	if err != nil {
		t.Fatal(err)
	}
	// Higher dirty ratio → more retransmission → longer, costlier migration.
	if ehi.TransferBytes <= elo.TransferBytes {
		t.Errorf("bytes: hi %d !> lo %d", ehi.TransferBytes, elo.TransferBytes)
	}
	if ehi.Duration <= elo.Duration {
		t.Errorf("duration: hi %v !> lo %v", ehi.Duration, elo.Duration)
	}
	if ehi.Total() <= elo.Total() {
		t.Errorf("energy: hi %v !> lo %v", ehi.Total(), elo.Total())
	}
}

// TestEstimateMonotoneInHostLoad: more load on either host never makes a
// migration cheaper. Over a grid of both kinds, four memory sizes, five
// dirty ratios, three guest loads and four loads of the other host, each
// host's load sweeps from idle to the 32 threads of an m01 less the
// guest's vCPUs; no one-thread step may lower the predicted total. A
// saturated source throttles the migration helper, so it also stretches
// the migration.
func TestEstimateMonotoneInHostLoad(t *testing.T) {
	e := quickEstimator(t)
	idle := Plan{Kind: NonLive, VMMemoryBytes: 4 << 30}
	loaded := idle
	loaded.SourceBusyThreads = 32
	ei, err := e.Estimate(idle)
	if err != nil {
		t.Fatal(err)
	}
	el, err := e.Estimate(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if el.Duration <= ei.Duration {
		t.Errorf("loaded-source duration %v !> idle %v", el.Duration, ei.Duration)
	}
	if el.Total() <= ei.Total() {
		t.Errorf("loaded-source energy %v !> idle %v", el.Total(), ei.Total())
	}

	lowered := map[string]int{}
	for _, kind := range []Kind{NonLive, Live} {
		for _, gib := range []int64{1, 2, 4, 8} {
			for _, dr := range []float64{0, 0.05, 0.3, 0.55, 0.95} {
				for _, busy := range []float64{0, 1, 4} {
					for _, other := range []float64{0, 8, 16, 28} {
						for _, side := range []string{"target", "source"} {
							var prev Estimate
							for load := 0.0; load <= 32-busy; load++ {
								p := Plan{Kind: kind, VMMemoryBytes: gib << 30, VMBusyVCPUs: busy, DirtyRatio: dr,
									SourceBusyThreads: other, TargetBusyThreads: load}
								if side == "source" {
									p.SourceBusyThreads, p.TargetBusyThreads = load, other
								}
								est, err := e.Estimate(p)
								if err != nil {
									t.Fatal(err)
								}
								if load > 0 && est.Total() < prev.Total() {
									if lowered[side]++; lowered[side] <= 3 {
										t.Errorf("%s load %v lowers the total from %v to %v: %+v", side, load, prev.Total(), est.Total(), p)
									}
								}
								prev = est
							}
						}
					}
				}
			}
		}
	}
	if len(lowered) > 0 {
		t.Errorf("one-thread load steps that lower the total, by host: %v", lowered)
	}
}

func TestEstimateNonLiveIgnoresDirtyExpansion(t *testing.T) {
	e := quickEstimator(t)
	p := Plan{Kind: NonLive, VMMemoryBytes: 4 << 30, DirtyRatio: 0.95}
	est, err := e.Estimate(p)
	if err != nil {
		t.Fatal(err)
	}
	if est.TransferBytes != 4<<30 {
		t.Errorf("non-live transfer = %d bytes, want exactly the image", est.TransferBytes)
	}
}

func TestCompareBaselinesOrdering(t *testing.T) {
	e := quickEstimator(t)
	res, err := e.CompareBaselines(Live)
	if err != nil {
		t.Fatal(err)
	}
	for _, host := range []string{"Source", "Target"} {
		w := res["WAVM3"][host]
		if w <= 0 {
			t.Fatalf("missing WAVM3 NRMSE for %s", host)
		}
		for _, other := range []string{"LIU", "STRUNK"} {
			if res[other][host] <= w {
				t.Errorf("%s live: %s NRMSE %.3f should exceed WAVM3 %.3f", host, other, res[other][host], w)
			}
		}
	}
}

func TestTrainBaselines(t *testing.T) {
	e := quickEstimator(t)
	h, l, s, err := e.TrainBaselines()
	if err != nil {
		t.Fatal(err)
	}
	if h.Name() != "HUANG" || l.Name() != "LIU" || s.Name() != "STRUNK" {
		t.Error("baseline identities wrong")
	}
}

func TestEstimatorMeta(t *testing.T) {
	e := quickEstimator(t)
	if e.Pair() != PairOpteron {
		t.Errorf("pair = %s", e.Pair())
	}
	if !strings.Contains(e.String(), "m01-m02") {
		t.Errorf("String = %q", e.String())
	}
	if e.Suite() == nil {
		t.Error("suite must be accessible")
	}
}

func TestSimulateFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	run, err := Simulate(Scenario{
		Kind:          NonLive,
		MigratingType: vm.TypeMigratingCPU,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.SourceEnergy.Total() <= 0 {
		t.Error("simulation produced no energy")
	}
	runs, err := SimulateRepeated(Scenario{
		Kind:          NonLive,
		MigratingType: vm.TypeMigratingCPU,
		Seed:          4,
	}, 2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) < 2 {
		t.Errorf("repeated runs = %d, want ≥ 2", len(runs))
	}
}

// TestSimulateRepeatedRefusesFloorAboveCap: a repeat floor the run cap
// cannot meet is refused, where it used to run the capped 50 runs and
// report no error.
func TestSimulateRepeatedRefusesFloorAboveCap(t *testing.T) {
	runs, err := SimulateRepeated(Scenario{Kind: NonLive, MigratingType: vm.TypeMigratingCPU, Seed: 4}, 60, 0.1)
	if err == nil {
		t.Fatalf("a floor of 60 runs returned %d runs and no error", len(runs))
	}
}

func TestPlanConsolidation(t *testing.T) {
	e := quickEstimator(t)
	hosts := []HostState{
		{Name: "a", Threads: 32, MemBytes: GiB(32), IdlePower: 440, VMs: []VMState{
			{Name: "db", MemBytes: GiB(4), BusyVCPUs: 8, DirtyRatio: 0.6},
		}},
		{Name: "b", Threads: 32, MemBytes: GiB(32), IdlePower: 440, VMs: []VMState{
			{Name: "batch", MemBytes: GiB(4), BusyVCPUs: 6, DirtyRatio: 0.05},
		}},
		{Name: "c", Threads: 32, MemBytes: GiB(32), IdlePower: 440, VMs: []VMState{
			{Name: "cache", MemBytes: GiB(4), BusyVCPUs: 2, DirtyRatio: 0.9},
		}},
	}
	plan, err := e.PlanConsolidation(hosts, ConsolidationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.FreedHosts) == 0 {
		t.Fatal("energy-aware plan freed no hosts")
	}
	if plan.MigrationEnergy <= 0 {
		t.Error("plan has no migration cost")
	}
	pb, err := plan.Payback()
	if err != nil {
		t.Fatal(err)
	}
	if pb <= 0 || pb > time.Hour {
		t.Errorf("payback = %v, implausible", pb)
	}
	// The FFD baseline also runs and prices its moves.
	ffd, err := e.PlanConsolidationFFD(hosts, ConsolidationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ffd.Moves {
		if m.Cost.Energy <= 0 {
			t.Errorf("FFD move %v has no price", m)
		}
	}
}

// TestEstimateMatchesSimulation closes the loop: the estimator's
// closed-form per-phase prediction must land near what the full simulator
// actually measures for an equivalent scenario. This is the end-to-end
// check that the trained model plus the duration heuristics are usable for
// real decisions, not just for fitting their own training data.
func TestEstimateMatchesSimulation(t *testing.T) {
	e := quickEstimator(t)
	cases := []struct {
		name string
		plan Plan
		sc   Scenario
	}{
		{
			name: "non-live idle hosts",
			plan: Plan{Kind: NonLive, VMMemoryBytes: 4 << 30, VMBusyVCPUs: 4},
			sc: Scenario{
				Kind:          NonLive,
				MigratingType: vm.TypeMigratingCPU,
				Seed:          51,
			},
		},
		{
			name: "non-live loaded source",
			plan: Plan{Kind: NonLive, VMMemoryBytes: 4 << 30, VMBusyVCPUs: 4, SourceBusyThreads: 20},
			sc: Scenario{
				Kind:          NonLive,
				MigratingType: vm.TypeMigratingCPU,
				SourceLoadVMs: 5, // 5 × 4 vCPUs = 20 busy threads
				Seed:          52,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			est, err := e.Estimate(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			run, err := Simulate(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			measured := float64(run.SourceEnergy.Total() + run.TargetEnergy.Total())
			predicted := float64(est.Total())
			rel := (predicted - measured) / measured
			if rel < -0.3 || rel > 0.3 {
				t.Errorf("prediction %0.f J vs measured %0.f J: off by %.0f%%, want within ±30%%",
					predicted, measured, rel*100)
			}
			// Duration should be the right order of magnitude too.
			simDur := (run.Bounds.ME - run.Bounds.MS).Seconds()
			if d := est.Duration.Seconds(); d < simDur*0.6 || d > simDur*1.6 {
				t.Errorf("predicted duration %.0fs vs simulated %.0fs", d, simDur)
			}
		})
	}
}
