// Package wavm3 is the public API of the WAVM3 reproduction: a
// workload-aware energy model for virtual machine migration after
// De Maio, Kecskemeti and Prodan (IEEE CLUSTER 2015).
//
// The package exposes three layers:
//
//   - Simulate / SimulateRepeated run single migration experiments on the
//     simulated two-host Xen testbed and return measured traces and
//     energies.
//   - TrainEstimator runs a measurement campaign, fits the WAVM3 model
//     (and optionally the HUANG/LIU/STRUNK baselines) and returns an
//     Estimator.
//   - Estimator.Estimate answers the question the paper's model exists
//     for: "how much energy will this migration cost on the source and
//     target hosts?" — for a planned migration described by workload
//     features, before running it. The features are constant within
//     each phase, so the estimate is closed-form: each phase's predicted
//     power times its span (core.Model.Estimate).
//
// All estimates are joules at the AC side of the two hosts, covering the
// initiation, transfer and activation phases of the migration.
//
// # Concurrency
//
// Training campaigns fan their experimental points and repeated runs out
// across CPUs (TrainingConfig.Workers; 0 = runtime.NumCPU(), 1 =
// sequential). Parallelism never changes results: per-point and per-run
// seeds derive from indices alone and results are collected in order, so
// every worker count produces bit-identical datasets and coefficients.
// A trained Estimator is safe for concurrent use — any number of
// goroutines may call Estimate at once, including while Calibrate
// transports the model to another machine pair.
//
// # Run cache
//
// Simulated runs are pure functions of their physical scenario and seed,
// so training memoizes them in a bounded, concurrency-safe run cache.
// The campaign families overlap — every family revisits the zero-load
// baseline point — and each distinct (scenario, seed) block is simulated
// exactly once per training call. Determinism guarantee: a cache hit
// returns a result bit-identical to what a fresh simulation would have
// produced (results are immutable and the cache key excludes only the
// display label), so caching, like parallelism, never changes datasets,
// coefficients or estimates.
package wavm3

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/migration"
	"repro/internal/sim"
	"repro/internal/units"
)

// Kind selects the migration mechanism.
type Kind = migration.Kind

// Migration kinds.
const (
	NonLive = migration.NonLive
	Live    = migration.Live
)

// Machine pairs of the reproduced testbed.
const (
	PairOpteron = hw.PairM // m01–m02: 32-thread Opteron 8356 pair
	PairXeon    = hw.PairO // o1–o2: 40-thread Xeon E5-2690 pair
)

// Joules re-exports the energy unit.
type Joules = units.Joules

// Watts re-exports the power unit.
type Watts = units.Watts

// Estimate is the per-host energy prediction for one migration.
type Estimate = core.Estimate

// Plan describes a migration whose energy is to be estimated, in the
// model's feature terms.
type Plan = core.Plan

// Estimator is a trained WAVM3 model pair (live + non-live) bound to the
// machine pair it was trained on.
//
// An Estimator is safe for concurrent use: any number of goroutines may
// call Estimate (and the other read methods) at once, including while
// another goroutine Calibrates the estimator onto a different machine
// pair. Estimate snapshots the fitted state once on entry, so a
// concurrent Calibrate never tears a prediction — every call answers
// entirely from one consistent model.
type Estimator struct {
	mu       sync.RWMutex
	pair     string
	src, dst hw.MachineSpec
	live     *core.Model
	nonlive  *core.Model

	// Training-time state, immutable after construction: Calibrate always
	// derives the current models from these so repeated calibrations
	// compose (and calibrating back to the training pair is exact).
	trainSrc              hw.MachineSpec
	baseLive, baseNonlive *core.Model

	suite *experiments.Suite
}

// fitted is the immutable snapshot Estimate computes from: the fields an
// Estimate call reads, captured under one lock acquisition.
type fitted struct {
	src, dst hw.MachineSpec
	live     *core.Model
	nonlive  *core.Model
}

// snapshot captures the current fitted state. The models themselves are
// never mutated after training (Calibrate swaps in bias-shifted copies),
// so sharing the pointers is safe.
func (e *Estimator) snapshot() fitted {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return fitted{src: e.src, dst: e.dst, live: e.live, nonlive: e.nonlive}
}

// TrainingConfig controls the campaign the estimator is trained on.
type TrainingConfig struct {
	// Pair selects the machine pair (PairOpteron by default).
	Pair string
	// RunsPerPoint is the repeat count per experimental point (the paper
	// used ≥ 10; smaller values train faster at some accuracy cost), at
	// most 50: a point repeats no more often.
	RunsPerPoint int
	// Quick trims the sweeps to their extreme points. Training drops from
	// minutes to seconds; coefficient quality degrades gracefully.
	Quick bool
	// Seed pins the campaign's randomness.
	Seed int64
	// Workers bounds the training campaign's concurrency (0 means
	// runtime.NumCPU(), 1 forces the sequential runner). The fitted
	// coefficients are bit-identical for every value; workers only changes
	// training wall-clock.
	Workers int
}

// TrainEstimator runs a CPULOAD+MEMLOAD campaign on the simulated testbed
// and fits the WAVM3 models.
func TrainEstimator(cfg TrainingConfig) (*Estimator, error) {
	if cfg.Pair == "" {
		cfg.Pair = hw.PairM
	}
	if cfg.RunsPerPoint <= 0 {
		cfg.RunsPerPoint = 3
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	ecfg := experiments.Config{
		Pair:        cfg.Pair,
		MinRuns:     cfg.RunsPerPoint,
		VarianceTol: 0.5,
		Seed:        cfg.Seed,
		Workers:     cfg.Workers,
		Cache:       sim.NewCache(0),
	}
	if cfg.Quick {
		ecfg.LoadLevels = []int{0, 5, 8}
		ecfg.DirtyLevels = []units.Fraction{0.05, 0.55, 0.95}
	}
	camp, err := experiments.RunCampaign(ecfg,
		experiments.CPULoadSource, experiments.CPULoadTarget, experiments.MemLoadVM)
	if err != nil {
		return nil, err
	}
	suite, err := experiments.BuildSuite(camp, nil)
	if err != nil {
		return nil, err
	}
	src, dst, err := hw.Pair(cfg.Pair)
	if err != nil {
		return nil, err
	}
	return &Estimator{
		pair: cfg.Pair, src: src, dst: dst,
		live: suite.WAVM3Live, nonlive: suite.WAVM3NonLive,
		trainSrc: src,
		baseLive: suite.WAVM3Live, baseNonlive: suite.WAVM3NonLive,
		suite: suite,
	}, nil
}

// Pair returns the machine pair the estimator currently predicts for.
func (e *Estimator) Pair() string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.pair
}

// Calibrate transports the estimator onto another machine pair using the
// paper's C1→C2 idle-power bias correction: the phase constants are
// shifted by the idle-power difference between the new pair and the
// training pair, while the slopes stay as fitted. Calibrating back to the
// training pair restores the original constants exactly. The swap is
// atomic with respect to concurrent Estimate calls — each in-flight
// Estimate finishes against the model set it started with.
func (e *Estimator) Calibrate(pair string) error {
	src, dst, err := hw.Pair(pair)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	delta := src.IdlePower() - e.trainSrc.IdlePower()
	// Copy-on-calibrate: the fitted base models are never mutated, so
	// snapshots taken by concurrent Estimate calls stay valid.
	e.live = e.baseLive.WithBiasShift(delta)
	e.nonlive = e.baseNonlive.WithBiasShift(delta)
	e.pair, e.src, e.dst = pair, src, dst
	return nil
}

// Estimate predicts the migration energy of a plan on the estimator's
// machine pair: the live or non-live model, by the plan's kind, priced in
// closed form over the plan's initiation, transfer and activation phases
// (core.Model.Estimate).
func (e *Estimator) Estimate(p Plan) (Estimate, error) {
	f := e.snapshot()
	model := f.nonlive
	if p.Kind == Live {
		model = f.live
	}
	return model.Estimate(p, f.src, f.dst)
}

// Suite exposes the underlying evaluation suite for advanced use (tables,
// baselines, datasets).
func (e *Estimator) Suite() *experiments.Suite { return e.suite }

// CompareBaselines evaluates WAVM3 against HUANG, LIU and STRUNK on the
// estimator's held-out test runs, returning NRMSE per model for the given
// kind and role name ("Source"/"Target").
func (e *Estimator) CompareBaselines(kind Kind) (map[string]map[string]float64, error) {
	rows, err := e.suite.Table7()
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]float64)
	for _, r := range rows {
		if out[r.Model] == nil {
			out[r.Model] = make(map[string]float64)
		}
		if kind == Live {
			out[r.Model][r.Host] = r.Live.NRMSE
		} else {
			out[r.Model][r.Host] = r.NonLive.NRMSE
		}
	}
	return out, nil
}

// Simulate runs one migration experiment on the simulated testbed.
type SimulationResult = sim.RunResult

// Scenario re-exports the simulation scenario description.
type Scenario = sim.Scenario

// Simulate executes one scenario (a thin wrapper over the internal
// simulator for example programs and exploratory use).
func Simulate(sc Scenario) (*SimulationResult, error) { return sim.Run(sc) }

// SimulateRepeated repeats a scenario until the paper's variance rule
// holds (≥ minRuns runs, variance change < tol), or 50 runs; a minRuns
// above 50 is refused. Repeats fan out across
// all CPUs; the returned run sequence is bit-identical to a sequential
// execution because run seeds derive from the run index alone and the
// variance rule is applied to run prefixes in index order.
func SimulateRepeated(sc Scenario, minRuns int, tol float64) ([]*SimulationResult, error) {
	return (*sim.Cache)(nil).RunRepeatedCtx(context.Background(), sc, minRuns, tol, 0)
}

// TrainBaselines gives example programs access to baseline models trained
// on the estimator's training split.
func (e *Estimator) TrainBaselines() (core.EnergyModel, core.EnergyModel, core.EnergyModel, error) {
	h, err := baseline.TrainHuang(e.suite.TrainM)
	if err != nil {
		return nil, nil, nil, err
	}
	l, err := baseline.TrainLiu(e.suite.TrainM)
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := baseline.TrainStrunk(e.suite.TrainM)
	if err != nil {
		return nil, nil, nil, err
	}
	return h, l, s, nil
}

// String describes the estimator.
func (e *Estimator) String() string {
	return fmt.Sprintf("wavm3.Estimator(pair=%s)", e.Pair())
}
