package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/vm"
)

// PointResult bundles the repeated runs of one experimental point.
type PointResult struct {
	Point Point
	Runs  []*sim.RunResult
}

// Campaign is the outcome of running one or more families on a pair:
// the raw per-point runs plus the flattened regression dataset.
type Campaign struct {
	Config  Config
	Results []*PointResult
	Dataset *core.Dataset
}

// RunFamily executes every point of one family under the config and
// returns its point results (no dataset assembly). Points fan out across
// cfg.Workers; when the family has fewer points than workers, the spare
// budget parallelises the repeated runs inside each point. Point i always
// derives its seed as cfg.Seed + i*7919, so every worker count produces
// the bit-identical result sequence.
func RunFamily(cfg Config, f Family) ([]*PointResult, error) {
	cfg = cfg.withDefaults()
	pts, err := cfg.points(f)
	if err != nil {
		return nil, err
	}
	pointWorkers, runWorkers := parallel.Split(cfg.Workers, len(pts))
	return parallel.MapCtx(cfg.context(), pointWorkers, len(pts), func(i int) (*PointResult, error) {
		p := pts[i]
		sc, err := p.Scenario(cfg.Pair, cfg.Seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		sc = shrinkTimings(sc)
		runs, err := cfg.Cache.RunRepeatedCtx(cfg.context(), sc, cfg.MinRuns, cfg.VarianceTol, runWorkers)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s point %s: %w", f, p.Label(), err)
		}
		return &PointResult{Point: p, Runs: runs}, nil
	})
}

// RunCampaign executes the given families (all five when nil) and builds
// the regression dataset from every run. Families execute in order — each
// one already fans its points out across the full cfg.Workers budget — and
// dataset assembly walks the results in family/point/run order, so the
// dataset row order is independent of the worker count.
func RunCampaign(cfg Config, families ...Family) (*Campaign, error) {
	cfg = cfg.withDefaults()
	if len(families) == 0 {
		families = Families()
	}
	camp := &Campaign{Config: cfg, Dataset: &core.Dataset{}}
	for _, f := range families {
		prs, err := RunFamily(cfg, f)
		if err != nil {
			return nil, err
		}
		camp.Results = append(camp.Results, prs...)
	}
	for _, pr := range camp.Results {
		for i, run := range pr.Runs {
			id := fmt.Sprintf("%s#%d", run.Scenario.Name, i)
			for _, role := range core.Roles() {
				rec, err := RecordFromRun(run, role, id)
				if err != nil {
					return nil, err
				}
				if err := camp.Dataset.Add(rec); err != nil {
					return nil, err
				}
			}
		}
	}
	return camp, nil
}

// RecordFromRun converts one simulated run into a regression record for
// one host role: aligned observations inside [ms, me], the measured
// migration energy, and the per-run aggregates the baselines use.
func RecordFromRun(run *sim.RunResult, role core.Role, id string) (*core.RunRecord, error) {
	pt, ft := run.Source, run.SourceFeatures
	energy := run.SourceEnergy
	if role == core.Target {
		pt, ft = run.Target, run.TargetFeatures
		energy = run.TargetEnergy
	}
	obs, err := trace.Align(pt, ft, run.Bounds)
	if err != nil {
		return nil, fmt.Errorf("experiments: aligning %s/%v: %w", id, role, err)
	}
	typ, err := vm.Lookup(run.Scenario.MigratingType)
	if err != nil {
		return nil, err
	}
	rec := &core.RunRecord{
		Pair:           run.Scenario.Pair,
		Kind:           run.Scenario.Kind,
		Role:           role,
		RunID:          fmt.Sprintf("%s/%v", id, role),
		Scenario:       run.Scenario.Name,
		Obs:            obs,
		MeasuredEnergy: energy.Total(),
		BytesSent:      run.BytesSent,
		VMMem:          typ.RAM,
		MeanBandwidth:  meanTransferBandwidth(obs),
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return rec, nil
}

// meanTransferBandwidth averages BW(S,T,t) over the transfer-phase
// observations with a positive bandwidth (STRUNK's BW(S,T) input),
// summing in observation order as stats.Mean does.
func meanTransferBandwidth(obs []trace.Observation) units.BitsPerSecond {
	sum, n := 0.0, 0
	for _, o := range obs {
		if o.Phase == trace.PhaseTransfer && o.Bandwidth > 0 {
			sum += float64(o.Bandwidth)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return units.BitsPerSecond(sum / float64(n))
}
