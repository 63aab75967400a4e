package experiments

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/sim"
)

// ScenarioResult bundles the repeated runs of one externally supplied
// scenario (typically compiled from the internal/scenario library).
type ScenarioResult struct {
	Scenario sim.Scenario
	Runs     []*sim.RunResult
}

// RunScenarios executes loaded scenarios under the config's repeat,
// worker and cache policy — the campaign machinery of RunFamily applied
// to a caller-supplied scenario list instead of a Table IIa family.
// Scenarios fan out across cfg.Workers with the spare budget parallelising
// the repeats inside each scenario, and every scenario keeps its own seed
// (deriving one from the list position only when it has none), so results
// are bit-identical for every worker count and cache setting. Each run
// is answered through the cache's summary lookup: a result carries the
// bounds, energies, bytes sent, rounds and downtime, and callers must not
// read its traces.
func RunScenarios(cfg Config, scs ...sim.Scenario) ([]*ScenarioResult, error) {
	cfg = cfg.withDefaults()
	if len(scs) == 0 {
		return nil, fmt.Errorf("experiments: no scenarios to run")
	}
	outer, inner := parallel.Split(cfg.Workers, len(scs))
	return parallel.MapCtx(cfg.context(), outer, len(scs), func(i int) (*ScenarioResult, error) {
		sc := scs[i]
		if sc.Seed == 0 {
			sc.Seed = cfg.Seed + int64(i)*7919
		}
		runs, err := cfg.Cache.SummaryRepeatedCtx(cfg.context(), sc, cfg.MinRuns, cfg.VarianceTol, inner)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %s: %w", sc.Name, err)
		}
		return &ScenarioResult{Scenario: sc, Runs: runs}, nil
	})
}
