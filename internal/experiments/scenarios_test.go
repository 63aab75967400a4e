package experiments

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// scenListForTest builds two cheap, distinct scenarios.
func scenListForTest() []sim.Scenario {
	mk := func(name string, seed int64, loads int) sim.Scenario {
		return sim.Scenario{
			Name: name, Seed: seed, SourceLoadVMs: loads,
			MigratingProfile: workload.MatrixMultProfile(),
			PreMigration:     11 * time.Second, PostMigration: 6 * time.Second,
		}
	}
	return []sim.Scenario{mk("scen/a", 101, 0), mk("scen/b", 202, 1)}
}

func TestRunScenariosDeterministicAcrossWorkersAndCache(t *testing.T) {
	cfg := Config{MinRuns: 2, VarianceTol: 0.9, Seed: 1, Workers: 1}
	seq, err := RunScenarios(cfg, scenListForTest()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 2 {
		t.Fatalf("got %d results", len(seq))
	}

	cfg.Workers = 8
	cfg.Cache = sim.NewCache(0)
	par, err := RunScenarios(cfg, scenListForTest()...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if len(seq[i].Runs) != len(par[i].Runs) {
			t.Fatalf("scenario %d: %d vs %d runs", i, len(seq[i].Runs), len(par[i].Runs))
		}
		for j := range seq[i].Runs {
			a, b := seq[i].Runs[j], par[i].Runs[j]
			if a.SourceEnergy != b.SourceEnergy || a.TargetEnergy != b.TargetEnergy ||
				a.BytesSent != b.BytesSent || a.Bounds != b.Bounds {
				t.Errorf("scenario %d run %d differs between sequential-uncached and parallel-cached", i, j)
			}
		}
	}
}

func TestRunScenariosEmpty(t *testing.T) {
	if _, err := RunScenarios(Config{}); err == nil {
		t.Fatal("no scenarios must be an error")
	}
}

func TestRunScenariosDerivesMissingSeeds(t *testing.T) {
	scs := scenListForTest()
	scs[1].Seed = 0 // forgotten seed: derived from the list position
	cfg := Config{MinRuns: 2, VarianceTol: 0.9, Seed: 7, Workers: 1}
	a, err := RunScenarios(cfg, scs...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenarios(cfg, scs...)
	if err != nil {
		t.Fatal(err)
	}
	if a[1].Runs[0].Scenario.Seed != b[1].Runs[0].Scenario.Seed {
		t.Error("derived seed not stable")
	}
	if a[1].Runs[0].Scenario.Seed == 0 {
		t.Error("seed not derived")
	}
}
