package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/migration"
	"repro/internal/vm"
	"repro/internal/workload"
)

// repeatedScenario is a small, fast scenario for repeated-run tests.
func repeatedScenario(seed int64) Scenario {
	return Scenario{
		Kind:             migration.NonLive,
		MigratingType:    vm.TypeMigratingCPU,
		MigratingProfile: workload.MatrixMultProfile(),
		Seed:             seed,
	}
}

// TestRunRepeatedWorkersDeterministic checks the repeated-run driver's
// contract: every worker count returns the same number of runs, with the
// same derived seeds and the same measured energies, as the sequential
// driver — the speculative batches must truncate identically.
func TestRunRepeatedWorkersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	ref, err := (*Cache)(nil).RunRepeatedCtx(context.Background(), repeatedScenario(21), 3, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) < 3 {
		t.Fatalf("reference produced %d runs, want ≥ 3", len(ref))
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := (*Cache)(nil).RunRepeatedCtx(context.Background(), repeatedScenario(21), 3, 0.5, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d runs, sequential %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i].Scenario.Seed != ref[i].Scenario.Seed {
				t.Fatalf("workers=%d run %d: seed %d, want %d",
					workers, i, got[i].Scenario.Seed, ref[i].Scenario.Seed)
			}
			if got[i].SourceEnergy != ref[i].SourceEnergy || got[i].TargetEnergy != ref[i].TargetEnergy {
				t.Fatalf("workers=%d run %d: energies differ from sequential", workers, i)
			}
			if !reflect.DeepEqual(got[i].Bounds, ref[i].Bounds) {
				t.Fatalf("workers=%d run %d: phase boundaries differ", workers, i)
			}
		}
	}
}

// TestRunRepeatedSeedDerivation pins the per-run seed rule: run i always
// gets sc.Seed + i*1009, independent of the worker count.
func TestRunRepeatedSeedDerivation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	runs, err := (*Cache)(nil).RunRepeatedCtx(context.Background(), repeatedScenario(5), 2, 0.9, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		want := int64(5 + i*1009)
		if r.Scenario.Seed != want {
			t.Errorf("run %d seed = %d, want %d", i, r.Scenario.Seed, want)
		}
	}
}

// TestRunRepeatedRefusesFloorAboveCap: a repeat floor above MaxRuns can
// never be met, since the sequence stops at MaxRuns; both repeat drivers
// refuse it before any run, where they used to return MaxRuns runs.
func TestRunRepeatedRefusesFloorAboveCap(t *testing.T) {
	c := NewCache(0)
	for name, repeat := range map[string]func(context.Context, Scenario, int, float64, int) ([]*RunResult, error){
		"RunRepeatedCtx":     c.RunRepeatedCtx,
		"SummaryRepeatedCtx": c.SummaryRepeatedCtx,
	} {
		runs, err := repeat(context.Background(), repeatedScenario(3), MaxRuns+10, 0.1, 2)
		if err == nil || !strings.Contains(err.Error(), "exceeds the cap") {
			t.Errorf("%s with a floor of %d: %d runs, error %v; want a refusal", name, MaxRuns+10, len(runs), err)
		}
	}
	if st := c.Snapshot(); st.KernelRuns != 0 {
		t.Errorf("refused floors ran %d kernels, want 0", st.KernelRuns)
	}
}
