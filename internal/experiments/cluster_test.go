package experiments

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/migration"
	"repro/internal/sim"
	"repro/internal/units"
)

// clusterFixture is a 2-move explicit timeline on one switch.
func clusterFixture() cluster.Config {
	return cluster.Config{
		Kind: migration.Live,
		Hosts: []cluster.Host{
			{Name: "a", Machine: "m01", VMs: []cluster.VM{
				{Name: "v1", MemBytes: 4 * units.GiB, BusyVCPUs: 4, DirtyRatio: 0.3},
			}},
			{Name: "b", Machine: "m01"},
			{Name: "c", Machine: "m01", VMs: []cluster.VM{
				{Name: "v2", MemBytes: 4 * units.GiB, BusyVCPUs: 2, DirtyRatio: 0.1},
			}},
		},
		Moves: []cluster.TimedMove{
			{VM: "v1", From: "a", To: "b"},
			{VM: "v2", From: "c", To: "b", At: 10 * time.Second},
		},
		Seed: 11,
	}
}

// TestRunClusterInheritsConfigPolicy: the experiments entry point hands
// the session's worker and cache budget to the engine and stays
// bit-identical to a direct sequential uncached run.
func TestRunClusterInheritsConfigPolicy(t *testing.T) {
	direct, err := cluster.Run(clusterFixture())
	if err != nil {
		t.Fatal(err)
	}
	cache := sim.NewCache(0)
	viaCfg, err := RunCluster(Config{Workers: 4, Cache: cache}, clusterFixture())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, viaCfg) {
		t.Error("RunCluster under workers+cache differs from the direct sequential run")
	}
	if cache.Snapshot().Misses == 0 {
		t.Error("the config's cache was not used")
	}
}
