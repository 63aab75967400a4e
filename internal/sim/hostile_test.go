package sim_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
)

// hostileSubset is the non-fleet library subset the hostile-store test
// renders: thirteen scenario files whose kernel runs exercise every
// store operation without the cluster fleets' run time.
var hostileSubset = []string{
	"c1-*.json", "c2-*.json", "memstorm-*.json",
	"hotcold-db.json", "diurnal-day.json", "burst-web.json",
	"ramp-batch.json", "nonlive-baseline.json", "overcommit-stress.json",
	"hetero-upgrade.json", "meter-1hz.json",
}

// TestHostileStoreLibrarySubset is the store tier's end-to-end gate. It
// renders the subset through service.Exec twice: once on a memory-only
// cache, and once on a fresh cache directory whose store fails 90% of
// its operations for the first second, under the resilience policy the
// commands build from -cache-op-timeout 250ms -cache-breaker 3
// -cache-breaker-cooldown 100ms (and the default two retries). The
// outage must trip the breaker, the healed store must close it again
// before the session's last operations, no injected error may read as
// corruption, and the bytes must not change. The hostile pass runs on
// one worker, so on any machine it outlasts the fault window and the
// breaker's re-close is observed rather than raced.
func TestHostileStoreLibrarySubset(t *testing.T) {
	if testing.Short() {
		t.Skip("renders thirteen library scenarios twice")
	}
	var specs []*scenario.Spec
	for _, pattern := range hostileSubset {
		paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", pattern))
		if err != nil || len(paths) == 0 {
			t.Fatalf("subset pattern %q matches no scenario (%v)", pattern, err)
		}
		for _, p := range paths {
			s, err := scenario.Load(p)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, s)
		}
	}
	if len(specs) != 13 {
		t.Fatalf("subset resolves to %d scenario files, want 13", len(specs))
	}
	render := func(cache *sim.Cache, workers int) []byte {
		var out bytes.Buffer
		for _, s := range specs {
			c, err := s.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := service.Exec(context.Background(), &out, c, workers, cache); err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
		}
		return out.Bytes()
	}
	clean := render(sim.NewCache(0), 0)

	dir, err := sim.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faulty := sim.NewFaultStore(dir, sim.FaultConfig{
		Seed: 7, ErrRate: 0.9, Latency: time.Millisecond, FaultFor: time.Second,
	})
	cache := sim.NewCacheWithStore(0, sim.NewResilientStore(faulty, sim.ResilienceConfig{
		OpTimeout:        250 * time.Millisecond,
		Retries:          2,
		BreakerThreshold: 3,
		BreakerCooldown:  100 * time.Millisecond,
		AsyncPublish:     true,
	}))
	start := time.Now()
	hostile := render(cache, 1)
	if err := cache.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	st := cache.Snapshot()
	t.Logf("hostile pass in %v: %d kernel runs, %d store errors, %d retries, %d timeouts, %d breaker opens (%s), %d quarantined, %d publish drops",
		time.Since(start).Round(time.Millisecond), st.KernelRuns, st.StoreErrors, st.Retries, st.Timeouts, st.BreakerOpens, st.BreakerState, st.Quarantined, st.PublishDrops)

	if !bytes.Equal(clean, hostile) {
		t.Error("output under the hostile store differs from the clean run")
	}
	if st.BreakerOpens < 1 {
		t.Error("the breaker never opened during the fault window")
	}
	if st.BreakerState != "closed" {
		t.Errorf("breaker ends %q, want closed once the store heals", st.BreakerState)
	}
	if st.Quarantined != 0 {
		t.Errorf("%d artefacts quarantined: an injected error read as corruption", st.Quarantined)
	}
}
