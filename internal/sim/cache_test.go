package sim

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/migration"
	"repro/internal/vm"
)

func cacheScenario(seed int64) Scenario {
	return Scenario{
		Name:          "cache-a",
		Kind:          migration.NonLive,
		MigratingType: vm.TypeMigratingCPU,
		Seed:          seed,
	}
}

// TestCacheHitIsBitIdentical is the cache's core guarantee: a hit returns
// exactly what an uncached Run would have produced, label included.
func TestCacheHitIsBitIdentical(t *testing.T) {
	sc := cacheScenario(7)
	plain, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}

	c := NewCache(0)
	first, err := c.RunCtx(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	relabelled := sc
	relabelled.Name = "cache-b"
	hit, err := c.RunCtx(context.Background(), relabelled)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Snapshot(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1 (label must not split the key)", st.Hits, st.Misses)
	}

	if !reflect.DeepEqual(plain, first) {
		t.Error("cache miss result differs from a plain Run")
	}
	if hit.Scenario.Name != "cache-b" {
		t.Errorf("hit kept the memoized label %q", hit.Scenario.Name)
	}
	want := *plain
	want.Scenario.Name = "cache-b"
	if !reflect.DeepEqual(&want, hit) {
		t.Error("cache hit is not bit-identical to an uncached run")
	}
}

// TestCacheKeySeparatesPhysics ensures scenarios that differ physically
// never share an entry.
func TestCacheKeySeparatesPhysics(t *testing.T) {
	c := NewCache(0)
	if _, err := c.RunCtx(context.Background(), cacheScenario(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunCtx(context.Background(), cacheScenario(8)); err != nil { // different seed
		t.Fatal(err)
	}
	live := cacheScenario(7)
	live.Kind = migration.Live
	if _, err := c.RunCtx(context.Background(), live); err != nil {
		t.Fatal(err)
	}
	if st := c.Snapshot(); st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("stats = %d hits / %d misses, want 0/3", st.Hits, st.Misses)
	}
}

// TestCacheSingleflight hammers one key from many goroutines; every
// caller must get the same values and the scenario must simulate once.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(0)
	sc := cacheScenario(3)
	const callers = 8
	results := make([]*RunResult, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := c.RunCtx(context.Background(), sc)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	if misses := c.Snapshot().Misses; misses != 1 {
		t.Fatalf("%d misses, want 1 (singleflight)", misses)
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
}

// TestCacheBoundAndClear exercises LRU eviction and Clear.
func TestCacheBoundAndClear(t *testing.T) {
	c := NewCache(2)
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := c.RunCtx(context.Background(), cacheScenario(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Snapshot().Entries; n != 2 {
		t.Fatalf("cache holds %d entries, want bound 2", n)
	}
	// Seed 1 was evicted (least recent); seed 3 must still hit.
	if _, err := c.RunCtx(context.Background(), cacheScenario(3)); err != nil {
		t.Fatal(err)
	}
	if hits := c.Snapshot().Hits; hits != 1 {
		t.Fatalf("expected the most recent entry to survive eviction (hits = %d)", hits)
	}
	c.Clear()
	if n := c.Snapshot().Entries; n != 0 {
		t.Fatalf("Clear left %d entries", n)
	}
}

// TestCacheErrorNotMemoized verifies failed runs are retried, not served
// from memory.
func TestCacheErrorNotMemoized(t *testing.T) {
	c := NewCache(0)
	bad := cacheScenario(1)
	bad.SourceLoadVMs = -1
	for i := 0; i < 2; i++ {
		if _, err := c.RunCtx(context.Background(), bad); err == nil {
			t.Fatal("invalid scenario did not error")
		}
	}
	if n := c.Snapshot().Entries; n != 0 {
		t.Fatalf("failed run left %d cache entries", n)
	}
}

// TestNilCacheRuns proves the nil receiver degrades to plain execution.
func TestNilCacheRuns(t *testing.T) {
	var c *Cache
	r, err := c.RunCtx(context.Background(), cacheScenario(5))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(cacheScenario(5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, r) {
		t.Error("nil cache result differs from plain Run")
	}
	if c.Snapshot().Entries != 0 {
		t.Error("nil cache reported entries")
	}
	c.Clear() // must not panic
}
