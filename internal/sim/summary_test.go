package sim

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"
)

type lookupFunc func(*Cache, context.Context, Scenario) (*RunResult, error)

// lookups are the cache's two lookups, named after the decode mode each
// runs on a persistent-tier hit.
var lookups = []struct {
	name   string
	get    lookupFunc
	traces bool
}{{"full", (*Cache).RunCtx, true}, {"summary", (*Cache).SummaryCtx, false}}

// sameRun reports whether got is want as a disk hit of the lookup
// returns it: the whole result for RunCtx, the summary without traces
// for SummaryCtx.
func sameRun(got, want *RunResult, traces bool) bool {
	if traces {
		return reflect.DeepEqual(got, want)
	}
	return got.Source == nil && got.Target == nil && got.SourceFeatures == nil && got.TargetFeatures == nil &&
		slices.Equal(summaryWords(got), summaryWords(want))
}

// TestCacheSummaryEntryUpgrade pins the memory tier's mixing rule on one
// persistent cache. A SummaryCtx disk hit leaves a summary-only entry; a
// RunCtx of that key replaces it by reading the artefact again in full
// (a second disk hit, never a kernel run) and counts a miss. A full
// entry answers both lookups from memory. Every lookup here counts
// exactly one memory hit or one miss.
func TestCacheSummaryEntryUpgrade(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	up, down := diskScenario(61), diskScenario(62)
	want := map[int64]*RunResult{}
	publish := newDiskCache(t, dir)
	for _, sc := range []Scenario{up, down} {
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		want[sc.Seed] = res
		if _, err := publish.RunCtx(ctx, sc); err != nil {
			t.Fatal(err)
		}
	}

	c := newDiskCache(t, dir)
	var prev CacheStats
	for i, step := range []struct {
		what                   string
		sc                     Scenario
		traces                 bool
		hits, misses, diskHits uint64
		wantTraces             bool
	}{
		{"SummaryCtx of a cold key", up, false, 0, 1, 1, false},
		{"RunCtx after a summary hit", up, true, 0, 1, 1, true},
		{"SummaryCtx of the upgraded key", up, false, 1, 0, 0, true},
		{"RunCtx of the upgraded key", up, true, 1, 0, 0, true},
		{"RunCtx of a cold key", down, true, 0, 1, 1, true},
		{"SummaryCtx after a full hit", down, false, 1, 0, 0, true},
	} {
		get := (*Cache).SummaryCtx
		if step.traces {
			get = (*Cache).RunCtx
		}
		got, err := get(c, ctx, step.sc)
		if err != nil {
			t.Fatalf("step %d (%s): %v", i, step.what, err)
		}
		if !sameRun(got, want[step.sc.Seed], step.wantTraces) {
			t.Errorf("step %d (%s): result differs from an uncached Run (traces wanted: %v)", i, step.what, step.wantTraces)
		}
		st := c.Snapshot()
		d := st.Delta(prev)
		prev = st
		if d.Hits != step.hits || d.Misses != step.misses || d.DiskHits != step.diskHits || d.KernelRuns != 0 {
			t.Errorf("step %d (%s): %d hits, %d misses, %d disk hits, %d kernel runs; want %d, %d, %d, 0",
				i, step.what, d.Hits, d.Misses, d.DiskHits, d.KernelRuns, step.hits, step.misses, step.diskHits)
		}
	}
	if st := c.Snapshot(); st.Entries != 2 || st.Quarantined != 0 {
		t.Errorf("cache holds %d entries with %d quarantined, want 2 and 0", st.Entries, st.Quarantined)
	}
}

// TestCacheMixedLookupsConcurrent mixes RunCtx and SummaryCtx of one key
// from several goroutines over one persistent cache, clearing the memory
// tier now and then so summary-only entries keep appearing beside
// waiters of both kinds. Every RunCtx must return the full run, every
// SummaryCtx its summary, and no lookup may run the kernel: each miss is
// one disk hit.
func TestCacheMixedLookupsConcurrent(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sc := diskScenario(73)
	want, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newDiskCache(t, dir).RunCtx(ctx, sc); err != nil {
		t.Fatal(err)
	}

	c := newDiskCache(t, dir)
	const workers, rounds = 6, 24
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				l := lookups[(g+i)%2]
				got, err := l.get(c, ctx, sc)
				switch {
				case err != nil:
					t.Errorf("goroutine %d, lookup %d (%s): %v", g, i, l.name, err)
					return
				case l.traces && !reflect.DeepEqual(got, want):
					t.Errorf("goroutine %d, lookup %d: RunCtx result differs from an uncached Run", g, i)
				case !l.traces && !slices.Equal(summaryWords(got), summaryWords(want)):
					t.Errorf("goroutine %d, lookup %d: SummaryCtx summary differs from an uncached Run", g, i)
				}
				if g == 0 && i%4 == 3 {
					c.Clear()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Snapshot()
	t.Logf("%d lookups: %d memory hits, %d misses", workers*rounds, st.Hits, st.Misses)
	if st.KernelRuns != 0 || st.Quarantined != 0 || st.DiskHits != st.Misses {
		t.Errorf("stats = %+v, want no kernel run, no quarantine and one disk hit per miss", st)
	}
	if st.Hits+st.Misses < workers*rounds {
		t.Errorf("%d hits + %d misses for %d lookups: a lookup went uncounted", st.Hits, st.Misses, workers*rounds)
	}
}
