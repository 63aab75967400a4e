package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersNormalisation(t *testing.T) {
	if got := Workers(0); got != runtime.NumCPU() {
		t.Errorf("Workers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(-3); got != runtime.NumCPU() {
		t.Errorf("Workers(-3) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestSplitBudget(t *testing.T) {
	cases := []struct {
		budget, outer        int
		wantOuter, wantInner int
	}{
		{8, 12, 8, 1}, // more items than budget: all budget outer
		{8, 3, 3, 2},  // few items: spare budget goes inner (3*2 <= 8)
		{8, 1, 1, 8},  // single item: everything inner
		{1, 10, 1, 1}, // sequential budget stays sequential
		{4, 4, 4, 1},
	}
	for _, c := range cases {
		o, i := Split(c.budget, c.outer)
		if o != c.wantOuter || i != c.wantInner {
			t.Errorf("Split(%d, %d) = (%d, %d), want (%d, %d)",
				c.budget, c.outer, o, i, c.wantOuter, c.wantInner)
		}
		if o*i > Workers(c.budget) {
			t.Errorf("Split(%d, %d) product %d exceeds budget", c.budget, c.outer, o*i)
		}
	}
}

func TestMapOrderedResults(t *testing.T) {
	out, err := MapCtx(context.Background(), 4, 100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("len = %d", len(out))
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inflight, peak atomic.Int64
	_, err := MapCtx(context.Background(), workers, 50, func(i int) (struct{}, error) {
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inflight.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds pool width %d", p, workers)
	}
}

func TestMapLowestIndexErrorWins(t *testing.T) {
	// Fail at several indices; the reported error must be the lowest one,
	// as a sequential loop would have hit it first.
	for trial := 0; trial < 10; trial++ {
		_, err := MapCtx(context.Background(), 8, 40, func(i int) (int, error) {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return 0, fmt.Errorf("item %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "item 3 failed" {
			t.Fatalf("trial %d: err = %v, want item 3's error", trial, err)
		}
	}
}

func TestPoolWaitWithoutTasks(t *testing.T) {
	p := NewPool(2)
	if err := p.Wait(); err != nil {
		t.Fatalf("empty pool Wait = %v", err)
	}
	if p.Failed() {
		t.Error("empty pool reports Failed")
	}
}

// sequentialUntil is the reference semantics UntilCtx must replicate.
func sequentialUntil[T any](max int, fn func(i int) (T, error), stop func([]T) bool) ([]T, error) {
	var out []T
	for i := 0; i < max; i++ {
		v, err := fn(i)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		if stop(out) {
			return out, nil
		}
	}
	return out, nil
}

func TestUntilMatchesSequential(t *testing.T) {
	fn := func(i int) (int, error) { return i * 3, nil }
	for _, stopAt := range []int{1, 2, 5, 7, 19, 20, 100} {
		stop := func(prefix []int) bool { return len(prefix) >= stopAt }
		want, _ := sequentialUntil(20, fn, stop)
		for _, workers := range []int{1, 2, 8} {
			for _, hint := range []int{0, 1, 3, 25} {
				got, err := UntilCtx(context.Background(), workers, 20, hint, fn, stop)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("stopAt=%d workers=%d hint=%d: len %d, want %d", stopAt, workers, hint, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("stopAt=%d workers=%d hint=%d: out[%d] = %d, want %d", stopAt, workers, hint, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestUntilHintBoundsSpeculativeWaste pins the efficiency contract: with a
// repeat-floor hint, a wide pool must not compute far past the stop index.
// Stop fires at 2 with hint 2 on a 64-wide pool: the first batch computes
// exactly 2 items, so nothing is wasted; without the hint the same pool
// may compute up to the full width.
func TestUntilHintBoundsSpeculativeWaste(t *testing.T) {
	var calls atomic.Int64
	fn := func(i int) (int, error) { calls.Add(1); return i, nil }
	stop := func(prefix []int) bool { return len(prefix) >= 2 }
	out, err := UntilCtx(context.Background(), 64, 50, 2, fn, stop)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("len = %d, want 2", len(out))
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("computed %d items for a stop at 2 with hint 2; hint failed to bound speculation", n)
	}

	// Geometric ramp-up: convergence at 6 should cost far less than the
	// pool width. Batches go 2, 2, 4 → at most 8 computed items.
	calls.Store(0)
	stop6 := func(prefix []int) bool { return len(prefix) >= 6 }
	if _, err := UntilCtx(context.Background(), 64, 50, 2, fn, stop6); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n > 8 {
		t.Errorf("computed %d items for a stop at 6; ramp-up failed to bound speculation", n)
	}
}

func TestUntilStopBeatsLaterError(t *testing.T) {
	// fn fails at index 5, but stop fires at index 2: a sequential loop
	// never reaches index 5, so UntilCtx must succeed even when the failing
	// index was computed speculatively in the same batch.
	fn := func(i int) (int, error) {
		if i >= 5 {
			return 0, errors.New("speculative failure")
		}
		return i, nil
	}
	stop := func(prefix []int) bool { return len(prefix) == 3 }
	out, err := UntilCtx(context.Background(), 8, 50, 2, fn, stop)
	if err != nil {
		t.Fatalf("UntilCtx = %v, want success (stop precedes the failure)", err)
	}
	if len(out) != 3 {
		t.Fatalf("len = %d, want 3", len(out))
	}
}

func TestUntilErrorBeforeStop(t *testing.T) {
	fn := func(i int) (int, error) {
		if i == 1 {
			return 0, errors.New("early failure")
		}
		return i, nil
	}
	stop := func(prefix []int) bool { return len(prefix) == 4 }
	if _, err := UntilCtx(context.Background(), 8, 50, 0, fn, stop); err == nil || err.Error() != "early failure" {
		t.Fatalf("err = %v, want the index-1 failure", err)
	}
}

func TestUntilHitsCap(t *testing.T) {
	never := func(prefix []int) bool { return false }
	out, err := UntilCtx(context.Background(), 4, 13, 0, func(i int) (int, error) { return i, nil }, never)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 13 {
		t.Fatalf("len = %d, want the cap 13", len(out))
	}
}

func TestUntilStopSeesDensePrefixes(t *testing.T) {
	var mu sync.Mutex
	var lens []int
	stop := func(prefix []int) bool {
		mu.Lock()
		lens = append(lens, len(prefix))
		mu.Unlock()
		for i, v := range prefix {
			if v != i {
				t.Errorf("prefix[%d] = %d: not dense/ordered", i, v)
			}
		}
		return len(prefix) >= 9
	}
	if _, err := UntilCtx(context.Background(), 4, 50, 3, func(i int) (int, error) { return i, nil }, stop); err != nil {
		t.Fatal(err)
	}
	for i, l := range lens {
		if l != i+1 {
			t.Fatalf("stop call %d saw prefix length %d; lengths must increase by one", i, l)
		}
	}
}

// TestWidthOneRunsInline holds a width-one MapCtx of 64 tasks to a fixed
// allocation count, whatever the task count: its tasks run on the
// caller's goroutine, so no task starts a goroutine or allocates a
// closure for one.
func TestWidthOneRunsInline(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ctx := context.Background()
	fn := func(i int) (int, error) { return i, nil }
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := MapCtx(ctx, 1, 64, fn); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 8 // the results, the pool, its semaphore and the task closure
	if allocs > ceiling {
		t.Fatalf("a width-one MapCtx of 64 tasks allocates %.0f times, ceiling %d: its tasks no longer run inline", allocs, ceiling)
	}
}

// TestWidthOnePanicReachesCaller: a width-one task's panic unwinds
// through MapCtx into its caller, where a recover can answer it.
func TestWidthOnePanicReachesCaller(t *testing.T) {
	got := func() (r any) {
		defer func() { r = recover() }()
		MapCtx(context.Background(), 1, 3, func(i int) (int, error) {
			if i == 1 {
				panic("boom")
			}
			return i, nil
		})
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want the task's panic", got)
	}
}
