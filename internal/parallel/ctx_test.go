package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestMapCtxPreCancelled: a dead context dispatches nothing and returns
// its error.
func TestMapCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int32
	_, err := MapCtx(ctx, 4, 100, func(i int) (int, error) {
		calls.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("%d items ran under a dead context", n)
	}
}

// TestMapCtxStopsDispatching: cancelling mid-stream stops further
// dispatch at the next boundary; items already running finish.
func TestMapCtxStopsDispatching(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	_, err := MapCtx(ctx, 1, 1000, func(i int) (int, error) {
		calls.Add(1)
		if i == 2 {
			cancel() // the items after the in-flight window must never start
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// One worker: item 3 may already be queued when 2 cancels, but the
	// dispatch loop must stop almost immediately after.
	if n := calls.Load(); n > 10 {
		t.Errorf("%d items ran after cancellation", n)
	}
}

// TestMapCtxErrorPrecedence: an error at a lower index than the
// cancellation point wins — the error a sequential loop would have hit
// first.
func TestMapCtxErrorPrecedence(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := fmt.Errorf("boom")
	_, err := MapCtx(ctx, 1, 1000, func(i int) (int, error) {
		if i == 1 {
			cancel()       // fires the ctx boundary before item 2 dispatches…
			return 0, boom // …but this lower-indexed failure outranks it
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the lower-indexed item error", err)
	}
}

// TestUntilCtxPreCancelled: a dead context stops the batch loop before
// any work.
func TestUntilCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int32
	_, err := UntilCtx(ctx, 4, 100, 0,
		func(i int) (int, error) { calls.Add(1); return i, nil },
		func(prefix []int) bool { return false })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("%d items ran under a dead context", n)
	}
}

// TestUntilCtxCancelBetweenBatches: cancellation between speculative
// batches surfaces the context error instead of looping to max.
func TestUntilCtxCancelBetweenBatches(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	_, err := UntilCtx(ctx, 2, 1_000_000, 1,
		func(i int) (int, error) {
			calls.Add(1)
			cancel()
			return i, nil
		},
		func(prefix []int) bool { return false })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n > 16 {
		t.Errorf("%d items ran after cancellation", n)
	}
}
