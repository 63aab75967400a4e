// Package parallel is the concurrent experiment engine: a bounded worker
// pool plus ordered-results collection that the experiments, sim and dcsim
// layers use to fan independent work items — experimental points, repeated
// runs, migration moves — out across CPUs without changing results.
//
// Determinism contract: every helper in this package dispatches work items
// in index order, collects results by index, and reports the error of the
// lowest-indexed failed item. Because each item derives its own RNG seed
// from its index (never from shared mutable state), running with one
// worker and running with many produce bit-identical outputs; only
// wall-clock time changes. UntilCtx additionally replicates the semantics
// of a sequential stop-when-converged loop by running speculative batches
// and truncating at the first index where the stop rule fires.
package parallel

import (
	"context"
	"runtime"
	"sync"
)

// Workers normalises a configured worker count: values <= 0 select
// runtime.NumCPU(), anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// Split divides a worker budget between an outer fan-out of width outer
// and its nested inner fan-outs, returning the worker count for each
// level. The product never exceeds the budget, both levels get at least
// one worker, and the outer level is saturated first (outer items are the
// coarser, better-balanced unit of work).
func Split(budget, outer int) (outerWorkers, innerWorkers int) {
	budget = Workers(budget)
	outerWorkers = budget
	if outer > 0 && outer < outerWorkers {
		outerWorkers = outer
	}
	innerWorkers = budget / outerWorkers
	if innerWorkers < 1 {
		innerWorkers = 1
	}
	return outerWorkers, innerWorkers
}

// Pool is a bounded worker pool. At most its configured width of tasks
// run concurrently; Go blocks while the pool is full, and Wait returns
// the error of the lowest-indexed failed task — the error a sequential
// loop over the same tasks would have surfaced first.
type Pool struct {
	sem chan struct{}
	wg  sync.WaitGroup

	mu     sync.Mutex
	err    error
	errIdx int
}

// NewPool builds a pool of the given width (<= 0 means runtime.NumCPU()).
func NewPool(workers int) *Pool {
	return &Pool{sem: make(chan struct{}, Workers(workers)), errIdx: -1}
}

// Go schedules one indexed task, blocking until a worker slot frees up.
// The index establishes error precedence: on multiple failures, Wait
// reports the lowest index's error regardless of completion order.
func (p *Pool) Go(idx int, fn func() error) {
	p.sem <- struct{}{}
	p.wg.Add(1)
	go func() {
		defer func() {
			<-p.sem
			p.wg.Done()
		}()
		if err := fn(); err != nil {
			p.mu.Lock()
			if p.err == nil || idx < p.errIdx {
				p.err, p.errIdx = err, idx
			}
			p.mu.Unlock()
		}
	}()
}

// Failed reports whether some already-finished task returned an error;
// callers feeding an open-ended task stream use it to stop submitting
// speculative work early.
func (p *Pool) Failed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err != nil
}

// Wait blocks until every submitted task has finished and returns the
// lowest-indexed error, if any.
func (p *Pool) Wait() error {
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// MapCtx runs fn(0), …, fn(n-1) on at most workers concurrent goroutines
// and returns the results in index order. On failure it returns nil and
// the lowest-indexed error, mirroring what a sequential loop would have hit
// first; items not yet dispatched when an earlier item fails are skipped.
//
// Every dispatch is a cancellation boundary: once ctx is done, no further
// item starts, already-running items are waited for (they observe ctx
// themselves through their closure), and ctx's error is returned unless an
// already-dispatched item failed with a lower index — the same precedence
// a sequential loop hitting the cancelled item in place would have
// reported.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	p := NewPool(workers)
	cancelled := -1 // index of the first item never dispatched
	for i := 0; i < n && !p.Failed(); i++ {
		if ctx.Err() != nil {
			cancelled = i
			break
		}
		i := i
		p.Go(i, func() error {
			v, err := fn(i)
			if err != nil {
				return err
			}
			out[i] = v // distinct index per task: no two goroutines share a slot
			return nil
		})
	}
	err := p.Wait()
	if cancelled >= 0 && (err == nil || p.errIdx > cancelled) {
		// The cancellation point outranks any later item's failure.
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// UntilCtx drives an open-ended sequence of indexed tasks 0, 1, 2, … with
// the sequential semantics
//
//	for i := 0; i < max; i++ {
//	        v, err := fn(i)            // abort on error
//	        out = append(out, v)
//	        if stop(out) { break }     // converged
//	}
//
// but evaluates fn in speculative batches. After each batch the results
// are scanned in index order: the first error aborts exactly as the loop
// above would (a failure past a stop index is never reported, because the
// loop would not have reached it), and the first index where stop fires
// truncates the output there, discarding the speculatively computed tail.
// stop is only ever called on dense prefixes in increasing length order,
// so convergence rules that inspect the whole prefix (variance deltas)
// behave identically to the sequential loop.
//
// hint bounds the first batch: when the caller knows stop cannot fire
// before hint items (a repeat floor), speculating past it on round one
// only risks waste. Later batches ramp up geometrically (the prefix
// length, capped at the pool width), so the total work stays within ~2x
// of the sequential loop's while still saturating wide pools when
// convergence is genuinely far off. hint <= 0 means no hint. Batch sizes
// never influence the returned prefix, only how much speculative work can
// be discarded.
//
// A done ctx stops the loop before the next batch dispatches and returns
// ctx's error. Items inside a batch observe ctx through their own
// closures.
func UntilCtx[T any](ctx context.Context, workers, max, hint int, fn func(i int) (T, error), stop func(prefix []T) bool) ([]T, error) {
	w := Workers(workers)
	var out []T
	for len(out) < max {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		batch := w
		if len(out) == 0 {
			if hint > 0 && hint < batch {
				batch = hint
			}
		} else if len(out) < batch {
			batch = len(out)
		}
		if rem := max - len(out); batch > rem {
			batch = rem
		}
		base := len(out)
		vals := make([]T, batch)
		errs := make([]error, batch)
		p := NewPool(w)
		for j := 0; j < batch; j++ {
			j := j
			p.Go(j, func() error {
				vals[j], errs[j] = fn(base + j)
				return nil // errors are replayed in order below
			})
		}
		p.Wait() // tasks never return errors; this is a barrier
		for j := 0; j < batch; j++ {
			if errs[j] != nil {
				return nil, errs[j]
			}
			out = append(out, vals[j])
			if stop(out) {
				return out, nil
			}
		}
	}
	return out, nil
}
