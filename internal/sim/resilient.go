package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrStoreTimeout reports a store operation that exceeded its per-op
// bound. The cache layer treats it like any other store failure —
// degrade to a miss or a skip — but it is counted separately
// (CacheStats.Timeouts) because a timing-out store needs different
// operator attention than an erroring one.
var ErrStoreTimeout = errors.New("sim: store operation timed out")

// ErrBreakerOpen reports an operation rejected without touching the
// store because the circuit breaker is open: the persistent tier has
// failed enough consecutive times that the cache runs memory-only until
// a half-open probe succeeds.
var ErrBreakerOpen = errors.New("sim: store circuit breaker open")

// ResilienceConfig tunes a ResilientStore. Its exported fields are the
// values of the commands' -cache-* flags, whose defaults live in
// cliflags.Register, and a zero or negative value in any of them turns
// its mechanism off. The unexported fields keep their defaults outside
// tests, and a zero or negative value in them selects the default.
type ResilienceConfig struct {
	// OpTimeout bounds one Get/Put/Quarantine attempt: the hot-path
	// guarantee that no kernel run or HTTP request waits on a hung store
	// past it. Off: unbounded.
	OpTimeout time.Duration
	// Retries is the number of re-attempts after a transient failure.
	// Off: one attempt.
	Retries int
	// BreakerThreshold opens the breaker after this many consecutive
	// failed operations. Off: no breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before allowing
	// one half-open probe. Off: the next operation is the probe.
	BreakerCooldown time.Duration
	// AsyncPublish moves Puts off the caller's path onto a bounded-budget
	// background worker. A publish that doesn't fit the budget falls
	// back to the caller's synchronous path (backpressure, bounded by
	// the op timeout and retry budget — a completed kernel run's
	// artefact is never dropped under load); publishes arriving after
	// Close, or still queued when its drain times out, are dropped and
	// counted. Close drains the queue.
	AsyncPublish bool

	// lockTimeout bounds one Lock acquisition (default 30s — locks
	// legitimately wait for another process's kernel run, so this is much
	// looser than OpTimeout). It is the store tier's only lock bound.
	lockTimeout time.Duration
	// retryBase and retryCap shape the backoff between attempts: the
	// first retry sleeps retryBase, each later one twice the previous,
	// capped at retryCap. Defaults 25ms and 250ms.
	retryBase, retryCap time.Duration
	// publishBudget is the async publish queue depth (default 64).
	publishBudget int
	// drainTimeout bounds Close's wait for queued publishes (default 5s).
	drainTimeout time.Duration
}

// withDefaults fills the unexported knobs; the exported fields are used
// as given.
func (c ResilienceConfig) withDefaults() ResilienceConfig {
	orDefault := func(v *time.Duration, d time.Duration) {
		if *v <= 0 {
			*v = d
		}
	}
	orDefault(&c.lockTimeout, 30*time.Second)
	orDefault(&c.retryBase, 25*time.Millisecond)
	orDefault(&c.retryCap, 250*time.Millisecond)
	orDefault(&c.drainTimeout, 5*time.Second)
	if c.publishBudget <= 0 {
		c.publishBudget = 64
	}
	return c
}

// Breaker state names as surfaced in stats, benchjson and /healthz.
const (
	breakerClosed   = "closed"
	breakerOpen     = "open"
	breakerHalfOpen = "half-open"
)

// circuitBreaker is the classic three-state machine guarding the
// persistent tier: closed (counting consecutive failures), open
// (rejecting everything until a cooldown elapses), half-open (one probe
// in flight; its outcome re-closes or re-opens). A nil breaker is valid
// and always allows — the "disabled" configuration.
type circuitBreaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    string
	failures int       // consecutive, while closed
	openedAt time.Time // while open
	probe    uint64    // ticket of the half-open probe in flight; 0 when none
	tickets  uint64    // probe tickets issued so far
	opens    uint64
}

func newCircuitBreaker(threshold int, cooldown time.Duration) *circuitBreaker {
	if threshold <= 0 {
		return nil
	}
	return &circuitBreaker{threshold: threshold, cooldown: cooldown, state: breakerClosed}
}

// allow reports whether an operation may touch the store right now.
// In the open state it flips to half-open once the cooldown has elapsed
// and admits exactly one probe; everything else is rejected fast. When
// the admitted operation is that probe, probe is its non-zero ticket,
// which only release takes.
func (b *circuitBreaker) allow() (ok bool, probe uint64) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, 0
	case breakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false, 0
		}
		b.state = breakerHalfOpen
	default: // half-open
		if b.probe != 0 {
			return false, 0
		}
	}
	b.tickets++
	b.probe = b.tickets
	return true, b.probe
}

// success records an operation that reached the store and came back
// healthy (ErrArtefactNotFound counts: the store answered).
func (b *circuitBreaker) success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.failures = 0
	b.probe = 0
}

// failure records an operation the store failed. The threshold'th
// consecutive failure — or any failed half-open probe — opens the
// breaker.
func (b *circuitBreaker) failure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.reopen()
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.reopen()
		}
	}
}

// release hands back the half-open probe slot of ticket probe, whose
// operation ended without a verdict (the caller cancelled it), recording
// neither success nor failure: the breaker stays half-open and admits
// the next operation as its probe. Without it, a cancelled probe would
// leave the breaker rejecting every operation forever. A zero ticket (an
// operation admitted while closed) or a stale one holds no slot and
// releases nothing, so at most one probe is ever in flight.
func (b *circuitBreaker) release(probe uint64) {
	if b == nil || probe == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.probe == probe {
		b.probe = 0
	}
}

// reopen transitions to open; callers hold b.mu.
func (b *circuitBreaker) reopen() {
	b.state = breakerOpen
	b.failures = 0
	b.probe = 0
	b.openedAt = time.Now()
	b.opens++
}

func (b *circuitBreaker) snapshot() (state string, opens uint64) {
	if b == nil {
		return breakerClosed, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.opens
}

// publisher is the bounded-budget async publish queue: one worker
// drains it, tryEnqueue never blocks the caller (a full queue signals
// the caller to publish synchronously instead; a closed one drops the
// publish, counted), close waits for the drain and drops, counted,
// whatever is still queued when the wait expires.
type publisher struct {
	put func(name string, data []byte)

	mu     sync.Mutex
	closed bool
	queue  chan publishJob
	done   chan struct{}
	drops  atomic.Uint64
}

type publishJob struct {
	name string
	data []byte
}

func newPublisher(budget int, put func(name string, data []byte)) *publisher {
	p := &publisher{put: put, queue: make(chan publishJob, budget), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		for job := range p.queue {
			p.put(job.name, job.data)
		}
	}()
	return p
}

// tryEnqueue hands one publish to the worker, reporting false when the
// budget is exhausted — the caller then publishes synchronously, so a
// full queue means backpressure, not loss. A publish after close is
// dropped (counted) and reported true: the store is going away and the
// artefact is merely a future cache miss.
func (p *publisher) tryEnqueue(name string, data []byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		p.drops.Add(1)
		return true
	}
	select {
	case p.queue <- publishJob{name, data}:
		return true
	default:
		return false
	}
}

// close stops intake and waits up to timeout for queued publishes to
// land. At expiry it takes the publishes still queued away from the
// worker and counts them as drops; the one the worker is executing, if
// any, completes (or times out) in the background. Called once, by
// ResilientStore.Close.
func (p *publisher) close(timeout time.Duration) error {
	p.mu.Lock()
	p.closed = true
	close(p.queue)
	p.mu.Unlock()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-p.done:
		return nil
	case <-t.C:
		for range p.queue {
			p.drops.Add(1)
		}
		return fmt.Errorf("sim: publish drain exceeded %v", timeout)
	}
}

// ResilientStore wraps a CacheStore with the survival policy the
// persistent tier needs against a hostile store: per-op timeouts,
// bounded retries with capped doubling backoff, a lock timeout, a
// circuit breaker that degrades the cache to memory-only while the
// store is sick, and (optionally) asynchronous bounded-budget publishes.
// Every mechanism converts a store failure into a clean miss or a
// skipped publish — callers above see the same CacheStore contract,
// just slower-or-missing rather than wrong or wedged.
//
// Construct with NewResilientStore. Close drains async publishes and
// closes the inner store; Cache.Close forwards to it.
type ResilientStore struct {
	inner   CacheStore
	cfg     ResilienceConfig
	breaker *circuitBreaker
	pub     *publisher

	retries  atomic.Uint64
	timeouts atomic.Uint64

	closeOnce sync.Once
	closeErr  error
}

// NewResilientStore wraps inner with the policy of cfg.
func NewResilientStore(inner CacheStore, cfg ResilienceConfig) *ResilientStore {
	cfg = cfg.withDefaults()
	s := &ResilientStore{
		inner:   inner,
		cfg:     cfg,
		breaker: newCircuitBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
	}
	if cfg.AsyncPublish {
		s.pub = newPublisher(cfg.publishBudget, s.publishSync)
	}
	return s
}

// ResilienceStats reports the policy layer's counters — Retries,
// Timeouts, BreakerOpens, BreakerState and PublishDrops — in a
// CacheStats whose other counters are zero; Cache.Snapshot adds the
// cache's own.
func (s *ResilientStore) ResilienceStats() CacheStats {
	st := CacheStats{Retries: s.retries.Load(), Timeouts: s.timeouts.Load()}
	st.BreakerState, st.BreakerOpens = s.breaker.snapshot()
	if s.pub != nil {
		st.PublishDrops = s.pub.drops.Load()
	}
	return st
}

// Close drains pending async publishes (bounded by the drain timeout) and
// closes the inner store when it supports closing. Idempotent.
func (s *ResilientStore) Close() error {
	s.closeOnce.Do(func() {
		if s.pub != nil {
			s.closeErr = s.pub.close(s.cfg.drainTimeout)
		}
		if cl, ok := s.inner.(interface{ Close() error }); ok {
			if err := cl.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// timedCall runs op, bounding it by timeout when positive. The result
// travels through a buffered channel: when the bound expires the
// abandoned goroutine completes into the buffer and is collected, never
// racing a caller that has moved on.
func timedCall[T any](timeout time.Duration, op func() (T, error)) (T, error) {
	if timeout <= 0 {
		return op()
	}
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := op()
		ch <- result{v, err}
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-t.C:
		var zero T
		return zero, ErrStoreTimeout
	}
}

// callRetry is the shared policy path for synchronous store ops: breaker
// gate, timed attempts, retries with capped doubling backoff for
// transient errors, and breaker bookkeeping. ErrArtefactNotFound is a
// successful answer (the store responded; the artefact is absent) —
// never retried, never a breaker failure.
func callRetry[T any](s *ResilientStore, op func() (T, error)) (T, error) {
	var zero T
	if ok, _ := s.breaker.allow(); !ok {
		return zero, ErrBreakerOpen
	}
	sleep := s.cfg.retryBase
	for attempt := 0; ; attempt++ {
		v, err := timedCall(s.cfg.OpTimeout, op)
		if err == nil || errors.Is(err, ErrArtefactNotFound) {
			s.breaker.success()
			return v, err
		}
		if errors.Is(err, ErrStoreTimeout) {
			s.timeouts.Add(1)
		}
		s.breaker.failure()
		if attempt >= s.cfg.Retries {
			return zero, err
		}
		if ok, _ := s.breaker.allow(); !ok {
			return zero, ErrBreakerOpen
		}
		s.retries.Add(1)
		time.Sleep(sleep)
		sleep = min(2*sleep, s.cfg.retryCap)
	}
}

// Get reads through the policy: breaker-gated, timed, retried.
func (s *ResilientStore) Get(name string) ([]byte, error) {
	return callRetry(s, func() ([]byte, error) { return s.inner.Get(name) })
}

// publishSync is the worker-side (or synchronous) Put path.
func (s *ResilientStore) publishSync(name string, data []byte) {
	_, _ = callRetry(s, func() (struct{}, error) {
		return struct{}{}, s.inner.Put(name, data)
	})
}

// Put publishes through the policy. With AsyncPublish the call usually
// returns immediately and the artefact lands in the background; when
// the budget is exhausted the caller publishes synchronously
// (backpressure), and after Close the publish is dropped and counted.
// Either way the caller never sees a store failure — a lost publish is
// a future cache miss, not an error.
func (s *ResilientStore) Put(name string, data []byte) error {
	if s.pub != nil {
		if !s.pub.tryEnqueue(name, data) {
			s.publishSync(name, data)
		}
		return nil
	}
	_, err := callRetry(s, func() (struct{}, error) {
		return struct{}{}, s.inner.Put(name, data)
	})
	return err
}

// Quarantine moves a bad artefact aside through the policy.
func (s *ResilientStore) Quarantine(name, reason string) error {
	_, err := callRetry(s, func() (struct{}, error) {
		return struct{}{}, s.inner.Quarantine(name, reason)
	})
	return err
}

// Lock acquires through the policy: breaker-gated and bounded by the
// lock timeout (not OpTimeout — locks legitimately wait for another
// process's kernel run, and are never retried: on failure the cache
// falls straight back to owner-wins). Caller cancellation propagates
// as ctx's error and leaves the breaker as it was (a Lock that is the
// half-open probe hands its slot back); a policy timeout surfaces as
// ErrStoreTimeout so the cache's owner-wins degradation (not its
// cancellation path) handles it.
func (s *ResilientStore) Lock(ctx context.Context, name string) (func(), error) {
	ok, probe := s.breaker.allow()
	if !ok {
		return nil, ErrBreakerOpen
	}
	lctx, cancel := context.WithTimeout(ctx, s.cfg.lockTimeout)
	defer cancel()
	unlock, err := s.inner.Lock(lctx, name)
	if err == nil {
		s.breaker.success()
		return unlock, nil
	}
	if ctx.Err() != nil {
		// The caller's own context ended; not the store's fault.
		s.breaker.release(probe)
		return nil, err
	}
	if errors.Is(err, context.DeadlineExceeded) {
		s.timeouts.Add(1)
		s.breaker.failure()
		return nil, fmt.Errorf("%w: lock %s", ErrStoreTimeout, name)
	}
	s.breaker.failure()
	return nil, err
}

var _ CacheStore = (*ResilientStore)(nil)
