package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// scriptStore is a programmable in-memory CacheStore for policy tests:
// fail the next N ops, block ops until released, count calls.
type scriptStore struct {
	mu    sync.Mutex
	fails int // fail this many upcoming ops
	calls int
	data  map[string][]byte

	block   chan struct{} // when non-nil, ops block here first
	entered chan struct{} // signalled once per op that starts blocking
}

func newScriptStore() *scriptStore {
	return &scriptStore{data: map[string][]byte{}}
}

// step applies the common scripted prelude; the returned error is the
// injected failure, if any.
func (s *scriptStore) step() error {
	s.mu.Lock()
	s.calls++
	block := s.block
	entered := s.entered
	fail := s.fails > 0
	if fail {
		s.fails--
	}
	s.mu.Unlock()
	if block != nil {
		if entered != nil {
			entered <- struct{}{}
		}
		<-block
	}
	if fail {
		return errors.New("scripted store failure")
	}
	return nil
}

func (s *scriptStore) failNext(n int) {
	s.mu.Lock()
	s.fails = n
	s.mu.Unlock()
}

func (s *scriptStore) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func (s *scriptStore) Get(name string) ([]byte, error) {
	if err := s.step(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.data[name]
	if !ok {
		return nil, ErrArtefactNotFound
	}
	return data, nil
}

func (s *scriptStore) Put(name string, data []byte) error {
	if err := s.step(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[name] = data
	return nil
}

func (s *scriptStore) Quarantine(name, reason string) error {
	if err := s.step(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, name)
	return nil
}

// Lock is a scripted op that, when it succeeds, grants the name at once.
func (s *scriptStore) Lock(ctx context.Context, name string) (func(), error) {
	if err := s.step(); err != nil {
		return nil, err
	}
	return func() {}, nil
}

// TestBreakerLifecycle walks the circuit breaker through its full state
// machine — closed → open on K consecutive faults, fast-fail while
// open, half-open probe after the cooldown, re-close on success, and
// re-open on a failed probe — asserting the stats at each transition.
func TestBreakerLifecycle(t *testing.T) {
	inner := newScriptStore()
	inner.data["a"] = []byte("payload")
	const cooldown = 40 * time.Millisecond
	rs := NewResilientStore(inner, ResilienceConfig{
		OpTimeout:        2 * time.Second,
		Retries:          -1, // one attempt per op: op failures map 1:1 to breaker failures
		BreakerThreshold: 3,
		BreakerCooldown:  cooldown,
	})

	if st := rs.ResilienceStats(); st.BreakerState != "closed" || st.BreakerOpens != 0 {
		t.Fatalf("initial stats = %+v, want closed breaker with 0 opens", st)
	}

	// Three consecutive failures open the breaker.
	inner.failNext(3)
	for i := 0; i < 3; i++ {
		if _, err := rs.Get("a"); err == nil {
			t.Fatalf("fault %d: Get succeeded, want injected failure", i)
		}
	}
	if st := rs.ResilienceStats(); st.BreakerState != "open" || st.BreakerOpens != 1 {
		t.Fatalf("after 3 faults: stats = %+v, want open breaker with 1 open", st)
	}

	// Open breaker fast-fails without touching the store.
	calls := inner.callCount()
	if _, err := rs.Get("a"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open-breaker Get error = %v, want ErrBreakerOpen", err)
	}
	if inner.callCount() != calls {
		t.Fatal("open breaker let an operation through to the store")
	}

	// After the cooldown the half-open probe reaches the healed store
	// and re-closes the breaker.
	time.Sleep(cooldown + 10*time.Millisecond)
	data, err := rs.Get("a")
	if err != nil || string(data) != "payload" {
		t.Fatalf("half-open probe Get = %q, %v; want payload, nil", data, err)
	}
	if st := rs.ResilienceStats(); st.BreakerState != "closed" || st.BreakerOpens != 1 {
		t.Fatalf("after probe success: stats = %+v, want re-closed breaker", st)
	}

	// A failed probe re-opens immediately.
	inner.failNext(4) // 3 to open + 1 for the probe
	for i := 0; i < 3; i++ {
		rs.Get("a")
	}
	time.Sleep(cooldown + 10*time.Millisecond)
	if _, err := rs.Get("a"); err == nil {
		t.Fatal("failing half-open probe succeeded")
	}
	if st := rs.ResilienceStats(); st.BreakerState != "open" || st.BreakerOpens != 3 {
		t.Fatalf("after failed probe: stats = %+v, want re-opened breaker (opens: trip, probe-fail)", st)
	}
}

// TestBreakerZeroCooldownProbesAtOnce: a zero cooldown turns the wait
// off, as a zero does in every exported ResilienceConfig field, so the
// operation right after the breaker opens is its half-open probe.
func TestBreakerZeroCooldownProbesAtOnce(t *testing.T) {
	inner := newScriptStore()
	inner.data["a"] = []byte("payload")
	rs := NewResilientStore(inner, ResilienceConfig{BreakerThreshold: 1, BreakerCooldown: 0})

	inner.failNext(1)
	if _, err := rs.Get("a"); err == nil {
		t.Fatal("scripted fault did not fail the Get")
	}
	if st := rs.ResilienceStats(); st.BreakerState != "open" || st.BreakerOpens != 1 {
		t.Fatalf("after the fault: stats = %+v, want an open breaker", st)
	}
	data, err := rs.Get("a")
	if err != nil || string(data) != "payload" {
		t.Fatalf("Get right after the breaker opened = %q, %v; want the probe to reach the store", data, err)
	}
	if st := rs.ResilienceStats(); st.BreakerState != "closed" || st.BreakerOpens != 1 {
		t.Fatalf("after the probe: stats = %+v, want a re-closed breaker", st)
	}
}

// TestResilienceConfigUsedAsGiven: withDefaults fills only the
// unexported knobs, so the exported fields, which are the -cache-*
// flags' values, reach the policy unchanged, zero and negative
// included, and a zero config builds neither a breaker nor a publisher.
func TestResilienceConfigUsedAsGiven(t *testing.T) {
	for _, cfg := range []ResilienceConfig{
		{},
		{OpTimeout: -1, Retries: -1, BreakerThreshold: -1, BreakerCooldown: -1},
		{OpTimeout: 2 * time.Second, Retries: 2, BreakerThreshold: 5, BreakerCooldown: time.Second, AsyncPublish: true},
	} {
		got := cfg.withDefaults()
		if got.lockTimeout <= 0 || got.retryBase <= 0 || got.retryCap <= 0 || got.publishBudget <= 0 || got.drainTimeout <= 0 {
			t.Errorf("withDefaults(%+v) left an unexported knob unset: %+v", cfg, got)
		}
		got.lockTimeout, got.retryBase, got.retryCap, got.publishBudget, got.drainTimeout = 0, 0, 0, 0, 0
		if got != cfg {
			t.Errorf("withDefaults changed the exported fields: %+v, want %+v", got, cfg)
		}
	}
	if rs := NewResilientStore(newScriptStore(), ResilienceConfig{}); rs.breaker != nil || rs.pub != nil {
		t.Error("a zero config built a breaker or an async publisher")
	}
}

// TestRetryRecoversTransientFaults asserts a transient fault burst
// shorter than the retry budget is absorbed: the caller sees success,
// the retries are counted, and a clean miss is never retried.
func TestRetryRecoversTransientFaults(t *testing.T) {
	inner := newScriptStore()
	inner.data["a"] = []byte("payload")
	rs := NewResilientStore(inner, ResilienceConfig{
		OpTimeout:        2 * time.Second,
		Retries:          2,
		retryBase:        time.Millisecond,
		retryCap:         4 * time.Millisecond,
		BreakerThreshold: -1,
	})

	inner.failNext(2)
	data, err := rs.Get("a")
	if err != nil || string(data) != "payload" {
		t.Fatalf("Get after 2 transient faults = %q, %v; want payload, nil", data, err)
	}
	if st := rs.ResilienceStats(); st.Retries != 2 {
		t.Fatalf("stats = %+v, want 2 retries", st)
	}

	// A miss is the store answering, not failing: no retry.
	if _, err := rs.Get("absent"); !errors.Is(err, ErrArtefactNotFound) {
		t.Fatalf("Get(absent) error = %v, want ErrArtefactNotFound", err)
	}
	if st := rs.ResilienceStats(); st.Retries != 2 {
		t.Fatalf("stats = %+v: a clean miss was retried", st)
	}

	// A burst longer than the budget surfaces the store's error.
	inner.failNext(5)
	if _, err := rs.Get("a"); err == nil {
		t.Fatal("Get succeeded through a fault burst longer than the retry budget")
	}
}

// TestOpTimeoutBounds asserts a hung store operation returns
// ErrStoreTimeout within the configured bound instead of blocking the
// caller until the store recovers.
func TestOpTimeoutBounds(t *testing.T) {
	inner := newScriptStore()
	inner.block = make(chan struct{})
	inner.entered = make(chan struct{}, 4)
	defer close(inner.block) // release the abandoned goroutine

	const bound = 30 * time.Millisecond
	rs := NewResilientStore(inner, ResilienceConfig{
		OpTimeout:        bound,
		Retries:          -1,
		BreakerThreshold: -1,
	})

	start := time.Now()
	_, err := rs.Get("a")
	elapsed := time.Since(start)
	if !errors.Is(err, ErrStoreTimeout) {
		t.Fatalf("hung Get error = %v, want ErrStoreTimeout", err)
	}
	if elapsed > 10*bound {
		t.Fatalf("hung Get took %v, want ~%v", elapsed, bound)
	}
	if st := rs.ResilienceStats(); st.Timeouts != 1 {
		t.Fatalf("stats = %+v, want 1 timeout", st)
	}
}

// TestAsyncPublishDrainAndBackpressure exercises the bounded-budget
// publisher: queued publishes land after Close's drain, an over-budget
// publish backpressures onto the caller's synchronous path (never
// dropped), and only publishes after Close are dropped — counted, not
// lost in a panic.
func TestAsyncPublishDrainAndBackpressure(t *testing.T) {
	inner := newScriptStore()
	inner.block = make(chan struct{})
	inner.entered = make(chan struct{}, 4)
	rs := NewResilientStore(inner, ResilienceConfig{
		OpTimeout:        2 * time.Second,
		Retries:          -1,
		BreakerThreshold: -1,
		AsyncPublish:     true,
		publishBudget:    1,
	})

	// First publish: the worker picks it up and blocks inside the store.
	if err := rs.Put("a", []byte("A")); err != nil {
		t.Fatalf("async Put returned %v", err)
	}
	<-inner.entered // worker is inside inner.Put("a")
	// Second fills the 1-deep queue; third is over budget — it must
	// backpressure onto the caller's own goroutine, not drop.
	rs.Put("b", []byte("B"))
	overBudget := make(chan struct{})
	go func() {
		defer close(overBudget)
		rs.Put("c", []byte("C"))
	}()
	<-inner.entered // the backpressured Put is inside inner.Put("c")
	if st := rs.ResilienceStats(); st.PublishDrops != 0 {
		t.Fatalf("stats = %+v: backpressure dropped a publish", st)
	}

	close(inner.block)
	<-overBudget
	if err := rs.Close(); err != nil {
		t.Fatalf("Close = %v, want clean drain", err)
	}
	inner.mu.Lock()
	gotA, gotB, gotC := inner.data["a"], inner.data["b"], inner.data["c"]
	inner.mu.Unlock()
	if string(gotA) != "A" || string(gotB) != "B" || string(gotC) != "C" {
		t.Fatalf("drained store holds a=%q b=%q c=%q, want all three", gotA, gotB, gotC)
	}

	// Publishing after Close drops silently.
	if err := rs.Put("d", []byte("D")); err != nil {
		t.Fatalf("post-close Put returned %v", err)
	}
	if st := rs.ResilienceStats(); st.PublishDrops != 1 {
		t.Fatalf("stats = %+v, want 1 publish drop from the post-close Put", st)
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("second Close = %v, want idempotent nil", err)
	}
}

// TestBreakerDegradesCacheToMemoryOnly runs a cache over a persistently
// failing store: every run still answers correctly (kernel re-runs, the
// memory tier serves repeats), the breaker opens and the stats surface
// through Cache.Snapshot.
func TestBreakerDegradesCacheToMemoryOnly(t *testing.T) {
	inner := newScriptStore()
	inner.failNext(1 << 30) // fail everything, forever
	rs := NewResilientStore(inner, ResilienceConfig{
		OpTimeout:        2 * time.Second,
		Retries:          -1,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute, // stays open for the whole test
	})
	c := NewCacheWithStore(0, rs)
	defer c.Close()

	sc := diskScenario(7)
	want, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := c.RunCtx(context.Background(), sc)
		if err != nil {
			t.Fatalf("run %d against a dead store: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d differs from the uncached reference", i)
		}
	}
	st := c.Snapshot()
	if st.KernelRuns != 1 {
		t.Errorf("kernel runs = %d, want 1 (memory tier still serves repeats)", st.KernelRuns)
	}
	if st.Hits != 2 {
		t.Errorf("memory hits = %d, want 2", st.Hits)
	}
	if st.BreakerOpens == 0 || st.BreakerState != "open" {
		t.Errorf("stats = %+v, want an open breaker", st)
	}
	if st.StoreErrors == 0 {
		t.Errorf("stats = %+v, want counted store errors", st)
	}
}

// blockingLocker is a CacheStore whose Lock never acquires until the
// context ends. A Lock signals the embedded scriptStore's entered
// channel, when set, once it is waiting.
type blockingLocker struct {
	*scriptStore
}

func (b *blockingLocker) Lock(ctx context.Context, name string) (func(), error) {
	if b.entered != nil {
		b.entered <- struct{}{}
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestLockTimeoutSurfacesAsStoreTimeout asserts the policy layer's
// lock timeout converts a wedged lock acquisition into ErrStoreTimeout
// (the signal the cache degrades on) while genuine caller cancellation
// passes through untouched.
func TestLockTimeoutSurfacesAsStoreTimeout(t *testing.T) {
	inner := &blockingLocker{newScriptStore()}
	rs := NewResilientStore(inner, ResilienceConfig{
		lockTimeout:      20 * time.Millisecond,
		Retries:          -1,
		BreakerThreshold: -1,
	})
	if _, err := rs.Lock(context.Background(), "a"); !errors.Is(err, ErrStoreTimeout) {
		t.Fatalf("wedged Lock error = %v, want ErrStoreTimeout", err)
	}
	if st := rs.ResilienceStats(); st.Timeouts != 1 {
		t.Fatalf("stats = %+v, want 1 timeout", st)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	if _, err := rs.Lock(ctx, "a"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Lock error = %v, want context.Canceled", err)
	}
	if st := rs.ResilienceStats(); st.Timeouts != 1 {
		t.Fatalf("stats = %+v: caller cancellation was miscounted as a store timeout", st)
	}
}

// TestCancelledLockProbeReleasesBreaker: a half-open probe that is a
// Lock ended by its caller's context (a daemon client that disconnects
// or times out while waiting on another process's lock) says nothing
// about the store, so it must hand the probe slot back. Otherwise the
// breaker stays half-open with its one probe "in flight" forever and
// rejects every later operation.
func TestCancelledLockProbeReleasesBreaker(t *testing.T) {
	inner := &blockingLocker{newScriptStore()}
	inner.data["a"] = []byte("payload")
	const cooldown = 10 * time.Millisecond
	rs := NewResilientStore(inner, ResilienceConfig{
		OpTimeout:        2 * time.Second,
		Retries:          -1,
		BreakerThreshold: 1,
		BreakerCooldown:  cooldown,
	})

	inner.failNext(1)
	if _, err := rs.Get("a"); err == nil {
		t.Fatal("scripted fault did not fail the Get")
	}
	time.Sleep(cooldown + 5*time.Millisecond)

	// The probe: a Lock whose caller gives up after 5 ms.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := rs.Lock(ctx, "a"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled probe Lock error = %v, want the caller's deadline", err)
	}
	if st := rs.ResilienceStats(); st.BreakerState != "half-open" || st.BreakerOpens != 1 || st.Timeouts != 0 {
		t.Fatalf("after the cancelled probe: stats = %+v, want half-open, 1 open, 0 timeouts", st)
	}

	// The next operation is admitted as the probe and re-closes the
	// breaker against the healthy store.
	data, err := rs.Get("a")
	if err != nil || string(data) != "payload" {
		t.Fatalf("Get after the cancelled probe = %q, %v; want payload, nil", data, err)
	}
	if st := rs.ResilienceStats(); st.BreakerState != "closed" {
		t.Fatalf("after the next probe: stats = %+v, want a closed breaker", st)
	}
}

// TestCancelledNonProbeLockKeepsProbe: a Lock admitted while the
// breaker was closed holds no probe slot. If its caller cancels it after
// the breaker opened and another operation took the half-open probe, it
// must hand nothing back — otherwise a second probe would reach the
// store beside the first.
func TestCancelledNonProbeLockKeepsProbe(t *testing.T) {
	inner := &blockingLocker{newScriptStore()}
	inner.entered = make(chan struct{}, 4)
	const cooldown = 10 * time.Millisecond
	rs := NewResilientStore(inner, ResilienceConfig{
		OpTimeout:        2 * time.Second,
		Retries:          -1,
		BreakerThreshold: 1,
		BreakerCooldown:  cooldown,
	})

	// A Lock admitted while closed, waiting on another process.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lockErr := make(chan error, 1)
	go func() {
		_, err := rs.Lock(ctx, "a")
		lockErr <- err
	}()
	<-inner.entered

	// Open the breaker, let the cooldown pass, and start a probe that
	// stays inside the store.
	inner.failNext(1)
	if _, err := rs.Get("a"); err == nil {
		t.Fatal("scripted fault did not fail the Get")
	}
	time.Sleep(cooldown + 5*time.Millisecond)
	block := make(chan struct{})
	inner.mu.Lock()
	inner.block = block
	inner.mu.Unlock()
	probeErr := make(chan error, 1)
	go func() {
		_, err := rs.Get("a")
		probeErr <- err
	}()
	<-inner.entered

	cancel()
	if err := <-lockErr; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Lock error = %v, want context.Canceled", err)
	}

	// The probe is still in flight, so the next operation is rejected.
	next := make(chan error, 1)
	go func() {
		_, err := rs.Get("b")
		next <- err
	}()
	select {
	case err := <-next:
		if !errors.Is(err, ErrBreakerOpen) {
			t.Errorf("Get during the probe = %v, want ErrBreakerOpen", err)
		}
	case <-time.After(time.Second):
		t.Error("a second operation reached the store while the probe was in flight")
	}

	close(block)
	if err := <-probeErr; !errors.Is(err, ErrArtefactNotFound) {
		t.Fatalf("probe Get = %v, want the clean miss", err)
	}
	if st := rs.ResilienceStats(); st.BreakerState != "closed" || st.BreakerOpens != 1 {
		t.Fatalf("after the probe: stats = %+v, want a closed breaker opened once", st)
	}
}

// TestAsyncPublishDrainExpiryCountsDrops: when Close's drain times out
// behind a store that stopped answering, the publishes still queued are
// abandoned and must be counted as publish drops.
func TestAsyncPublishDrainExpiryCountsDrops(t *testing.T) {
	inner := newScriptStore()
	inner.block = make(chan struct{})
	inner.entered = make(chan struct{}, 4)
	defer close(inner.block) // release the worker stuck in the store
	rs := NewResilientStore(inner, ResilienceConfig{
		OpTimeout:        -1,
		Retries:          -1,
		BreakerThreshold: -1,
		AsyncPublish:     true,
		publishBudget:    2,
		drainTimeout:     20 * time.Millisecond,
	})

	rs.Put("a", []byte("A"))
	<-inner.entered // the worker is blocked inside inner.Put("a")
	rs.Put("b", []byte("B"))
	rs.Put("c", []byte("C"))

	if err := rs.Close(); err == nil || !strings.Contains(err.Error(), "publish drain exceeded") {
		t.Fatalf("Close = %v, want the drain-timeout error", err)
	}
	if st := rs.ResilienceStats(); st.PublishDrops != 2 {
		t.Fatalf("stats = %+v, want 2 publish drops (b and c were still queued)", st)
	}
}
