package sim

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// slowScenario simulates ~5 virtual hours (~300ms wall) of
// post-migration tail — the one phase the migration hard cap does not
// bound — so a cancellation issued after dispatch reliably lands
// mid-run: the window is hundreds of milliseconds against microsecond
// signalling.
func slowScenario() Scenario {
	sc := cacheScenario(11)
	sc.PostMigration = 5 * time.Hour
	return sc
}

// TestRunCtxPreCancelled: a dead context aborts before any simulation
// work, with the context's own error.
func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, cacheScenario(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCtxCancelMidRun: cancellation lands between simulation steps
// and the run unwinds promptly instead of finishing its virtual hours.
func TestRunCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := RunCtx(ctx, slowScenario())
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // well inside the ~300ms run
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run did not unwind")
	}
}

// TestRunCtxBitIdentical: threading a live context changes nothing
// about the physics — RunCtx with a background context reproduces Run
// bit for bit.
func TestRunCtxBitIdentical(t *testing.T) {
	plain, err := Run(cacheScenario(9))
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := RunCtx(context.Background(), cacheScenario(9))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, ctxed) {
		t.Error("RunCtx result differs from Run")
	}
}

// TestCacheCancelledLeaderDoesNotPoisonWaiters is the singleflight
// regression test: a waiter joined to an in-flight computation whose
// leader gets cancelled must never receive the leader's
// context.Canceled — it re-dispatches and returns the bit-identical
// result an uncached Run produces.
func TestCacheCancelledLeaderDoesNotPoisonWaiters(t *testing.T) {
	c := NewCache(0)
	sc := slowScenario()

	leaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.RunCtx(leaderCtx, sc)
		leaderErr <- err
	}()
	// The leader has registered its entry once the miss is counted.
	waitStats(t, c, func(hits, misses uint64) bool { return misses >= 1 })

	type res struct {
		r   *RunResult
		err error
	}
	waiter := make(chan res, 1)
	go func() {
		r, err := c.RunCtx(context.Background(), sc)
		waiter <- res{r, err}
	}()
	// The waiter has joined the in-flight entry once the hit is counted.
	waitStats(t, c, func(hits, misses uint64) bool { return hits >= 1 })

	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	got := <-waiter
	if got.err != nil {
		t.Fatalf("waiter inherited the leader's fate: %v", got.err)
	}

	plain, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got.r) {
		t.Error("waiter's re-dispatched result is not bit-identical to an uncached run")
	}
	// The cancelled leader's entry must be gone; the waiter's
	// re-dispatch is a second miss that leaves a clean cached entry.
	if misses := c.Snapshot().Misses; misses != 2 {
		t.Errorf("misses = %d, want 2 (leader + waiter re-dispatch)", misses)
	}
	if n := c.Snapshot().Entries; n != 1 {
		t.Errorf("cache holds %d entries, want 1 (the waiter's)", n)
	}
}

// TestCacheCancelledWaiterLeavesLeader: a waiter whose own context dies
// while parked on an in-flight entry returns its context error without
// disturbing the leader or the entry.
func TestCacheCancelledWaiterLeavesLeader(t *testing.T) {
	c := NewCache(0)
	sc := slowScenario()

	type res struct {
		r   *RunResult
		err error
	}
	leader := make(chan res, 1)
	go func() {
		r, err := c.RunCtx(context.Background(), sc)
		leader <- res{r, err}
	}()
	waitStats(t, c, func(hits, misses uint64) bool { return misses >= 1 })

	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := c.RunCtx(waiterCtx, sc)
		waiter <- err
	}()
	waitStats(t, c, func(hits, misses uint64) bool { return hits >= 1 })

	cancelWaiter()
	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	got := <-leader
	if got.err != nil {
		t.Fatalf("leader failed after its waiter left: %v", got.err)
	}
	plain, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got.r) {
		t.Error("leader result is not bit-identical to an uncached run")
	}
}

// panicGetStore is a scriptStore whose first Get signals entered, waits
// for release and panics.
type panicGetStore struct {
	*scriptStore
	once             sync.Once
	entered, release chan struct{}
}

func (s *panicGetStore) Get(name string) ([]byte, error) {
	first := false
	s.once.Do(func() { first = true })
	if first {
		close(s.entered)
		<-s.release
		panic("injected store panic")
	}
	return s.scriptStore.Get(name)
}

// TestCacheLeaderPanicRedispatches: a leader whose store Get panics
// leaves nothing behind. The panic reaches the leader's own caller; a
// waiter that joined it re-dispatches and runs the scenario, and so does
// a later lookup of the same key, instead of either blocking on the
// abandoned entry until its deadline.
func TestCacheLeaderPanicRedispatches(t *testing.T) {
	store := &panicGetStore{scriptStore: newScriptStore(),
		entered: make(chan struct{}), release: make(chan struct{})}
	c := NewCacheWithStore(0, store)
	sc := diskScenario(21)

	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		c.RunCtx(context.Background(), sc)
	}()
	<-store.entered // the leader holds the entry, inside Get

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	type res struct {
		r   *RunResult
		err error
	}
	waiter := make(chan res, 1)
	go func() {
		r, err := c.RunCtx(ctx, sc)
		waiter <- res{r, err}
	}()
	// The waiter has joined the in-flight entry once the hit is counted.
	waitStats(t, c, func(hits, misses uint64) bool { return hits >= 1 })

	close(store.release)
	if p := <-leader; p == nil {
		t.Fatal("the store's panic did not reach the leader's caller")
	}
	want, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	got := <-waiter
	if got.err != nil || !reflect.DeepEqual(got.r, want) {
		t.Errorf("waiter of the panicked leader = %v; want the run", got.err)
	}
	if r, err := c.RunCtx(ctx, sc); err != nil || !reflect.DeepEqual(r, want) {
		t.Fatalf("lookup after the panic = %v; want the run", err)
	}
	if st := c.Snapshot(); st.KernelRuns != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 kernel run and 1 entry", st)
	}
}

// waitStats polls the cache counters until cond holds (the counters are
// the only externally visible ordering signal the cache exposes).
func waitStats(t *testing.T, c *Cache, cond func(hits, misses uint64) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := c.Snapshot(); cond(st.Hits, st.Misses) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("cache counters never reached the expected state")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
