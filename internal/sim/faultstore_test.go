package sim

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestFaultStoreDeterministic asserts two FaultStores with the same
// seed inject the identical fault sequence over the identical op
// sequence — the property that makes chaos runs reproducible.
func TestFaultStoreDeterministic(t *testing.T) {
	run := func() []string {
		inner := newScriptStore()
		inner.data["a"] = bytes.Repeat([]byte("x"), 64)
		fs := NewFaultStore(inner, FaultConfig{Seed: 42, ErrRate: 0.5, TornRate: 0.5})
		var outcomes []string
		for i := 0; i < 64; i++ {
			data, err := fs.Get("a")
			switch {
			case err != nil:
				outcomes = append(outcomes, "err")
			case len(data) < 64:
				outcomes = append(outcomes, "torn")
			default:
				outcomes = append(outcomes, "ok")
			}
		}
		return outcomes
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault sequences")
	}
	counts := map[string]int{}
	for _, o := range a {
		counts[o]++
	}
	for _, o := range []string{"err", "torn", "ok"} {
		if counts[o] == 0 {
			t.Errorf("outcome %q never occurred in 64 ops at 50%% rates: %v", o, counts)
		}
	}
}

// TestFaultStoreScheduleHeals asserts the scripted op-count window: the
// store is hostile for the first FaultyOps operations and a clean
// passthrough afterwards.
func TestFaultStoreScheduleHeals(t *testing.T) {
	inner := newScriptStore()
	inner.data["a"] = []byte("payload")
	fs := NewFaultStore(inner, FaultConfig{Seed: 1, ErrRate: 1.0, FaultyOps: 5})
	for i := 0; i < 5; i++ {
		if _, err := fs.Get("a"); err == nil {
			t.Fatalf("op %d inside the fault window succeeded", i)
		}
	}
	for i := 0; i < 5; i++ {
		if data, err := fs.Get("a"); err != nil || string(data) != "payload" {
			t.Fatalf("op %d after the window = %q, %v; want clean payload", 5+i, data, err)
		}
	}
}

// hostileStack builds the full production chain over a real DirStore —
// chaos beneath, policy on top, tuned tight so the test runs fast.
func hostileStack(t *testing.T, dir string, fault FaultConfig) *Cache {
	t.Helper()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	chain := NewResilientStore(NewFaultStore(store, fault), ResilienceConfig{
		OpTimeout:        100 * time.Millisecond,
		Retries:          2,
		BreakerThreshold: 8,
		BreakerCooldown:  20 * time.Millisecond,
		AsyncPublish:     true,
		lockTimeout:      250 * time.Millisecond,
		retryBase:        time.Millisecond,
		retryCap:         5 * time.Millisecond,
		drainTimeout:     2 * time.Second,
	})
	return NewCacheWithStore(0, chain)
}

// TestFaultyStoreTortureBitIdentical is the acceptance torture: a 30%
// fault rate (errors + torn reads + hangs + latency + lock failures)
// over a shared artefact directory, hammered by fresh caches across
// rounds. Every result must be bit-identical to the clean reference,
// every error nil, and kernel re-runs bounded — at worst one run per
// key per round (as if the store did not exist), at best one per key
// total.
func TestFaultyStoreTortureBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("torture test")
	}
	dir := t.TempDir()
	seeds := []int64{1, 2, 3, 4, 5, 6}
	want := map[int64]string{}
	for _, s := range seeds {
		res, err := Run(diskScenario(s))
		if err != nil {
			t.Fatal(err)
		}
		want[s] = fingerprint(diskScenario(s), res)
	}

	const rounds = 4
	var totalKernelRuns uint64
	for round := 0; round < rounds; round++ {
		c := hostileStack(t, dir, FaultConfig{
			Seed:    int64(1000 + round),
			ErrRate: 0.3, TornRate: 0.3, LockFailRate: 0.3,
			HangRate: 0.02, HangFor: 300 * time.Millisecond,
			Latency: 200 * time.Microsecond,
		})
		hammer(t, c, seeds, want, 4, 2)
		if err := c.Close(); err != nil {
			t.Errorf("round %d close: %v", round, err)
		}
		st := c.Snapshot()
		totalKernelRuns += st.KernelRuns
		if st.KernelRuns > uint64(len(seeds)) {
			t.Errorf("round %d ran %d kernels for %d keys: in-process singleflight broke", round, st.KernelRuns, len(seeds))
		}
	}
	if totalKernelRuns < uint64(len(seeds)) {
		t.Errorf("total kernel runs %d < %d keys: results came from nowhere", totalKernelRuns, len(seeds))
	}
	// The store itself must stay intact: a clean cache over the same dir
	// reads everything back bit-identical.
	clean := newDiskCache(t, dir)
	for _, s := range seeds {
		res, err := clean.RunCtx(context.Background(), diskScenario(s))
		if err != nil {
			t.Fatal(err)
		}
		if fp := fingerprint(diskScenario(s), res); fp != want[s] {
			t.Errorf("seed %d: artefact surviving the torture decodes to a different result", s)
		}
	}
	if st := clean.Snapshot(); st.Quarantined != 0 {
		t.Errorf("clean re-read quarantined %d artefacts: the torture published bad bytes", st.Quarantined)
	}
}

// TestFaultWindowBreakerRecloses is the end-to-end heal story: a store
// that is hostile for a fixed time window trips the breaker, and once
// the window closes the breaker re-closes and disk service resumes —
// with every result correct throughout.
func TestFaultWindowBreakerRecloses(t *testing.T) {
	dir := t.TempDir()
	sc := diskScenario(11)
	want, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}

	const window = 400 * time.Millisecond
	c := hostileStack(t, dir, FaultConfig{Seed: 3, ErrRate: 1.0, FaultFor: window})

	// Inside the window: every store op fails, the run still answers.
	got, err := c.RunCtx(context.Background(), sc)
	if err != nil {
		t.Fatalf("run during the fault window: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fault-window result differs from the uncached reference")
	}
	mid := c.Snapshot()
	if mid.StoreErrors == 0 {
		t.Errorf("mid-window stats = %+v, want counted store errors", mid)
	}

	// Drive distinct keys through the dead store until the breaker
	// trips; ErrBreakerOpen never surfaces to a caller. (Fresh keys each
	// time: a memory hit makes no store op, so repeats prove nothing.)
	for s := int64(100); mid.BreakerOpens == 0 && s < 140; s++ {
		if _, err := c.RunCtx(context.Background(), diskScenario(s)); err != nil {
			t.Fatalf("seed %d during fault window: %v", s, err)
		}
		mid = c.Snapshot()
	}
	if mid.BreakerOpens == 0 {
		t.Fatal("breaker never opened against a 100% faulty store")
	}

	// After the window, probes find the store healed: the breaker
	// re-closes. Again fresh keys — only store ops advance the breaker.
	time.Sleep(window + 50*time.Millisecond)
	deadline := time.Now().Add(10 * time.Second)
	probe := int64(200)
	for {
		if _, err := c.RunCtx(context.Background(), diskScenario(probe)); err != nil {
			t.Fatal(err)
		}
		if st := c.Snapshot(); st.BreakerState == "closed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker still %q long after the fault window closed", c.Snapshot().BreakerState)
		}
		probe++
		time.Sleep(10 * time.Millisecond)
	}

	// One more fresh key through the healed, closed-breaker store, then
	// drain: its artefact must land on disk and answer a fresh cache
	// from disk without a kernel run — warm hits have resumed.
	healed := diskScenario(999)
	if _, err := c.RunCtx(context.Background(), healed); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("drain after heal: %v", err)
	}
	c2 := newDiskCache(t, dir)
	if _, err := c2.RunCtx(context.Background(), healed); err != nil {
		t.Fatal(err)
	}
	if st := c2.Snapshot(); st.DiskHits != 1 || st.KernelRuns != 0 {
		t.Errorf("healed-store warm read stats = %+v, want 1 disk hit, 0 kernel runs", st)
	}
}

// TestTornReadReprobe asserts the cache's single re-probe distinguishes
// a transiently torn read (second read decodes; no quarantine) from
// persistent corruption (still quarantined exactly once).
func TestTornReadReprobe(t *testing.T) {
	dir := t.TempDir()
	sc := diskScenario(5)
	seed := newDiskCache(t, dir)
	if _, err := seed.RunCtx(context.Background(), sc); err != nil {
		t.Fatal(err)
	}

	// tearOnce truncates the first Get's bytes and serves the rest clean.
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCacheWithStore(0, &tearOnceStore{CacheStore: store})
	got, err := c.RunCtx(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, _ := seed.RunCtx(context.Background(), sc)
	if !reflect.DeepEqual(got, wantRes) {
		t.Fatal("re-probed result differs")
	}
	if st := c.Snapshot(); st.Quarantined != 0 || st.KernelRuns != 0 || st.DiskHits != 1 {
		t.Errorf("stats after transient tear = %+v, want a plain disk hit", st)
	}
	if files := artefactFiles(t, dir); len(files) != 1 {
		t.Errorf("transient tear left %d artefacts, want the original 1", len(files))
	}
}

// tearOnceStore truncates the first Get it serves.
type tearOnceStore struct {
	CacheStore
	torn bool
}

func (s *tearOnceStore) Get(name string) ([]byte, error) {
	data, err := s.CacheStore.Get(name)
	if err == nil && !s.torn && len(data) > 8 {
		s.torn = true
		return data[:len(data)/2], nil
	}
	return data, err
}

// TestFaultStoreCloseReleasesHangs asserts Close unblocks an in-flight
// injected hang, so a daemon shutting down mid-outage does not wait out
// HangFor.
func TestFaultStoreCloseReleasesHangs(t *testing.T) {
	inner := newScriptStore()
	fs := NewFaultStore(inner, FaultConfig{Seed: 1, HangRate: 1.0, HangFor: time.Minute})
	done := make(chan error, 1)
	go func() {
		_, err := fs.Get("a")
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrArtefactNotFound) {
			t.Fatalf("released Get = %v, want the clean miss beneath", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not release the injected hang")
	}
}
