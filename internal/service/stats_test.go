package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cliflags"
	"repro/internal/migration"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// scriptedStore is an in-memory sim.CacheStore whose next Gets follow a
// script: "fail" errors, "rot" answers with bytes that are no artefact,
// and "hang" waits for release before answering.
type scriptedStore struct {
	mu      sync.Mutex
	data    map[string][]byte
	script  []string
	release chan struct{}
}

func (s *scriptedStore) Get(name string) ([]byte, error) {
	s.mu.Lock()
	var op string
	if len(s.script) > 0 {
		op, s.script = s.script[0], s.script[1:]
	}
	s.mu.Unlock()
	switch op {
	case "fail":
		return nil, errors.New("injected store failure")
	case "rot":
		return []byte("rotten"), nil
	case "hang":
		<-s.release
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if data, ok := s.data[name]; ok {
		return data, nil
	}
	return nil, sim.ErrArtefactNotFound
}

func (s *scriptedStore) Put(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[name] = data
	return nil
}

func (s *scriptedStore) Quarantine(name, reason string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, name)
	return nil
}

func (s *scriptedStore) Lock(context.Context, string) (func(), error) { return func() {}, nil }

// everyCounterCache returns a persistent cache that has been through a
// disk hit, a memory hit, a quarantine, a store error, retries, a
// timeout, breaker trips and dropped publishes, so every counter of its
// Snapshot is nonzero.
func everyCounterCache(t *testing.T) *sim.Cache {
	t.Helper()
	store := &scriptedStore{data: map[string][]byte{}, release: make(chan struct{})}
	t.Cleanup(func() { close(store.release) })
	cache := sim.NewCacheWithStore(0, sim.NewResilientStore(store, sim.ResilienceConfig{
		OpTimeout: 50 * time.Millisecond, Retries: 1, BreakerThreshold: 2, AsyncPublish: true,
	}))
	run := func(seed int64) {
		t.Helper()
		sc := sim.Scenario{Kind: migration.NonLive, MigratingProfile: workload.IdleProfile(), Seed: seed}
		if _, err := cache.RunCtx(context.Background(), sc); err != nil {
			t.Fatal(err)
		}
	}
	run(1)
	// Close drains run 1's publish; every later publish is dropped.
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	// Run 2 quarantines two rotten reads, then its locked re-read fails
	// twice and opens the breaker. Run 3's first Get is the half-open
	// probe: it times out, re-opens the breaker, and its retry re-closes it.
	store.mu.Lock()
	store.script = []string{"rot", "rot", "fail", "fail", "hang"}
	store.mu.Unlock()
	run(2)
	run(3)
	cache.Clear()
	run(1) // a disk hit
	run(1) // a memory hit
	st := cache.Snapshot()
	v := reflect.ValueOf(st)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("fixture left %s zero: %+v", v.Type().Field(i).Name, st)
		}
	}
	return cache
}

// TestRenderedCacheStatsMatchSnapshot: -benchjson and /healthz render
// the run cache's counters as the one sim.CacheStats, so each decodes
// back into a CacheStats equal to the cache's Snapshot. Every counter of
// the fixture is nonzero, so a renderer that dropped one would fail.
func TestRenderedCacheStatsMatchSnapshot(t *testing.T) {
	cache := everyCounterCache(t)
	want := cache.Snapshot()

	s, err := New(Config{Cache: cache, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health struct {
		Cache *healthCache `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Cache == nil || health.Cache.CacheStats != want || !health.Cache.Persistent {
		t.Errorf("/healthz cache block = %s, want %+v of a persistent cache", rec.Body.Bytes(), want)
	}

	c := &cliflags.Common{BenchJSON: filepath.Join(t.TempDir(), "perf.json")}
	if err := c.Finish(&bytes.Buffer{}, c.NewBenchReport("t"), cache, time.Now()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(c.BenchJSON)
	if err != nil {
		t.Fatal(err)
	}
	var perf report.BenchReport
	if err := json.Unmarshal(b, &perf); err != nil {
		t.Fatal(err)
	}
	if perf.CacheStats != want {
		t.Errorf("-benchjson cache stats = %+v, want %+v", perf.CacheStats, want)
	}
}
