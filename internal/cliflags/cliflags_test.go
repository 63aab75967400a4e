package cliflags

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/migration"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestRegisterParses(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c := Register(fs)
	if err := fs.Parse([]string{"-workers", "3", "-nocache", "-benchjson", "p.json"}); err != nil {
		t.Fatal(err)
	}
	if c.Workers != 3 || !c.NoCache || c.BenchJSON != "p.json" {
		t.Errorf("parsed %+v", c)
	}
	if cache, err := c.Cache(); err != nil || cache != nil {
		t.Errorf("-nocache must yield a nil cache (got %v, %v)", cache, err)
	}
	c.NoCache = false
	if cache, err := c.Cache(); err != nil || cache == nil {
		t.Errorf("default must yield a cache (got %v, %v)", cache, err)
	}
}

func TestCacheDirBuildsPersistentCache(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c := Register(fs)
	dir := filepath.Join(t.TempDir(), "runcache")
	if err := fs.Parse([]string{"-cache-dir", dir}); err != nil {
		t.Fatal(err)
	}
	cache, err := c.Cache()
	if err != nil {
		t.Fatal(err)
	}
	if !cache.Persistent() {
		t.Error("-cache-dir must yield a persistent cache")
	}
	if _, err := os.Stat(dir); err != nil {
		t.Errorf("cache dir not created: %v", err)
	}
	// -nocache overrides -cache-dir: no caching of any kind.
	c.NoCache = true
	if cache, err := c.Cache(); err != nil || cache != nil {
		t.Errorf("-nocache with -cache-dir must yield a nil cache (got %v, %v)", cache, err)
	}
	// An unusable directory is a startup error, not a silent downgrade.
	c.NoCache = false
	file := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c.CacheDir = file
	if _, err := c.Cache(); err == nil {
		t.Error("a file as -cache-dir must error")
	}
}

func TestFinishWritesBenchJSON(t *testing.T) {
	c := &Common{Workers: 2, BenchJSON: filepath.Join(t.TempDir(), "perf.json")}
	perf := c.NewBenchReport("tool-x")
	if perf.Workers != 2 {
		t.Errorf("workers not recorded: %+v", perf)
	}
	perf.Add("stage", time.Second)
	cache, err := c.Cache()
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if err := c.Finish(&log, perf, cache, time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	if perf.TotalSeconds <= 0 {
		t.Error("total not sealed")
	}
	if !strings.Contains(log.String(), "tool-x: run cache:") {
		t.Errorf("cache stats not logged: %q", log.String())
	}
	got := readBenchReport(t, c.BenchJSON)
	if got.Tool != "tool-x" || len(got.Artefacts) != 1 {
		b, _ := json.Marshal(got)
		t.Errorf("round-tripped report: %s", b)
	}
}

func TestFinishNilCacheSilent(t *testing.T) {
	c := &Common{NoCache: true}
	perf := c.NewBenchReport("t")
	cache, err := c.Cache()
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if err := c.Finish(&log, perf, cache, time.Now()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(log.String(), "run cache") {
		t.Errorf("nil cache logged stats: %q", log.String())
	}
}

func TestResilienceFlagsParse(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c := Register(fs)
	err := fs.Parse([]string{
		"-cache-op-timeout", "500ms",
		"-cache-retries", "1",
		"-cache-breaker", "3",
		"-cache-breaker-cooldown", "200ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.CacheOpTimeout != 500*time.Millisecond ||
		c.CacheRetries != 1 || c.CacheBreaker != 3 ||
		c.CacheBreakerCooldown != 200*time.Millisecond {
		t.Errorf("parsed %+v", c)
	}
}

// faultStore is an in-memory sim.CacheStore holding no artefact: it
// fails its next fails operations, holds each operation until hold
// closes when hold is set, and counts the operations that reach it.
type faultStore struct {
	mu           sync.Mutex
	fails, calls int
	hold         chan struct{}
}

func (s *faultStore) op() error {
	s.mu.Lock()
	s.calls++
	fail := s.fails > 0
	if fail {
		s.fails--
	}
	s.mu.Unlock()
	if s.hold != nil {
		<-s.hold
	}
	if fail {
		return errors.New("injected store failure")
	}
	return nil
}

func (s *faultStore) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func (s *faultStore) Get(string) ([]byte, error) {
	if err := s.op(); err != nil {
		return nil, err
	}
	return nil, sim.ErrArtefactNotFound
}

func (s *faultStore) Put(string, []byte) error        { return s.op() }
func (s *faultStore) Quarantine(string, string) error { return s.op() }
func (s *faultStore) Lock(context.Context, string) (func(), error) {
	return func() {}, s.op()
}

// TestCacheFlagsZeroMeansOff pins the store policy's one definition:
// the default flag values build the policy the commands have always
// run, and each of the four -cache-* flags at 0 turns its mechanism
// off, checked on a store that fails on cue.
func TestCacheFlagsZeroMeansOff(t *testing.T) {
	policy := func(args ...string) sim.ResilienceConfig {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		c := Register(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return c.resilience()
	}
	def := sim.ResilienceConfig{OpTimeout: 2 * time.Second, Retries: 2,
		BreakerThreshold: 5, BreakerCooldown: time.Second, AsyncPublish: true}
	if got := policy(); got != def {
		t.Fatalf("default flags build %+v, want %+v", got, def)
	}

	for _, tc := range []struct {
		flag  string
		field func(*sim.ResilienceConfig)
		// check drives the store built from the flag at 0.
		check func(t *testing.T, rs *sim.ResilientStore, inner *faultStore)
	}{
		{"-cache-op-timeout", func(c *sim.ResilienceConfig) { c.OpTimeout = 0 },
			func(t *testing.T, rs *sim.ResilientStore, inner *faultStore) {
				// A store slower than any bound still answers.
				inner.hold = make(chan struct{})
				time.AfterFunc(50*time.Millisecond, func() { close(inner.hold) })
				if _, err := rs.Get("a"); !errors.Is(err, sim.ErrArtefactNotFound) {
					t.Errorf("held Get = %v, want the store's answer", err)
				}
			}},
		{"-cache-retries", func(c *sim.ResilienceConfig) { c.Retries = 0 },
			func(t *testing.T, rs *sim.ResilientStore, inner *faultStore) {
				inner.fails = 1
				if _, err := rs.Get("a"); err == nil || inner.callCount() != 1 {
					t.Errorf("failing Get = %v after %d store calls, want its failure after 1", err, inner.callCount())
				}
			}},
		{"-cache-breaker", func(c *sim.ResilienceConfig) { c.BreakerThreshold = 0 },
			func(t *testing.T, rs *sim.ResilientStore, inner *faultStore) {
				// Nine consecutive failures, past the default threshold of 5,
				// all reach the store.
				inner.fails = 1 << 30
				for i := 0; i < 3; i++ {
					if _, err := rs.Get("a"); errors.Is(err, sim.ErrBreakerOpen) {
						t.Fatalf("Get %d: %v with the breaker off", i, err)
					}
				}
				if n := inner.callCount(); n != 9 {
					t.Errorf("%d store calls, want 9 (3 Gets of 3 attempts)", n)
				}
			}},
		{"-cache-breaker-cooldown", func(c *sim.ResilienceConfig) { c.BreakerCooldown = 0 },
			func(t *testing.T, rs *sim.ResilientStore, inner *faultStore) {
				// The fifth failure, the second Get's second attempt, opens
				// the breaker, and its retry is the half-open probe.
				inner.fails = 5
				rs.Get("a")
				if _, err := rs.Get("a"); !errors.Is(err, sim.ErrArtefactNotFound) {
					t.Errorf("Get that opened the breaker = %v, want its probe's answer", err)
				}
				if st := rs.ResilienceStats(); st.BreakerOpens != 1 || st.BreakerState != "closed" {
					t.Errorf("stats = %+v, want a breaker that opened once and re-closed", st)
				}
			}},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			want := def
			tc.field(&want)
			got := policy(tc.flag, "0")
			if got != want {
				t.Fatalf("%s 0 builds %+v, want %+v", tc.flag, got, want)
			}
			inner := &faultStore{}
			rs := sim.NewResilientStore(inner, got)
			defer rs.Close()
			tc.check(t, rs, inner)
		})
	}
}

// TestFinishFlushesAsyncPublishes is the reason Finish closes the cache:
// artefacts published asynchronously during the session must be on disk
// by the time Finish returns (the CI cold→warm gate depends on it), and
// the resilience counters must appear in the benchjson.
func TestFinishFlushesAsyncPublishes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runcache")
	c := &Common{CacheDir: dir, CacheRetries: 2, CacheBreaker: 5,
		CacheOpTimeout: 2 * time.Second, CacheBreakerCooldown: time.Second,
		BenchJSON: filepath.Join(t.TempDir(), "perf.json")}
	cache, err := c.Cache()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cache.RunCtx(context.Background(), sim.Scenario{Kind: migration.NonLive, MigratingProfile: workload.IdleProfile(), Seed: 77}); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if err := c.Finish(&log, c.NewBenchReport("t"), cache, time.Now()); err != nil {
		t.Fatal(err)
	}
	arts, err := filepath.Glob(filepath.Join(dir, "*.run"))
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 1 {
		t.Fatalf("%d artefacts on disk after Finish, want 1 (async publish not drained)", len(arts))
	}
	if !strings.Contains(log.String(), "store policy:") {
		t.Errorf("store policy line not logged: %q", log.String())
	}
	got := readBenchReport(t, c.BenchJSON)
	if got.BreakerState != "closed" || got.KernelRuns != 1 {
		t.Errorf("benchjson resilience fields: %+v", got)
	}
}

// readBenchReport decodes the -benchjson file at path.
func readBenchReport(t *testing.T, path string) *report.BenchReport {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r report.BenchReport
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	return &r
}
