package cliflags

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
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
	got, err := report.ReadBenchReport(c.BenchJSON)
	if err != nil {
		t.Fatal(err)
	}
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
	got, err := report.ReadBenchReport(c.BenchJSON)
	if err != nil {
		t.Fatal(err)
	}
	if got.BreakerState != "closed" || got.KernelRuns != 1 {
		t.Errorf("benchjson resilience fields: %+v", got)
	}
}
