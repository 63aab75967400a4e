package sim

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Environment contract between TestCacheConcurrentTorture and the child
// processes it re-executes (the standard re-exec pattern: the test
// binary runs itself with -test.run pinned to the helper).
const (
	tortureDirEnv   = "WAVM3_TORTURE_DIR"
	tortureSeedsEnv = "WAVM3_TORTURE_SEEDS"
)

// fingerprint condenses a result to a comparable identity: the SHA-256
// of its canonical artefact encoding. Two results fingerprint equal iff
// they are bit-identical.
func fingerprint(sc Scenario, res *RunResult) string {
	keyBytes := encodeCacheKey(cacheKey(sc))
	sum := sha256.Sum256(encodeArtefact(keyBytes, sha256.Sum256(keyBytes), res))
	return hex.EncodeToString(sum[:])
}

// hammer runs every seed repeatedly from workers goroutines against one
// cache, checking each result against the expected fingerprints.
func hammer(t *testing.T, c *Cache, seeds []int64, want map[int64]string, workers, reps int) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				for i := range seeds {
					s := seeds[(i+g+rep)%len(seeds)] // varied order: same-key and cross-key contention
					res, err := c.RunCtx(context.Background(), diskScenario(s))
					if err != nil {
						t.Errorf("seed %d: %v", s, err)
						return
					}
					if fp := fingerprint(diskScenario(s), res); fp != want[s] {
						t.Errorf("seed %d: fingerprint %s, want %s", s, fp, want[s])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCacheTortureHelper is the body of a torture child process; it
// skips unless re-executed by TestCacheConcurrentTorture with the
// environment contract set. It hammers the shared cache dir from
// several goroutines and reports its kernel-run count and per-seed
// result fingerprints on stdout.
func TestCacheTortureHelper(t *testing.T) {
	dir := os.Getenv(tortureDirEnv)
	if dir == "" {
		t.Skip("torture child process only")
	}
	var seeds []int64
	for _, f := range strings.Split(os.Getenv(tortureSeedsEnv), ",") {
		s, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, s)
	}
	c := newDiskCache(t, dir)
	fps := make(map[int64]string)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				for i := range seeds {
					s := seeds[(i+g+rep)%len(seeds)]
					if _, err := c.RunCtx(context.Background(), diskScenario(s)); err != nil {
						t.Errorf("seed %d: %v", s, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, s := range seeds {
		res, err := c.RunCtx(context.Background(), diskScenario(s)) // memory hit; no extra kernel run
		if err != nil {
			t.Fatal(err)
		}
		fps[s] = fingerprint(diskScenario(s), res)
	}
	for _, s := range seeds {
		fmt.Printf("torture-fp seed=%d %s\n", s, fps[s])
	}
	st := c.Snapshot()
	fmt.Printf("torture-kernelruns=%d storeerrors=%d\n", st.KernelRuns, st.StoreErrors)
}

// TestCacheConcurrentTorture hammers one cache dir from every direction
// at once — two in-process caches × several goroutines each, plus two
// real child processes running TestCacheTortureHelper — over a key set
// mixing same-key and distinct-key contention. It asserts the global
// no-duplicate-work invariant (total kernel runs across all four
// participants equals the number of distinct keys: the flock
// singleflight elected exactly one owner per key), bit-identical
// results everywhere, and no leaked goroutines.
func TestCacheConcurrentTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process torture skipped in -short")
	}
	dir := t.TempDir()
	seeds := []int64{201, 202, 203}
	var seedList []string
	want := make(map[int64]string)
	for _, s := range seeds {
		res, err := Run(diskScenario(s)) // uncached references, no cache dir traffic
		if err != nil {
			t.Fatal(err)
		}
		want[s] = fingerprint(diskScenario(s), res)
		seedList = append(seedList, strconv.FormatInt(s, 10))
	}

	goroutinesBefore := runtime.NumGoroutine()

	// Two real processes racing the same dir.
	type childResult struct {
		out []byte
		err error
	}
	childc := make(chan childResult, 2)
	for i := 0; i < 2; i++ {
		go func() {
			cmd := exec.Command(os.Args[0], "-test.run=^TestCacheTortureHelper$")
			cmd.Env = append(os.Environ(),
				tortureDirEnv+"="+dir,
				tortureSeedsEnv+"="+strings.Join(seedList, ","))
			out, err := cmd.CombinedOutput()
			childc <- childResult{out, err}
		}()
	}

	// Two in-process caches (separate memory tiers, shared disk tier).
	caches := []*Cache{newDiskCache(t, dir), newDiskCache(t, dir)}
	var wg sync.WaitGroup
	for _, c := range caches {
		wg.Add(1)
		go func(c *Cache) {
			defer wg.Done()
			hammer(t, c, seeds, want, 4, 3)
		}(c)
	}
	wg.Wait()

	totalKernelRuns := caches[0].Snapshot().KernelRuns + caches[1].Snapshot().KernelRuns
	for i := 0; i < 2; i++ {
		r := <-childc
		if r.err != nil {
			t.Fatalf("torture child failed: %v\n%s", r.err, r.out)
		}
		k, fps := parseTortureOutput(t, r.out)
		totalKernelRuns += k
		for s, fp := range fps {
			if fp != want[s] {
				t.Errorf("child seed %d: fingerprint %s, want %s", s, fp, want[s])
			}
		}
		if len(fps) != len(seeds) {
			t.Errorf("child reported %d fingerprints, want %d:\n%s", len(fps), len(seeds), r.out)
		}
	}

	if totalKernelRuns != uint64(len(seeds)) {
		t.Errorf("total kernel runs across 4 participants = %d, want %d (one per distinct key)",
			totalKernelRuns, len(seeds))
	}
	for i, c := range caches {
		if st := c.Snapshot(); st.StoreErrors != 0 || st.Quarantined != 0 {
			t.Errorf("cache %d saw store trouble under contention: %+v", i, st)
		}
	}

	// Goroutine-leak check: everything the torture spawned must unwind.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutinesBefore {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines leaked: %d before, %d after\n%s",
			goroutinesBefore, n, buf[:runtime.Stack(buf, true)])
	}
}

// parseTortureOutput extracts a child's kernel-run count and per-seed
// fingerprints from its stdout.
func parseTortureOutput(t *testing.T, out []byte) (kernelRuns uint64, fps map[int64]string) {
	t.Helper()
	fps = make(map[int64]string)
	found := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "torture-kernelruns="):
			var storeErrors uint64
			if _, err := fmt.Sscanf(line, "torture-kernelruns=%d storeerrors=%d", &kernelRuns, &storeErrors); err != nil {
				t.Fatalf("malformed torture line %q: %v", line, err)
			}
			if storeErrors != 0 {
				t.Errorf("child saw %d store errors under contention", storeErrors)
			}
			found = true
		case strings.HasPrefix(line, "torture-fp "):
			var seed int64
			var fp string
			if _, err := fmt.Sscanf(line, "torture-fp seed=%d %s", &seed, &fp); err != nil {
				t.Fatalf("malformed torture line %q: %v", line, err)
			}
			fps[seed] = fp
		}
	}
	if !found {
		t.Fatalf("child reported no kernel-run count:\n%s", out)
	}
	return kernelRuns, fps
}
