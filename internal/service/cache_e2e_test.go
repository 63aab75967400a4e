package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// runScenLibrary executes the real wavm3scen binary over the whole
// scenario library against cacheDir, returning its exact stdout and the
// parsed bench report.
func runScenLibrary(t *testing.T, bin, scenDir, cacheDir, benchPath string) ([]byte, *report.BenchReport) {
	t.Helper()
	cmd := exec.Command(bin, "-dir", scenDir, "-cache-dir", cacheDir, "-benchjson", benchPath)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("wavm3scen failed: %v\n%s", err, stderr.String())
	}
	b, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var perf report.BenchReport
	if err := json.Unmarshal(b, &perf); err != nil {
		t.Fatal(err)
	}
	return stdout.Bytes(), &perf
}

// healthCache is the /healthz cache block.
type healthCache struct {
	sim.CacheStats
	Persistent bool `json:"persistent"`
}

func getHealthCache(t *testing.T, baseURL string) healthCache {
	t.Helper()
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Cache *healthCache `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Cache == nil {
		t.Fatal("healthz has no cache block")
	}
	return *h.Cache
}

// TestDiskCacheCrossProcessE2E is the persistent cache's end-to-end
// acceptance gate, run against the real binaries:
//
//  1. wavm3scen runs the whole scenario library cold against an empty
//     cache dir, then a second process runs it warm against the same
//     dir — stdout must be byte-identical and the warm session must
//     report zero kernel runs (every simulation answered from disk).
//  2. wavm3d starts over the CLI-populated dir and serves a library
//     scenario — the HTTP bytes must equal the shared-renderer
//     reference, and the daemon's health surface must show the run was
//     served without a single kernel execution.
func TestDiskCacheCrossProcessE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real processes over the full scenario library")
	}
	scenDir, err := filepath.Abs(scenarioDir)
	if err != nil {
		t.Fatal(err)
	}
	cacheDir := t.TempDir()
	benchDir := t.TempDir()
	scen := buildTool(t, "wavm3scen")

	cold, coldPerf := runScenLibrary(t, scen, scenDir, cacheDir, filepath.Join(benchDir, "cold.json"))
	if coldPerf.KernelRuns == 0 || coldPerf.DiskHits != 0 {
		t.Fatalf("cold run stats implausible: kernel_runs=%d disk_hits=%d", coldPerf.KernelRuns, coldPerf.DiskHits)
	}

	warm, warmPerf := runScenLibrary(t, scen, scenDir, cacheDir, filepath.Join(benchDir, "warm.json"))
	if !bytes.Equal(cold, warm) {
		t.Error("warm stdout differs from cold stdout")
	}
	// The headline invariant: a warm library session runs no kernels.
	if warmPerf.KernelRuns != 0 {
		t.Errorf("warm run executed %d kernels, want 0", warmPerf.KernelRuns)
	}
	if warmPerf.DiskMisses != 0 || warmPerf.DiskHits == 0 {
		t.Errorf("warm run disk stats: hits=%d misses=%d, want all hits", warmPerf.DiskHits, warmPerf.DiskMisses)
	}
	if warmPerf.Quarantined != 0 {
		t.Errorf("warm run quarantined %d artefacts in an intact dir", warmPerf.Quarantined)
	}
	for _, a := range warmPerf.Artefacts {
		if a.DiskMisses != 0 {
			t.Errorf("artefact %s missed disk %d times on a warm dir", a.ID, a.DiskMisses)
		}
	}

	// Phase 2: a daemon over the CLI-populated dir serves warm.
	daemon := buildTool(t, "wavm3d")
	cmd := exec.Command(daemon, "-addr", "127.0.0.1:0", "-dir", scenDir, "-cache-dir", cacheDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	var logbuf bytes.Buffer
	sc := bufio.NewScanner(stderr)
	var baseURL string
	for sc.Scan() {
		line := sc.Text()
		logbuf.WriteString(line + "\n")
		if m := listeningRE.FindStringSubmatch(line); m != nil {
			baseURL = "http://" + m[1]
			break
		}
	}
	if baseURL == "" {
		t.Fatalf("daemon never reported its address:\n%s", logbuf.String())
	}
	go func() {
		for sc.Scan() {
			logbuf.WriteString(sc.Text() + "\n")
		}
	}()

	if h := getHealthCache(t, baseURL); !h.Persistent || h.KernelRuns != 0 {
		t.Fatalf("fresh daemon health cache = %+v, want persistent with 0 kernel runs", h)
	}

	const name = "memstorm-live"
	resp, err := http.Post(baseURL+"/v1/runs?name="+name, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("run answered %d: %v\n%s", resp.StatusCode, err, body)
	}
	spec, err := scenario.Load(filepath.Join(scenDir, name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := expectExec(t, spec); !bytes.Equal(body, want) {
		t.Error("daemon response differs from the shared-renderer reference")
	}

	h := getHealthCache(t, baseURL)
	if h.KernelRuns != 0 {
		t.Errorf("daemon ran %d kernels serving a warm dir, want 0", h.KernelRuns)
	}
	if h.DiskHits == 0 || h.DiskMisses != 0 || h.Quarantined != 0 {
		t.Errorf("daemon disk stats = %+v, want pure disk hits", h)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited uncleanly: %v\n%s", err, logbuf.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon never exited after SIGTERM:\n%s", logbuf.String())
	}
}
