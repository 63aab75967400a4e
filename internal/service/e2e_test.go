package service

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cliflags"
	"repro/internal/scenario"
)

// slowSpecJSON is a migration scenario with a 20-virtual-hour
// post-migration tail (~1s wall per run, two runs): long enough that a
// signal sent right after dispatch reliably arrives mid-run, short
// enough to finish well inside a drain window.
const slowSpecJSON = `{"version":1,"name":"e2e-slow-tail","pair":"m01-m02","kind":"non-live","seed":7,
	"migrating":{"workload":{"profile":"idle"}},
	"timing":{"post_s":72000},
	"repeat":{"min_runs":2,"variance_tol":0.9}}`

// buildTool compiles one of the repo's commands into a temp dir.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/"+name)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

var listeningRE = regexp.MustCompile(`listening on (\S+)`)

// TestDaemonSIGTERMGracefulDrain is the process-level drain E2E: start
// the real wavm3d binary, put a 1024-host cluster run plus a
// deliberately slow migration run in flight, SIGTERM the daemon mid-run
// and require (a) both in-flight responses complete correctly, (b) the
// process exits 0 inside the drain window.
func TestDaemonSIGTERMGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a real daemon process")
	}
	scenDir, err := filepath.Abs(scenarioDir)
	if err != nil {
		t.Fatal(err)
	}
	bin := buildTool(t, "wavm3d")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-dir", scenDir, "-drain", "60s", "-max-concurrent", "4")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // no-op after a clean Wait

	// The daemon logs its resolved address; everything it says after
	// that is drained in the background for the failure report.
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

	type reply struct {
		which  string
		status int
		body   []byte
		err    error
	}
	replies := make(chan reply, 2)
	post := func(which, url, body string) {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			replies <- reply{which: which, err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		replies <- reply{which, resp.StatusCode, b, err}
	}
	go post("cluster", baseURL+"/v1/runs?name=drain-1024-rolling", "")
	go post("slow", baseURL+"/v1/runs", slowSpecJSON)

	// Let both runs get admitted and into the compute core, then pull
	// the plug the way an orchestrator would.
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		select {
		case r := <-replies:
			if r.err != nil {
				t.Fatalf("%s request failed: %v\n%s", r.which, r.err, logbuf.String())
			}
			if r.status != http.StatusOK {
				t.Fatalf("%s run answered %d during drain:\n%s\n%s", r.which, r.status, r.body, logbuf.String())
			}
			want := expectedFor(t, r.which)
			if !bytes.Equal(r.body, want) {
				t.Errorf("%s response differs from the CLI rendering", r.which)
			}
		case <-time.After(90 * time.Second):
			t.Fatalf("in-flight responses never arrived:\n%s", logbuf.String())
		}
	}

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited uncleanly after SIGTERM: %v\n%s", err, logbuf.String())
		}
	case <-time.After(90 * time.Second):
		t.Fatalf("daemon never exited after SIGTERM:\n%s", logbuf.String())
	}
}

// expectedFor renders the reference bytes for one of the drain E2E's
// two in-flight runs.
func expectedFor(t *testing.T, which string) []byte {
	t.Helper()
	switch which {
	case "cluster":
		spec, err := scenario.Load(filepath.Join(scenarioDir, "drain-1024-rolling.json"))
		if err != nil {
			t.Fatal(err)
		}
		return expectExec(t, spec)
	default:
		spec, err := scenario.Parse("slow", []byte(slowSpecJSON))
		if err != nil {
			t.Fatal(err)
		}
		return expectExec(t, spec)
	}
}

// TestTimeoutFlagExitCode: every batch command under an expiring
// -timeout aborts at a cancellation boundary and exits with the
// documented code 3, naming the deadline on stderr — and still stops
// its profilers, so -cpuprofile and -memprofile hold readable
// gzip-compressed profiles rather than empty files. The daemon has no
// session to bound, so it refuses -timeout with the usage code 2 and
// points at -run-timeout; its row is bounded so that a daemon which
// starts serving anyway fails the test instead of hanging it.
func TestTimeoutFlagExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real CLI processes")
	}
	specFile := filepath.Join(t.TempDir(), "slow.json")
	if err := os.WriteFile(specFile, []byte(slowSpecJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	// wavm3scen's slow spec is mid-run at 150ms. Figure 2's two shortened
	// runs finish within a millisecond, so the other batch rows use a
	// deadline that has passed before their first run starts.
	// The two wavm3bench rows cover a figure and a campaign.
	cases := []struct {
		name, tool string
		args       []string
		code       int
		inStderr   string
	}{
		{"wavm3scen", "wavm3scen", []string{"-timeout", "150ms", specFile}, cliflags.ExitDeadline, "deadline"},
		{"wavm3bench", "wavm3bench", []string{"-timeout", "1ns", "-only", "fig2"}, cliflags.ExitDeadline, "deadline"},
		{"wavm3bench campaign", "wavm3bench", []string{"-timeout", "1ns", "-quick", "-only", "table3"}, cliflags.ExitDeadline, "deadline"},
		{"wavm3sim", "wavm3sim", []string{"-timeout", "1ns", "-quick"}, cliflags.ExitDeadline, "deadline"},
		{"wavm3d", "wavm3d", []string{"-timeout", "1s", "-addr", "127.0.0.1:0"}, 2, "-run-timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bin := buildTool(t, tc.tool)
			args := tc.args
			var profiles []string
			if tc.code == cliflags.ExitDeadline {
				dir := t.TempDir()
				profiles = []string{filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")}
				args = append([]string{"-cpuprofile", profiles[0], "-memprofile", profiles[1]}, args...)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("%s %v still running after 60s:\n%s", tc.tool, tc.args, out)
			}
			var exitErr *exec.ExitError
			if !errors.As(err, &exitErr) {
				t.Fatalf("expected a non-zero exit, got err=%v\n%s", err, out)
			}
			if code := exitErr.ExitCode(); code != tc.code {
				t.Fatalf("exit code = %d, want %d\n%s", code, tc.code, out)
			}
			if !strings.Contains(string(out), tc.inStderr) {
				t.Errorf("output does not mention %q:\n%s", tc.inStderr, out)
			}
			for _, p := range profiles {
				data, err := os.ReadFile(p)
				if err != nil {
					t.Errorf("profile after the deadline exit: %v", err)
				} else if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
					t.Errorf("%s is not a gzip-compressed profile (%d bytes)", filepath.Base(p), len(data))
				}
			}
		})
	}
}
