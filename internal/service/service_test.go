package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
)

const scenarioDir = "../../scenarios"

// minimalSpec is a valid spec body cheap enough that request-handling
// tests never wait on simulation physics (the blocking tests replace
// execution with an override anyway).
const minimalSpec = `{"version":1,"name":"svc-test","pair":"m01-m02","kind":"non-live",
	"migrating":{"workload":{"profile":"idle"}}}`

// newTestServer starts a Server on a loopback listener and returns its
// base URL. Shutdown and Serve-error checking happen in cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	t.Cleanup(func() {
		if err := s.Shutdown(10 * time.Second); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	})
	return s, "http://" + ln.Addr().String()
}

// postRun POSTs a run request and returns status, body and headers.
func postRun(t *testing.T, url, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

// errCode extracts the stable error code from a JSON error envelope.
func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var env struct {
		Error apiError `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("response is not the JSON error envelope: %v\n%s", err, body)
	}
	return env.Error.Code
}

// expectExec renders the scenario through the shared executor — the
// bytes a daemon response must match exactly.
func expectExec(t *testing.T, spec *scenario.Spec) []byte {
	t.Helper()
	c, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Exec(context.Background(), &buf, c, 0, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHealthAndReady(t *testing.T) {
	_, url := newTestServer(t, Config{})
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(url + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", ep, resp.StatusCode)
		}
	}
}

func TestScenarioListing(t *testing.T) {
	_, url := newTestServer(t, Config{ScenarioDir: scenarioDir})
	resp, err := http.Get(url + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Scenarios []scenarioEntry `json:"scenarios"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	specs, err := scenario.LoadDir(scenarioDir)
	if err != nil {
		t.Fatal(err)
	}
	described := map[string]string{}
	for _, s := range specs {
		described[s.Name] = s.Description
	}
	// The whole library in name order, with each entry's form, host
	// count and phase count; descriptions come from the specs.
	want := []scenarioEntry{
		{Name: "burst-overcommit-8", Form: "cluster", Hosts: 8},
		{Name: "burst-web", Form: "migration", Phases: 2},
		{Name: "c1-cpuload-live", Form: "migration"},
		{Name: "c1-cpuload-nonlive", Form: "migration"},
		{Name: "c2-xeon-memload", Form: "migration"},
		{Name: "chaos-crash-cascade-16", Form: "cluster", Hosts: 16},
		{Name: "consolidation-sweep", Form: "datacenter"},
		{Name: "contended-links-4", Form: "cluster", Hosts: 4},
		{Name: "diurnal-day", Form: "migration", Phases: 4},
		{Name: "drain-100k-rolling", Form: "cluster", Hosts: 100000},
		{Name: "drain-1024-rolling", Form: "cluster", Hosts: 1024},
		{Name: "drain-16-maintenance", Form: "cluster", Hosts: 16},
		{Name: "drain-for-maintenance", Form: "datacenter"},
		{Name: "drain-under-crash-256", Form: "cluster", Hosts: 256},
		{Name: "fleet-8k", Form: "cluster", Hosts: 8000},
		{Name: "fleet-diurnal-256", Form: "cluster", Hosts: 256},
		{Name: "fleet-diurnal-8", Form: "cluster", Hosts: 8},
		{Name: "hetero-sunset-6", Form: "cluster", Hosts: 6},
		{Name: "hetero-upgrade", Form: "migration"},
		{Name: "hotcold-db", Form: "migration"},
		{Name: "memstorm-live", Form: "migration"},
		{Name: "memstorm-postcopy", Form: "migration"},
		{Name: "meter-1hz", Form: "migration"},
		{Name: "nonlive-baseline", Form: "migration"},
		{Name: "overcommit-stress", Form: "migration"},
		{Name: "partitioned-switch-evac-8", Form: "cluster", Hosts: 8},
		{Name: "ramp-batch", Form: "migration", Phases: 2},
	}
	if len(out.Scenarios) != len(want) {
		t.Fatalf("listing has %d scenarios, want %d:\n%+v", len(out.Scenarios), len(want), out.Scenarios)
	}
	for i, w := range want {
		w.Description = described[w.Name]
		if w.Description == "" {
			t.Errorf("%s has no description in the library", w.Name)
		}
		if out.Scenarios[i] != w {
			t.Errorf("entry %d = %+v\n  want %+v", i, out.Scenarios[i], w)
		}
	}
}

// TestRunSpecBodyMatchesCLI: a POSTed spec answers 200 with exactly the
// bytes wavm3scen prints for the same scenario, which must run.
func TestRunSpecBodyMatchesCLI(t *testing.T) {
	_, url := newTestServer(t, Config{Cache: sim.NewCache(0)})
	library, err := os.ReadFile(filepath.Join(scenarioDir, "nonlive-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, body string }{
		{"library spec", string(library)},
		// A first-fit-decreasing round that places no guest: three of 15
		// busy vCPUs on two 32-thread hosts, none over its threads.
		{"first-fit-decreasing round that places no guest", `{"version":1,"name":"ffd-stuck","kind":"live",
		"cluster":{"horizon_s":600,"tick_s":300,"policy":"first-fit-decreasing","hosts":[
		{"name":"h01","machine":"m01","vms":[{"name":"v1","mem_gib":4,"busy_vcpus":15},{"name":"v2","mem_gib":4,"busy_vcpus":15}]},
		{"name":"h02","machine":"m01","vms":[{"name":"v3","mem_gib":4,"busy_vcpus":15}]}]}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := scenario.Parse(tc.name, []byte(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			want := expectExec(t, spec)
			status, got, hdr := postRun(t, url+"/v1/runs", tc.body)
			if status != http.StatusOK {
				t.Fatalf("status = %d\n%s", status, got)
			}
			if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
				t.Errorf("Content-Type = %q", ct)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("response differs from the CLI rendering:\ngot:\n%swant:\n%s", got, want)
			}
		})
	}
}

// TestRunByNameMatchesCLI: library runs via ?name= return the same
// bytes, and repeat requests (cache hits) stay bit-identical.
func TestRunByNameMatchesCLI(t *testing.T) {
	_, url := newTestServer(t, Config{ScenarioDir: scenarioDir, Cache: sim.NewCache(0)})
	spec, err := scenario.Load(filepath.Join(scenarioDir, "meter-1hz.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := expectExec(t, spec)
	for i := 0; i < 2; i++ { // second round is served from the run cache
		status, got, _ := postRun(t, url+"/v1/runs?name=meter-1hz", "")
		if status != http.StatusOK {
			t.Fatalf("round %d: status = %d\n%s", i, status, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("round %d: response differs from the CLI rendering", i)
		}
	}
}

// TestByNameRunCompilesNothing: a ?name= run executes the Compiled the
// daemon built at start-up, for every library entry and on every
// request, so a request expands no fleet: a by-name request for the
// 100k-host drain-100k-rolling allocates kilobytes, where a compile
// allocates tens of megabytes.
func TestByNameRunCompilesNothing(t *testing.T) {
	var mu sync.Mutex
	var got []*scenario.Compiled
	record := func(ctx context.Context, w io.Writer, c *scenario.Compiled, workers int, cache *sim.Cache) (*ExecResult, error) {
		mu.Lock()
		got = append(got, c)
		mu.Unlock()
		return &ExecResult{}, nil
	}
	s, url := newTestServer(t, Config{ScenarioDir: scenarioDir, execOverride: record})
	for round := 0; round < 2; round++ {
		for _, in := range s.library {
			if status, body, _ := postRun(t, url+"/v1/runs?name="+in.Name, ""); status != http.StatusOK {
				t.Fatalf("%s: status = %d\n%s", in.Name, status, body)
			}
			if c := got[len(got)-1]; c != s.byName[in.Name] || c.Spec.Name != in.Name {
				t.Errorf("round %d: %s ran a Compiled other than the library's", round, in.Name)
			}
		}
	}
	if raceEnabled {
		return // race instrumentation allocates
	}
	const requests, ceiling = 4, 1 << 20 // bytes per request
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		if status, body, _ := postRun(t, url+"/v1/runs?name=drain-100k-rolling", ""); status != http.StatusOK {
			t.Fatalf("status = %d\n%s", status, body)
		}
	}
	runtime.ReadMemStats(&after)
	b := (after.TotalAlloc - before.TotalAlloc) / requests
	t.Logf("a by-name drain-100k-rolling request allocates %d bytes", b)
	if b > ceiling {
		t.Errorf("a by-name drain-100k-rolling request allocates %d bytes, ceiling is %d: it compiled", b, ceiling)
	}
}

// TestConcurrentByNameRunsShareCompiled runs every library entry once
// by name, then again from concurrent clients: every concurrent
// response must equal the first, though the runs of one entry share
// one read-only Compiled and, for a cluster entry, its layout and t=0
// view. The 100k-host entry is left out under the race detector.
func TestConcurrentByNameRunsShareCompiled(t *testing.T) {
	s, url := newTestServer(t, Config{
		ScenarioDir: scenarioDir, Cache: sim.NewCache(0),
		MaxConcurrent: 4, QueueDepth: 64,
	})
	want := map[string][]byte{}
	var names []string
	for _, in := range s.library {
		if raceEnabled && in.Cluster >= 32768 {
			continue
		}
		status, body, _ := postRun(t, url+"/v1/runs?name="+in.Name, "")
		if status != http.StatusOK {
			t.Fatalf("%s: warm-up status = %d\n%s", in.Name, status, body)
		}
		want[in.Name] = body
		names = append(names, in.Name)
	}
	const clients = 2
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		for _, name := range names {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				status, got, _ := postRun(t, url+"/v1/runs?name="+name, "")
				if status != http.StatusOK {
					t.Errorf("%s: status = %d\n%s", name, status, got)
					return
				}
				if !bytes.Equal(got, want[name]) {
					t.Errorf("%s: a concurrent response differs from the warm-up response", name)
				}
			}(name)
		}
	}
	wg.Wait()
}

// TestRunRefusalsOfTheSpec: a spec whose own values the run cannot
// carry out answers 422 with the field path, whether Compile refuses it
// (load VMs that do not fit, a repeat floor above the run cap, a move
// from a host its VM is not on, a move into a host that crashes first,
// a guest busier than its host) or only the run can tell (a move of a
// VM still in flight, a move into a host whose residents lower to more
// load VMs than the testbed holds); a 500 stays for the daemon's own
// faults.
func TestRunRefusalsOfTheSpec(t *testing.T) {
	_, url := newTestServer(t, Config{Cache: sim.NewCache(0)})
	load := func(name string) map[string]any {
		b, err := os.ReadFile(filepath.Join(scenarioDir, name))
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	moves := func(m map[string]any) []any { return m["cluster"].(map[string]any)["moves"].([]any) }
	// onC2 puts n guests of the given demand on c2, where moves[0] goes.
	onC2 := func(n int, busy float64) func(map[string]any) {
		return func(m map[string]any) {
			var vms []any
			for i := 0; i < n; i++ {
				vms = append(vms, map[string]any{"name": fmt.Sprintf("resident-%d", i), "mem_gib": 2, "busy_vcpus": busy})
			}
			m["cluster"].(map[string]any)["hosts"].([]any)[1].(map[string]any)["vms"] = vms
		}
	}
	cases := []struct {
		name, file string
		edit       func(map[string]any)
		path       string
	}{
		{"load VMs overfill the source", "c1-cpuload-live.json", func(m map[string]any) { m["source_load_vms"] = 56 }, "source_load_vms"},
		{"load VMs overfill the target", "c1-cpuload-live.json", func(m map[string]any) { m["target_load_vms"] = 56 }, "target_load_vms"},
		{"repeat floor above the run cap", "nonlive-baseline.json", func(m map[string]any) {
			m["repeat"] = map[string]any{"min_runs": 60}
		}, "repeat.min_runs"},
		{"move from a host its VM is not on", "contended-links-4.json", func(m map[string]any) {
			moves(m)[0].(map[string]any)["from"] = "c3"
		}, "cluster.moves[0].from"},
		{"move of a VM still in flight", "contended-links-4.json", func(m map[string]any) {
			c := m["cluster"].(map[string]any)
			c["moves"] = append(moves(m), map[string]any{"vm": "mover-a", "from": "c2", "to": "c4", "at_s": 1})
		}, "cluster.moves[2].at_s"},
		{"move into a host that crashes first", "contended-links-4.json", func(m map[string]any) {
			m["cluster"].(map[string]any)["failures"] = []any{map[string]any{"at_s": 0, "kind": "host-crash", "host": "c2"}}
		}, "cluster.moves[0].to"},
		{"guest busier than its host", "contended-links-4.json", onC2(1, 1e300), "cluster.hosts[1].vms[0].busy_vcpus"},
		{"move into a host piled past the testbed", "contended-links-4.json", onC2(8, 30), "cluster.moves[0].to"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := load(tc.file)
			tc.edit(m)
			body, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			status, resp, _ := postRun(t, url+"/v1/runs", string(body))
			if status != http.StatusUnprocessableEntity {
				t.Fatalf("status = %d, want 422\n%s", status, resp)
			}
			var env struct {
				Error apiError `json:"error"`
			}
			if err := json.Unmarshal(resp, &env); err != nil {
				t.Fatal(err)
			}
			if env.Error.Code != codeInvalidScenario || env.Error.Path != tc.path {
				t.Errorf("code %q, path %q; want %q, %q (%s)", env.Error.Code, env.Error.Path, codeInvalidScenario, tc.path, env.Error.Message)
			}
		})
	}
}

// TestPlanMovesOneVMTwice: a plan that compiles may move one VM twice,
// a→b then b→c; the second move starts where the first landed, and Exec
// renders both.
func TestPlanMovesOneVMTwice(t *testing.T) {
	spec, err := scenario.Parse("twice", []byte(`{"version":1,"name":"twice","pair":"m01-m02","kind":"live",
	"datacenter":{"hosts":[
		{"name":"a","threads":32,"mem_gib":32,"idle_power_w":440,"vms":[{"name":"v","mem_gib":4,"busy_vcpus":4,"dirty_ratio":0.1}]},
		{"name":"b","threads":32,"mem_gib":32,"idle_power_w":440},
		{"name":"c","threads":32,"mem_gib":32,"idle_power_w":440}],
	"moves":[{"vm":"v","from":"a","to":"b"},{"vm":"v","from":"b","to":"c"}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	out := string(expectExec(t, spec))
	if n := strings.Count(out, "   move v "); n != 2 || !strings.Contains(out, "total 2 move(s)") {
		t.Errorf("want two rendered moves of v and a total of 2, got %d:\n%s", n, out)
	}
}

// TestPlanExecCancelled: a data-centre plan executed under a cancelled
// context fails with context.Canceled before its first kernel run, as a
// cluster timeline or a migration block does, so a client disconnect,
// deadline or drain stops it.
func TestPlanExecCancelled(t *testing.T) {
	spec, err := scenario.Load(filepath.Join(scenarioDir, "consolidation-sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Plan == nil {
		t.Fatal("fixture drift: consolidation-sweep is not a plan-form spec")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cache := sim.NewCache(0)
	var buf bytes.Buffer
	if _, err := Exec(ctx, &buf, c, 2, cache); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled plan Exec err = %v, want context.Canceled", err)
	}
	if n := cache.Snapshot().KernelRuns; n != 0 {
		t.Errorf("cancelled plan Exec ran %d kernels, want 0", n)
	}
}

// errFull is the failure of a failAfter writer.
var errFull = errors.New("no space left")

// failAfter is a writer with room for n bytes: a write that does not
// fit takes what fits and fails, as a full device does, and so does
// every write after it, which late counts.
type failAfter struct {
	n, late int
	failed  bool
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.failed {
		f.late++
		return 0, errFull
	}
	if len(p) > f.n {
		k := f.n
		f.n, f.failed = 0, true
		return k, errFull
	}
	f.n -= len(p)
	return len(p), nil
}

// TestExecReportsWriteErrors runs one scenario of each form — migration
// blocks, a move plan and a cluster timeline — into a writer with room
// for fewer bytes than the scenario renders: Exec must fail with the
// writer's error, and write nothing more after the failed write. With
// room for every byte it must succeed. The cluster form is also cut off
// inside its freed-host line, which is written in one piece.
func TestExecReportsWriteErrors(t *testing.T) {
	cache := sim.NewCache(0)
	for _, c := range []struct{ form, file string }{
		{"migration", "nonlive-baseline.json"},
		{"plan", "consolidation-sweep.json"},
		{"cluster", "drain-16-maintenance.json"},
	} {
		spec, err := scenario.Load(filepath.Join(scenarioDir, c.file))
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		form := "migration"
		switch {
		case compiled.Cluster != nil:
			form = "cluster"
		case compiled.Plan != nil:
			form = "plan"
		}
		if form != c.form {
			t.Fatalf("fixture drift: %s is a %s-form spec, not a %s-form one", c.file, form, c.form)
		}
		var buf bytes.Buffer
		if _, err := Exec(context.Background(), &buf, compiled, 0, cache); err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		out := buf.String()
		room := []int{0, len(out) / 2, len(out) - 1}
		if c.form == "cluster" {
			at := strings.Index(out, "   freed ")
			if at < 0 {
				t.Fatalf("fixture drift: %s frees no host", c.file)
			}
			room = append(room, at+12)
		}
		for _, n := range room {
			w := &failAfter{n: n}
			if _, err := Exec(context.Background(), w, compiled, 0, cache); !errors.Is(err, errFull) {
				t.Errorf("%s form, room for %d of %d bytes: Exec err = %v, want the write error", c.form, n, len(out), err)
			}
			if w.late > 0 {
				t.Errorf("%s form, room for %d of %d bytes: Exec wrote %d more times after a failed write", c.form, n, len(out), w.late)
			}
		}
		if _, err := Exec(context.Background(), &failAfter{n: len(out)}, compiled, 0, cache); err != nil {
			t.Errorf("%s form, room for every byte: Exec err = %v", c.form, err)
		}
	}
}

func TestRunRequestRejections(t *testing.T) {
	_, url := newTestServer(t, Config{ScenarioDir: scenarioDir})
	cases := []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"empty body", "/v1/runs", "", http.StatusBadRequest, codeInvalidRequest},
		{"malformed json", "/v1/runs", "{", http.StatusUnprocessableEntity, codeInvalidScenario},
		{"unknown field", "/v1/runs", `{"name":"x","bogus":1}`, http.StatusUnprocessableEntity, codeInvalidScenario},
		{"invalid spec", "/v1/runs", `{"version":1,"name":"x","seed":-4}`, http.StatusUnprocessableEntity, codeInvalidScenario},
		{"phase factor above bound", "/v1/runs", `{"version":1,"name":"x","pair":"m01-m02","kind":"live",
			"migrating":{"workload":{"profile":"pagedirtier","dirty_target":0.95}},
			"phases":[{"kind":"steady","duration_s":60,"level":400000}]}`, http.StatusUnprocessableEntity, codeInvalidScenario},
		{"unknown library name", "/v1/runs?name=no-such", "", http.StatusNotFound, codeNotFound},
		{"name plus body", "/v1/runs?name=meter-1hz", minimalSpec, http.StatusBadRequest, codeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body, _ := postRun(t, url+tc.path, tc.body)
			if status != tc.status {
				t.Fatalf("status = %d, want %d\n%s", status, tc.status, body)
			}
			if code := errCode(t, body); code != tc.code {
				t.Errorf("code = %q, want %q", code, tc.code)
			}
		})
	}
}

// blockingExec is an exec override whose runs park until released (or
// until their context ends), so admission and drain states can be
// driven deterministically.
type blockingExec struct {
	started chan struct{} // one receive per run that began executing
	release chan struct{} // close to let parked runs finish
}

func newBlockingExec() *blockingExec {
	return &blockingExec{started: make(chan struct{}, 64), release: make(chan struct{})}
}

func (b *blockingExec) exec(ctx context.Context, w io.Writer, c *scenario.Compiled, workers int, cache *sim.Cache) (*ExecResult, error) {
	b.started <- struct{}{}
	select {
	case <-b.release:
		fmt.Fprintf(w, "== %s\nblocked-exec done\n", c.Spec.Name)
		return &ExecResult{}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// waitStarted waits for n runs to reach execution.
func (b *blockingExec) waitStarted(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-b.started:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d runs started", i, n)
		}
	}
}

// TestAdmissionOverflow is the N+K acceptance criterion: with admission
// bounded at 2 running + 1 queued, six concurrent requests yield exactly
// three successes and three clean 429s carrying Retry-After — and no
// goroutines leak once the dust settles.
func TestAdmissionOverflow(t *testing.T) {
	before := runtime.NumGoroutine()
	be := newBlockingExec()
	_, url := newTestServer(t, Config{
		MaxConcurrent: 2, QueueDepth: 1, execOverride: be.exec,
	})

	const total = 6
	type outcome struct {
		status     int
		retryAfter string
	}
	results := make(chan outcome, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _, hdr := postRun(t, url+"/v1/runs", minimalSpec)
			results <- outcome{status, hdr.Get("Retry-After")}
		}()
	}
	// Two runs occupy the slots; rejections stream back while the third
	// ticket holder waits in the queue. Then open the gate.
	be.waitStarted(t, 2)
	deadline := time.After(10 * time.Second)
	got := map[int]int{}
	var outcomes []outcome
	for len(outcomes) < 3 {
		select {
		case o := <-results:
			outcomes = append(outcomes, o)
			got[o.status]++
		case <-deadline:
			t.Fatalf("only %d rejections arrived while slots were blocked", len(outcomes))
		}
	}
	if got[http.StatusTooManyRequests] != 3 {
		t.Fatalf("while saturated, outcomes = %v, want three 429s", got)
	}
	for _, o := range outcomes {
		if o.retryAfter == "" {
			t.Error("429 without a Retry-After header")
		}
	}
	close(be.release)
	wg.Wait()
	close(results)
	for o := range results {
		got[o.status]++
	}
	if got[http.StatusOK] != 3 || got[http.StatusTooManyRequests] != 3 {
		t.Fatalf("outcomes = %v, want exactly 3×200 and 3×429", got)
	}
	waitGoroutines(t, before)
}

// TestClientDisconnectFreesSlot: a client abandoning its request
// cancels the run and releases the admission slot for the next client.
func TestClientDisconnectFreesSlot(t *testing.T) {
	before := runtime.NumGoroutine()
	be := newBlockingExec()
	_, url := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 0, execOverride: be.exec})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/runs", strings.NewReader(minimalSpec))
	if err != nil {
		t.Fatal(err)
	}
	abandoned := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		abandoned <- err
	}()
	be.waitStarted(t, 1)
	cancel() // client walks away mid-run
	if err := <-abandoned; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned request err = %v, want context.Canceled", err)
	}

	// The slot must free without the blocked run ever being released:
	// its context died with the client. The next run then gets the slot.
	done := make(chan struct{})
	go func() {
		defer close(done)
		status, body, _ := postRun(t, url+"/v1/runs", minimalSpec)
		if status != http.StatusOK {
			t.Errorf("follow-up status = %d\n%s", status, body)
		}
	}()
	be.waitStarted(t, 1)
	close(be.release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("slot was never released after the client disconnect")
	}
	waitGoroutines(t, before)
}

// subByteSpec is a cluster spec whose one fault is a VM memory below one
// byte: it decodes cleanly, and only Compile rejects it.
const subByteSpec = `{"version":1,"name":"svc-sub-byte","kind":"live","cluster":{"horizon_s":60,
	"hosts":[{"name":"a","machine":"m01","vms":[{"name":"v","mem_gib":1e-12,"busy_vcpus":1}]},{"name":"b","machine":"m01"}],
	"moves":[{"vm":"v","from":"a","to":"b"}]}}`

// TestSaturationAnsweredBeforeCompile: a posted spec is checked and
// lowered only once its request holds an execution slot, so a saturated
// daemon answers 429 without compiling anything. With the one slot held
// by a blocked run and the one queue place by a second, a body whose
// fault only Compile finds answers 429; once they free, the same body
// answers 422 with its field path and message. Malformed JSON, which
// the decode before admission catches, answers 422 at any load.
// (QueueDepth 0 would mean the default depth of 8, hence a depth of 1
// filled by a waiting run.)
func TestSaturationAnsweredBeforeCompile(t *testing.T) {
	be := newBlockingExec()
	s, url := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1, execOverride: be.exec})
	release := sync.OnceFunc(func() { close(be.release) })
	defer release() // a failed check must not leave the held runs to the drain deadline
	const malformed = `{"version":1,"name":`
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if status, body, _ := postRun(t, url+"/v1/runs", minimalSpec); status != http.StatusOK {
				t.Errorf("held run status = %d\n%s", status, body)
			}
		}()
	}
	be.waitStarted(t, 1)
	for deadline := time.Now().Add(10 * time.Second); len(s.adm.tickets) < cap(s.adm.tickets); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second run never took the queue place")
		}
	}
	expect := func(when, body string, status int, code string) apiError {
		t.Helper()
		got, resp, _ := postRun(t, url+"/v1/runs", body)
		if got != status {
			t.Fatalf("%s: status = %d, want %d\n%s", when, got, status, resp)
		}
		var env struct {
			Error apiError `json:"error"`
		}
		if err := json.Unmarshal(resp, &env); err != nil {
			t.Fatalf("%s: response is not the JSON error envelope: %v\n%s", when, err, resp)
		}
		if env.Error.Code != code {
			t.Errorf("%s: code = %q, want %q", when, env.Error.Code, code)
		}
		return env.Error
	}
	expect("sub-byte spec while saturated", subByteSpec, http.StatusTooManyRequests, codeOverloaded)
	expect("malformed JSON while saturated", malformed, http.StatusUnprocessableEntity, codeInvalidScenario)
	release()
	wg.Wait()
	e := expect("sub-byte spec once the slot frees", subByteSpec, http.StatusUnprocessableEntity, codeInvalidScenario)
	const path = "cluster.hosts[0].vms[0].mem_gib"
	if want := `scenario "svc-sub-byte": ` + path + `: must be at least one byte, got 1e-12 GiB`; e.Path != path || e.Message != want {
		t.Errorf("sub-byte spec: path %q, message %q; want %q, %q", e.Path, e.Message, path, want)
	}
	expect("malformed JSON once the slot frees", malformed, http.StatusUnprocessableEntity, codeInvalidScenario)
}

// TestDrainRefusesNewWork: once Shutdown begins, readyz answers 503 and
// new runs are refused with the draining code.
func TestDrainRefusesNewWork(t *testing.T) {
	s, err := New(Config{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	// No listener is serving, so Shutdown completes immediately but
	// leaves the server in the draining state.
	if err := s.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, tc := range []struct {
		method, path string
		status       int
	}{
		{"GET", "/healthz", http.StatusOK}, // draining is still alive
		{"GET", "/readyz", http.StatusServiceUnavailable},
		{"POST", "/v1/runs", http.StatusServiceUnavailable},
	} {
		req, err := http.NewRequest(tc.method, "http://drain.test"+tc.path, strings.NewReader(minimalSpec))
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.status {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, rec.Code, tc.status)
		}
	}
}

// TestGracefulDrainCompletesInFlight: SIGTERM semantics — in-flight
// runs finish inside the drain window and their clients get full 200
// responses; Shutdown returns nil.
func TestGracefulDrainCompletesInFlight(t *testing.T) {
	be := newBlockingExec()
	cfg := Config{MaxConcurrent: 2, execOverride: be.exec, Logger: log.New(io.Discard, "", 0)}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	resps := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			status, _, _ := postRun(t, url+"/v1/runs", minimalSpec)
			resps <- status
		}()
	}
	be.waitStarted(t, 2)

	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(30 * time.Second) }()
	// Give the drain a moment to begin, then let the runs finish.
	time.Sleep(50 * time.Millisecond)
	close(be.release)
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i := 0; i < 2; i++ {
		if status := <-resps; status != http.StatusOK {
			t.Errorf("in-flight run answered %d during graceful drain", status)
		}
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve: %v", err)
	}
}

// TestDrainDeadlineCancelsStragglers: a run that outlives the drain
// window is cancelled (not abandoned) and its client told the daemon
// was draining; Shutdown still returns nil — the clean-exit contract.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	be := newBlockingExec() // never released: the run is a straggler
	cfg := Config{MaxConcurrent: 1, execOverride: be.exec, Logger: log.New(io.Discard, "", 0)}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	type resp struct {
		status int
		body   []byte
	}
	rc := make(chan resp, 1)
	go func() {
		status, body, _ := postRun(t, url+"/v1/runs", minimalSpec)
		rc <- resp{status, body}
	}()
	be.waitStarted(t, 1)

	if err := s.Shutdown(100 * time.Millisecond); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	got := <-rc
	if got.status != http.StatusServiceUnavailable {
		t.Fatalf("straggler answered %d, want 503\n%s", got.status, got.body)
	}
	if code := errCode(t, got.body); code != codeDraining {
		t.Errorf("straggler code = %q, want %q", code, codeDraining)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve: %v", err)
	}
}

// TestPanicRecovery: a panicking run becomes a structured 500 and the
// daemon keeps serving.
func TestPanicRecovery(t *testing.T) {
	var calls atomic.Int32
	_, url := newTestServer(t, Config{
		execOverride: func(ctx context.Context, w io.Writer, c *scenario.Compiled, workers int, cache *sim.Cache) (*ExecResult, error) {
			if calls.Add(1) == 1 {
				panic("kaboom")
			}
			fmt.Fprintln(w, "fine")
			return &ExecResult{}, nil
		},
	})
	status, body, _ := postRun(t, url+"/v1/runs", minimalSpec)
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500\n%s", status, body)
	}
	if code := errCode(t, body); code != codeInternal {
		t.Errorf("code = %q, want %q", code, codeInternal)
	}
	if !strings.Contains(string(body), "kaboom") {
		t.Errorf("panic message lost: %s", body)
	}
	status, body, _ = postRun(t, url+"/v1/runs", minimalSpec)
	if status != http.StatusOK {
		t.Errorf("daemon did not survive the panic: %d\n%s", status, body)
	}
}

// TestConcurrentChaosClients is the race-detector E2E: concurrent
// clients hammer the chaos scenario family through one daemon and every
// response must be byte-identical to the CLI rendering — cache hits,
// contention and admission queueing included.
func TestConcurrentChaosClients(t *testing.T) {
	family := []string{"chaos-crash-cascade-16", "partitioned-switch-evac-8", "drain-under-crash-256"}
	if testing.Short() {
		family = family[:2]
	}
	want := map[string][]byte{}
	for _, name := range family {
		spec, err := scenario.Load(filepath.Join(scenarioDir, name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		want[name] = expectExec(t, spec)
	}

	_, url := newTestServer(t, Config{
		ScenarioDir: scenarioDir, Cache: sim.NewCache(0),
		MaxConcurrent: 3, QueueDepth: 16,
	})
	const clients = 2
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		for _, name := range family {
			name := name
			wg.Add(1)
			go func() {
				defer wg.Done()
				status, got, _ := postRun(t, url+"/v1/runs?name="+name, "")
				if status != http.StatusOK {
					t.Errorf("%s: status = %d\n%s", name, status, got)
					return
				}
				if !bytes.Equal(got, want[name]) {
					t.Errorf("%s: response differs from the CLI rendering", name)
				}
			}()
		}
	}
	wg.Wait()
}

// waitGoroutines polls until the goroutine count settles back near the
// baseline — the leak assertion behind the admission criteria.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		// The test clients' idle keep-alive connections each hold a
		// read/write goroutine pair on the client side; they are not the
		// server's, so close them before counting. Timer goroutines
		// linger briefly; a small cushion keeps the check meaningful
		// without flaking.
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= baseline+5 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines: %d, baseline %d — leak?", runtime.NumGoroutine(), baseline)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
