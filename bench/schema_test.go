package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/bench/internal/benchjson"
)

// TestMain runs the tests from the repository root, where the benchmark
// runs and where its scenario paths resolve.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func loadSpec(t *testing.T) *benchjson.Spec {
	t.Helper()
	info, err := os.Stat("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", info.Size())
	}
	spec, err := benchjson.LoadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSON checks BENCHMARK.json against the rules its readers
// rely on, and against the workloads and predictions in this package.
func TestBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	if n := len(spec.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths, want 1 to 16", n)
	}
	for _, p := range spec.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q is not a plain relative path", p)
		}
		if info, err := os.Stat(p); err != nil || !info.IsDir() {
			t.Errorf("path %q is not a directory", p)
		}
	}
	if n := len(spec.Command); n < 1 || n > 32 {
		t.Fatalf("command has %d strings, want 1 to 32", n)
	}
	for _, a := range spec.Command[1:] {
		if strings.HasPrefix(a, "/") || strings.Contains(a, "..") {
			t.Errorf("command argument %q leaves the repository", a)
		}
		if _, err := os.Stat(a); err == nil && !underPaths(a, spec.Paths) {
			t.Errorf("command argument %q names a file outside paths", a)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", spec.RunSeconds)
	}

	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	declared := map[string]bool{}
	for i, w := range spec.Workloads {
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d is %q; the benchmark runs them in the order %v", i, w.Name, workloadNames())
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		declared[w.Name] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}

	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	for _, w := range spec.Workloads {
		seen[w.Name] = true
	}
	maxBound := 0.0
	for _, m := range append(append([]benchjson.MetricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric %q: bad or repeated name", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q, want lower or higher", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range spec.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	setup, ok := spec.EndToEndMetric("setup_s")
	if !ok || setup.Unit != "s" || setup.Better != "lower" || setup.Bound < maxBound {
		t.Errorf("setup_s must be declared in s, lower better, with the largest bound; got %+v", setup)
	}

	perLayer := map[string]bool{}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = true
	}
	for _, p := range predictions {
		_, e2e := spec.EndToEndMetric(p.Moves)
		idleMetric := p.Moves
		if p.IdleMetric != "" {
			idleMetric = p.IdleMetric
		}
		_, idleE2E := spec.EndToEndMetric(idleMetric)
		if !perLayer[p.Layer] || !e2e || !declared[p.Workload] || (p.Idle != "" && !declared[p.Idle]) || !idleE2E {
			t.Errorf("prediction %+v names an undeclared metric or workload", p)
		}
		if p.Idle == p.Workload && idleMetric == p.Moves {
			t.Errorf("prediction %+v is idle where it moves", p)
		}
	}
}

func underPaths(file string, paths []string) bool {
	for _, p := range paths {
		if rel, err := filepath.Rel(p, file); err == nil && !strings.HasPrefix(rel, "..") {
			return true
		}
	}
	return false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// Reduced forms of the workloads for the smoke test: a few small
// scenarios, few passes. Seed 7 has no pinned digest, so each run's first
// output is its reference.
var (
	smokeFiles   = []string{"c1-cpuload-live.json", "drain-for-maintenance.json", "fleet-diurnal-8.json"}
	smokeLibrary = scenarioSet{files: smokeFiles, persistent: true, warmPerRound: 2, setupPerRound: 2}
	smokeFleet   = scenarioSet{files: []string{"fleet-diurnal-8.json"}, warmPerRound: 2, setupPerRound: 2}
	smokeDaemon  = daemonMix{files: smokeFiles, setupReps: 2, genEvery: 20 * time.Millisecond, segment: time.Second, maxOps: 40}
)

// runSmokeDaemon runs the reduced daemon-mix as a run does: it fills the
// cache directory, then runs one round.
func runSmokeDaemon(e *env) (*outcome, error) {
	if err := smokeDaemon.fill(e); err != nil {
		return nil, err
	}
	return runDaemonMix(e, smokeDaemon)
}

// smokeEnv is a one-second run of workload in a temporary directory.
func smokeEnv(t *testing.T, workload string) *env {
	dir := t.TempDir()
	return &env{workload: workload, seed: 7, budget: time.Second, work: dir, shared: dir}
}

// TestSmokeEmitsDeclaredMetrics runs every workload, reduced, untraced
// and traced, and checks that each emits exactly the metrics
// BENCHMARK.json declares, in their units, with every check passing.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	runs := map[string]func(*env) (*outcome, error){
		"paper-cold": runPaper,
		"library":    func(e *env) (*outcome, error) { return runScenarioSet(e, smokeLibrary) },
		"fleet-day":  func(e *env) (*outcome, error) { return runScenarioSet(e, smokeFleet) },
		"daemon-mix": runSmokeDaemon,
	}
	traces := map[string]func(*env) (*traced, error){
		"paper-cold": tracePaper,
		"library":    func(e *env) (*traced, error) { return traceScenarioSet(e, smokeLibrary) },
		"fleet-day":  func(e *env) (*traced, error) { return traceScenarioSet(e, smokeFleet) },
		"daemon-mix": func(e *env) (*traced, error) { return traceDaemonMix(e, smokeDaemon) },
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			o, err := runs[w.Name](smokeEnv(t, w.Name))
			if err != nil {
				t.Fatal(err)
			}
			checkLine(t, "untraced", o.line(endToEnd(o)), o.Failures, spec.EndToEnd)
			tr, err := traces[w.Name](smokeEnv(t, w.Name))
			if err != nil {
				t.Fatal(err)
			}
			checkLine(t, "traced", tr.line(tr.layers), tr.Failures, spec.PerLayer)
		})
	}
}

func checkLine(t *testing.T, what string, l benchjson.Line, failures []string, want []benchjson.MetricSpec) {
	t.Helper()
	if !l.Correct || l.Failed != 0 || l.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", what, l.Correct, l.Attempted, l.Failed, failures)
	}
	if len(l.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", what, len(l.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := l.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: metric %s: got %+v (present %v), want unit %s", what, m.Name, got, ok, m.Unit)
		}
	}
}
