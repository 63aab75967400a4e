// Command bench is the repository benchmark. It drives the WAVM3 system
// from outside, through the entry points its commands use, on one of
// four workloads; checks every output it produces against a pinned
// digest or an independent recomputation; and prints the workload's
// metrics as one JSON line, the last line of its standard output.
//
//	bash bench/run.sh --workload library --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1
// the benchmark runs the workload's traced variant instead and the line
// carries the per-layer metrics. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/bench/internal/benchjson"
)

// workload is one input set the benchmark runs. run measures one round
// of the end-to-end metrics, after prepare, when set, has prepared the
// run's scratch directory untimed; trace runs the traced variant for the
// per-layer metrics.
type workload struct {
	name    string
	prepare func(*env) error
	run     func(*env) (*outcome, error)
	trace   func(*env) (*traced, error)
}

var workloads = []workload{
	{"paper-cold", nil, runPaper, tracePaper},
	{"library", nil, runLibrary, traceLibrary},
	{"fleet-day", nil, runFleet, traceFleet},
	{"daemon-mix", prepareDaemon, runDaemon, traceDaemon},
}

func main() {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		seed    = flag.Int64("seed", 1, "input seed; 1 runs the committed inputs unchanged")
		seconds = flag.Int("seconds", 30, "how long the measurement runs, in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		out     = flag.String("out", "", "also write the run's record (and, traced, its spans) to this JSON file")
		round   = flag.Int("round", -1, "internal: run round N of the run whose scratch directory is -dir, and print its outcome")
		dir     = flag.String("dir", "", "internal: the run's scratch directory, with -round")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		usage(fmt.Errorf("unknown -workload %q; want one of %s", *name, strings.Join(names, ", ")))
	case *seed < 0:
		usage(fmt.Errorf("-seed must be non-negative"))
	case *seconds < 1:
		usage(fmt.Errorf("-seconds must be at least 1"))
	case *trace != 0 && *trace != 1:
		usage(fmt.Errorf("-trace must be 0 or 1"))
	case (*round >= 0) != (*dir != ""):
		usage(fmt.Errorf("-round and -dir go together"))
	}
	e := &env{workload: w.name, seed: *seed, budget: time.Duration(*seconds) * time.Second, round: max(*round, 0), shared: *dir}
	var err error
	if *round >= 0 {
		err = runRound(w, e)
	} else {
		err = run(w, e, *trace == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	flag.Usage()
	os.Exit(2)
}

// run executes one run of a workload with a scratch directory under
// .bench_build and prints its result. An end-to-end run executes each
// round in a process of its own (see measure); a traced run executes in
// this process.
func run(w *workload, e *env, trace bool, out string) error {
	if _, err := os.Stat(scenarioDir); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o755); err != nil {
		return err
	}
	var err error
	if e.shared, err = os.MkdirTemp(filepath.Join(".bench_build", "tmp"), w.name+"-"); err != nil {
		return err
	}
	defer os.RemoveAll(e.shared)
	e.work = e.shared

	rec := benchjson.Record{
		Workload: w.name, Seed: e.seed, Seconds: int(e.budget / time.Second), Trace: trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}
	var doc any = &rec
	if !trace {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		if w.prepare != nil {
			if err := w.prepare(e); err != nil {
				return fmt.Errorf("preparing the run: %w", err)
			}
		}
		o, rounds, err := measure(e.budget, func(k int) (*outcome, error) { return spawnRound(exe, e, k) })
		if err != nil {
			return err
		}
		rec.Result = o.line(endToEnd(o))
		rec.Passes = map[string]int{"processes": rounds, "setup": len(o.Setup), "cold": len(o.Cold), "warm": len(o.Warm)}
		rec.Samples = map[string]benchjson.Distribution{
			"setup_s":     benchjson.Distribute(o.Setup),
			"cold_ms":     benchjson.Distribute(o.Cold),
			"warm_ms":     benchjson.Distribute(o.Warm),
			"peak_rss_mb": benchjson.Distribute(o.RSSMiB),
			"probe_ms":    benchjson.Distribute(o.Probe),
		}
		if len(o.Late) > 0 {
			rec.Samples["gen_late_ms"] = benchjson.Distribute(o.Late)
		}
		rec.Failures = o.Failures
	} else {
		t, err := w.trace(e)
		if err != nil {
			return err
		}
		rec.Result = t.line(t.layers)
		rec.Passes = t.passes
		rec.Failures = t.Failures
		doc = &traceDoc{Record: &rec, Predictions: predictionsFor(w.name), SelfTimes: t.rec.selfTimes(), Spans: t.rec.spans}
	}
	if out != "" {
		rec.GitSHA = gitSHA()
		data, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return printResult(os.Stdout, &rec)
}

// measure runs rounds until the budget is spent — a round starts only
// while the previous one would still end inside it, and at least one
// runs — and pools their outcomes. Each round runs in a process of its
// own: a process's speed on a shared virtual machine varies by up to a
// third from one process to the next and stays steady within it, so a
// run that pooled only one process would measure mostly its luck.
func measure(budget time.Duration, round func(k int) (*outcome, error)) (*outcome, int, error) {
	all := &outcome{}
	start := time.Now()
	var last time.Duration
	k := 0
	for ; k == 0 || time.Since(start)+last <= budget; k++ {
		t := time.Now()
		o, err := round(k)
		if err != nil {
			return nil, k, fmt.Errorf("round %d: %w", k, err)
		}
		all.merge(o)
		last = time.Since(t)
	}
	return all, k, nil
}

// spawnRound runs round k in a child process and waits for it.
func spawnRound(exe string, e *env, k int) (*outcome, error) {
	cmd := exec.Command(exe, "-workload", e.workload, "-seed", strconv.FormatInt(e.seed, 10),
		"-seconds", strconv.Itoa(int(e.budget/time.Second)), "-round", strconv.Itoa(k), "-dir", e.shared)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var o outcome
	if err := json.Unmarshal(out, &o); err != nil {
		return nil, fmt.Errorf("reading the round's outcome: %w", err)
	}
	return &o, nil
}

// runRound runs one round in this process, in a scratch directory of its
// own under the run's, and prints its outcome, with the process's peak
// resident set, as JSON.
func runRound(w *workload, e *env) error {
	var err error
	if e.work, err = os.MkdirTemp(e.shared, fmt.Sprintf("round%d-", e.round)); err != nil {
		return err
	}
	defer os.RemoveAll(e.work)
	o, err := w.run(e)
	if err != nil {
		return err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	o.RSSMiB = append(o.RSSMiB, rss)
	return json.NewEncoder(os.Stdout).Encode(o)
}

// traceDoc is the -out file of a traced run: the record, the predictions
// about the workload, each span name's total and self time per pass, and
// every span.
type traceDoc struct {
	*benchjson.Record
	Predictions []prediction                   `json:"predictions"`
	SelfTimes   map[string]map[string]selfTime `json:"self_times"`
	Spans       []span                         `json:"spans"`
}

// printResult prints each metric by name with its unit, the samples
// behind the end-to-end medians, then the result line.
func printResult(w io.Writer, rec *benchjson.Record) error {
	l := rec.Result
	keys := make([]string, 0, len(l.Metrics))
	for k := range l.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := l.Metrics[k]
		fmt.Fprintf(w, "%-12s %-32s %14.6g %s\n", rec.Workload, k, m.Value, m.Unit)
	}
	for _, k := range []string{"setup_s", "cold_ms", "warm_ms", "peak_rss_mb", "gen_late_ms", "probe_ms"} {
		if d, ok := rec.Samples[k]; ok {
			fmt.Fprintf(w, "%-12s %-32s n=%d q1=%.6g median=%.6g q3=%.6g", rec.Workload, k+" raw samples", d.N, d.Q1, d.Median, d.Q3)
			if d.Tail != "" {
				fmt.Fprintf(w, " %s=%.6g", d.Tail, d.TailValue)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "%-12s correct=%v attempted=%d failed=%d\n", rec.Workload, l.Correct, l.Attempted, l.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "%-12s failed: %s\n", rec.Workload, f)
	}
	data, err := json.Marshal(l)
	if err != nil { // a metric without samples is NaN, which JSON cannot carry
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// gitSHA names the commit measured, best-effort: "-dirty" marks a working
// tree that differs from it, and a checkout without git metadata records
// "unknown".
func gitSHA() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(status) > 0 {
		sha += "-dirty"
	}
	return sha
}
