package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/bench/internal/benchjson"
	"repro/internal/cliflags"
	"repro/internal/sim"
)

// scenarioDir is the committed scenario library, relative to the
// repository root the benchmark runs from.
const scenarioDir = "scenarios"

// workers is the -workers setting of every run: one simulation at a
// time, so a pass's wall clock is the sum of its steps and two runs on
// a two-core box do not contend with themselves.
const workers = 1

// referenceSeed is the seed whose outputs are pinned in
// testdata/digests.json.
const referenceSeed = 1

//go:embed testdata/digests.json
var digestsJSON []byte

// env is the configuration of one process's share of a run.
type env struct {
	workload string
	seed     int64
	budget   time.Duration // the run's measurement window
	work     string        // this process's scratch directory
	shared   string        // the run's scratch directory, shared by its processes
	round    int           // index of the round this process runs
}

// reference returns the pinned output digest of the workload for the
// reference seed, or "" for any other seed (the first pass then becomes
// the reference every later pass must match).
func (e *env) reference() (string, error) {
	if e.seed != referenceSeed {
		return "", nil
	}
	var pinned map[string]string
	if err := json.Unmarshal(digestsJSON, &pinned); err != nil {
		return "", fmt.Errorf("testdata/digests.json: %w", err)
	}
	d, ok := pinned[e.workload]
	if !ok {
		return "", fmt.Errorf("testdata/digests.json: no digest for %s", e.workload)
	}
	return d, nil
}

// checks tallies operations and the ones that failed: an error, a non-200
// response, or an output that differs from its reference.
type checks struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

// maxFailures bounds how many failure messages a record keeps; the count
// is exact regardless.
const maxFailures = 20

func (c *checks) fail(format string, args ...any) {
	if len(c.Failures) < maxFailures {
		c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
	}
	c.Failed++
}

// digestCheck compares pass outputs against one reference digest,
// adopting the first output as the reference when none is pinned.
type digestCheck struct {
	want string
}

func (d *digestCheck) ok(got string) bool {
	if d.want == "" {
		d.want = got
	}
	return got == d.want
}

// outcome is what end-to-end rounds measured: one round's, as a child
// process reports it, or a whole run's, pooled.
type outcome struct {
	checks
	Setup []float64 `json:"setup_s"` // seconds per set-up repetition
	Cold  []float64 `json:"cold_ms"` // milliseconds per cold operation
	Warm  []float64 `json:"warm_ms"` // milliseconds per warm operation
	// Late is, for daemon-mix, how many milliseconds each generated spec
	// went out after falling due.
	Late   []float64 `json:"gen_late_ms,omitempty"`
	RSSMiB []float64 `json:"rss_mib"`  // peak resident set of each process
	Probe  []float64 `json:"probe_ms"` // milliseconds per probe (see speed.go)
}

// merge pools another round's outcome into o.
func (o *outcome) merge(r *outcome) {
	o.Attempted += r.Attempted
	o.Failed += r.Failed
	for _, f := range r.Failures {
		if len(o.Failures) < maxFailures {
			o.Failures = append(o.Failures, f)
		}
	}
	o.Setup = append(o.Setup, r.Setup...)
	o.Cold = append(o.Cold, r.Cold...)
	o.Warm = append(o.Warm, r.Warm...)
	o.Late = append(o.Late, r.Late...)
	o.RSSMiB = append(o.RSSMiB, r.RSSMiB...)
	o.Probe = append(o.Probe, r.Probe...)
}

// probe times one probe of the machine's speed.
func (o *outcome) probe() {
	o.Probe = append(o.Probe, runProbe())
}

// timed probes the machine's speed, then times f (see timePass).
func (o *outcome) timed(f func() error) (time.Duration, error) {
	o.probe()
	return timePass(f)
}

// run times one operation writing its output to w and checks the
// output against want.
func (c *checks) run(what string, want *digestCheck, f func(w io.Writer) error) time.Duration {
	out := newDigest()
	d, err := timePass(func() error { return f(out) })
	c.Attempted++
	switch {
	case err != nil:
		c.fail("%s: %v", what, err)
	case !want.ok(out.sum()):
		c.fail("%s: output %s, want %s", what, out.sum(), want.want)
	}
	return d
}

// pass probes the machine's speed, then runs one measured operation (see
// run) and returns its time in milliseconds.
func (o *outcome) pass(what string, want *digestCheck, f func(w io.Writer) error) float64 {
	o.probe()
	return ms(o.run(what, want, f))
}

// line builds the result line around metrics.
func (c *checks) line(metrics map[string]benchjson.Metric) benchjson.Line {
	return benchjson.Line{
		Correct:   c.Failed == 0,
		Attempted: c.Attempted,
		Failed:    c.Failed,
		Metrics:   metrics,
	}
}

// endToEnd computes the end-to-end metrics every workload reports: the
// median times scaled to the reference speed, and the median peak
// resident set.
func endToEnd(o *outcome) map[string]benchjson.Metric {
	scale := speedScale(o.Probe)
	return map[string]benchjson.Metric{
		"setup_s":     {Value: benchjson.Median(o.Setup) * scale, Unit: "s"},
		"cold_ms":     {Value: benchjson.Median(o.Cold) * scale, Unit: "ms"},
		"warm_ms":     {Value: benchjson.Median(o.Warm) * scale, Unit: "ms"},
		"peak_rss_mb": {Value: benchjson.Median(o.RSSMiB), Unit: "MiB"},
	}
}

// timePass collects garbage, then times f. Every timed pass starts from
// the same heap state, so one pass's garbage is not charged to the next.
func timePass(f func() error) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digestWriter hashes everything written to it.
type digestWriter struct {
	h hash.Hash
	n int64
}

func newDigest() *digestWriter { return &digestWriter{h: sha256.New()} }

func (d *digestWriter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.h.Write(p)
}

func (d *digestWriter) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// cliCache builds the run cache the commands build from "-workers 1",
// plus "-cache-dir dir" when dir is set: memory-only, or fronting the
// persistent artefact directory through the store resilience policy.
func cliCache(dir string) (*sim.Cache, error) {
	return cliFlags(dir).Cache()
}

// cliFlags parses the common command flags as a command invoked with
// "-workers 1" (and "-cache-dir dir") would.
func cliFlags(dir string) *cliflags.Common {
	fs := flag.NewFlagSet("bench", flag.PanicOnError)
	common := cliflags.Register(fs)
	args := []string{"-workers", strconv.Itoa(workers)}
	if dir != "" {
		args = append(args, "-cache-dir", dir)
	}
	_ = fs.Parse(args) // PanicOnError: these fixed arguments always parse
	return common
}

// peakRSSMiB is the process's peak resident set (VmHWM), in MiB. Linux
// reports getrusage's ru_maxrss in KiB.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading the peak resident set: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}
