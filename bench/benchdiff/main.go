// Command benchdiff compares two sets of benchmark runs, one record file
// (bench -out) per run, workload by workload and metric by metric:
//
//	go run ./benchdiff -base parent/ -head change/
//	go run ./benchdiff -same -base baseline/a -head baseline/b
//
// For each end-to-end metric it prints each side's median and quartiles
// and a verdict: "regressed" when the head's median is worse than the
// base's by more than the metric's bound in BENCHMARK.json, "unresolved"
// when the base's own spread is wider than that bound, "improved" when
// the head wins at least nine of every ten paired runs and its median
// differs from the base's by more than the base's quartile spread, and
// "unchanged" otherwise. It exits 1 on any regression. With -same, the
// two sets are runs of one commit and must agree: any verdict but
// "unchanged", in either direction, fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/bench/internal/benchjson"
)

func main() {
	var (
		base = flag.String("base", "", "directory of the parent's run records")
		head = flag.String("head", "", "directory of the change's run records")
		spec = flag.String("spec", "../BENCHMARK.json", "BENCHMARK.json, for the metrics, their directions and bounds")
		same = flag.Bool("same", false, "the two sets are runs of one commit: fail unless every metric is unchanged both ways")
	)
	flag.Parse()
	if *base == "" || *head == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -base and -head are required")
		flag.Usage()
		os.Exit(2)
	}
	ok, err := run(os.Stdout, *spec, *base, *head, *same)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run prints the comparison and reports whether it passed.
func run(w io.Writer, specPath, baseDir, headDir string, same bool) (bool, error) {
	spec, err := benchjson.LoadSpec(specPath)
	if err != nil {
		return false, err
	}
	base, err := readRuns(baseDir)
	if err != nil {
		return false, err
	}
	head, err := readRuns(headDir)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\thead median [q1, q3]\tchange\twins\tverdict")
	pass := true
	for _, wl := range spec.Workloads {
		b, h := base[wl.Name], head[wl.Name]
		if len(b) == 0 || len(h) == 0 {
			fmt.Fprintf(tw, "%s\t(no runs: base %d, head %d)\t\t\t\t\t\n", wl.Name, len(b), len(h))
			pass = false
			continue
		}
		bv, hv := pair(b, h)
		for _, m := range spec.EndToEnd {
			xs, ys := values(bv, m.Name), values(hv, m.Name)
			c := compare(xs, ys, m, absFloor[m.Name])
			v := c.verdict
			if same {
				if back := compare(ys, xs, m, absFloor[m.Name]).verdict; v == unchanged && back != unchanged {
					v = "reverse " + back
				}
				pass = pass && v == unchanged
			} else {
				pass = pass && v != regressed
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%d/%d\t%s\n", wl.Name, m.Name,
				quart(xs, m.Unit), quart(ys, m.Unit), 100*c.change, c.wins, c.pairs, v)
		}
	}
	return pass, tw.Flush()
}

// absFloor is, per metric, the difference below which two medians count
// as equal whatever their ratio: the resolution of the measurement.
var absFloor = map[string]float64{
	"setup_s":     0.002, // s
	"warm_ms":     0.002, // ms
	"peak_rss_mb": 4,     // MiB: the Go heap grows in steps of this order
}

// Verdicts.
const (
	regressed  = "regressed"
	unresolved = "unresolved"
	improved   = "improved"
	unchanged  = "unchanged"
)

// comparison is one metric's verdict over two sets of runs.
type comparison struct {
	change      float64 // relative change of the median, head over base
	wins, pairs int
	verdict     string
}

// compare judges head against base, paired by index. A run "wins" when
// it is better than its pair by the metric's direction; ties count for
// neither side.
func compare(base, head []float64, m benchjson.MetricSpec, floor float64) comparison {
	bq1, bmed, bq3 := benchjson.Quartiles(base)
	_, hmed, _ := benchjson.Quartiles(head)
	better := func(a, b float64) bool { // a better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	c := comparison{change: (hmed - bmed) / bmed, pairs: min(len(base), len(head))}
	for i := 0; i < c.pairs; i++ {
		if better(head[i], base[i]) {
			c.wins++
		}
	}
	diff := math.Abs(hmed - bmed)
	worse := better(bmed, hmed) && diff > m.Bound*math.Abs(bmed) && diff > floor
	allBetter := true
	for _, x := range base {
		for _, y := range head {
			allBetter = allBetter && better(y, x)
		}
	}
	switch {
	case worse:
		c.verdict = regressed
	case (bq3-bq1) > m.Bound*math.Abs(bmed) && !allBetter:
		c.verdict = unresolved
	case better(hmed, bmed) && 10*c.wins >= 9*c.pairs && diff > bq3-bq1 && diff > floor:
		c.verdict = improved
	default:
		c.verdict = unchanged
	}
	return c
}

// readRuns reads every untraced run record in dir, by workload, each
// workload's runs ordered by seed.
func readRuns(dir string) (map[string][]benchjson.Record, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]benchjson.Record{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r benchjson.Record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Trace {
			continue
		}
		if !r.Result.Correct {
			return nil, fmt.Errorf("%s: the run failed its correctness checks", f)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	for _, rs := range out {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return out, nil
}

// pair orders two sets of runs so that runs of the same seed share an
// index, followed by the rest of each set in seed order.
func pair(base, head []benchjson.Record) ([]benchjson.Record, []benchjson.Record) {
	used := make([]bool, len(head))
	var b, h, restB []benchjson.Record
	for _, x := range base {
		matched := false
		for j, y := range head {
			if !used[j] && y.Seed == x.Seed {
				used[j], matched = true, true
				b, h = append(b, x), append(h, y)
				break
			}
		}
		if !matched {
			restB = append(restB, x)
		}
	}
	b = append(b, restB...)
	for j, y := range head {
		if !used[j] {
			h = append(h, y)
		}
	}
	return b, h
}

// values extracts one metric from each run.
func values(rs []benchjson.Record, metric string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func quart(xs []float64, unit string) string {
	q1, med, q3 := benchjson.Quartiles(xs)
	return strings.TrimSpace(fmt.Sprintf("%.4g [%.4g, %.4g] %s", med, q1, q3, unit))
}
