package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/bench/internal/benchjson"
)

var (
	lower  = benchjson.MetricSpec{Name: "cold_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	higher = benchjson.MetricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
)

// scaled returns xs multiplied by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// steady is ten runs with a 2% quartile spread.
var steady = []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.2, 99.8}

func TestCompareRules(t *testing.T) {
	noisy := []float64{70, 130, 85, 115, 100, 60, 140, 90, 110, 100}
	tied := append([]float64(nil), steady...)
	eightWins := scaled(steady, 0.8)
	eightWins[0], eightWins[1] = 200, 200
	cases := []struct {
		name       string
		base, head []float64
		m          benchjson.MetricSpec
		floor      float64
		verdict    string
		wins       int
	}{
		{"worse beyond the bound", steady, scaled(steady, 1.2), lower, 0, regressed, 0},
		{"worse within the bound", steady, scaled(steady, 1.05), lower, 0, unchanged, 0},
		{"worse beyond the bound but under the floor", steady, scaled(steady, 1.2), lower, 50, unchanged, 0},
		{"ties count for neither side", steady, tied, lower, 0, unchanged, 0},
		{"better in every pair and beyond the spread", steady, scaled(steady, 0.8), lower, 0, improved, 10},
		{"better in 8 of 10 pairs", steady, eightWins, lower, 0, unchanged, 8},
		{"better but under the floor", steady, scaled(steady, 0.8), lower, 50, unchanged, 10},
		{"spread wider than the bound", noisy, scaled(noisy, 0.98), lower, 0, unresolved, 10},
		{"spread wider than the bound, every run better", noisy, scaled(steady, 0.5), lower, 0, improved, 10},
		{"spread wider than the bound, worse beyond it", noisy, scaled(noisy, 1.3), lower, 0, regressed, 0},
		{"higher is better: a drop regresses", steady, scaled(steady, 0.8), higher, 0, regressed, 0},
		{"higher is better: a rise improves", steady, scaled(steady, 1.2), higher, 0, improved, 10},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := compare(c.base, c.head, c.m, c.floor)
			if got.verdict != c.verdict || got.wins != c.wins || got.pairs != 10 {
				t.Errorf("verdict %s, wins %d/%d; want %s, %d/10", got.verdict, got.wins, got.pairs, c.verdict, c.wins)
			}
		})
	}
}

// writeRuns writes one record per value of the cold_ms metric.
func writeRuns(t *testing.T, dir string, workload string, values []float64) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		r := benchjson.Record{Workload: workload, Seed: int64(i + 1), Result: benchjson.Line{
			Correct: true, Attempted: 1,
			Metrics: map[string]benchjson.Metric{"cold_ms": {Value: v, Unit: "ms"}},
		}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, workload+"-"+string(rune('a'+i))+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunSameAndRegression(t *testing.T) {
	dir := t.TempDir()
	spec := benchjson.Spec{
		Workloads: []benchjson.Workload{{Name: "w", Why: "test"}},
		EndToEnd:  []benchjson.MetricSpec{lower},
	}
	data, _ := json.Marshal(spec)
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	writeRuns(t, filepath.Join(dir, "a"), "w", steady)
	writeRuns(t, filepath.Join(dir, "b"), "w", scaled(steady, 1.01))
	writeRuns(t, filepath.Join(dir, "slow"), "w", scaled(steady, 1.3))
	writeRuns(t, filepath.Join(dir, "fast"), "w", scaled(steady, 0.7))

	for _, c := range []struct {
		head string
		same bool
		pass bool
		word string
	}{
		{"b", true, true, unchanged},
		{"slow", false, false, regressed},
		{"slow", true, false, regressed},
		{"fast", false, true, improved},
		{"fast", true, false, improved},
	} {
		var out bytes.Buffer
		pass, err := run(&out, specPath, filepath.Join(dir, "a"), filepath.Join(dir, c.head), c.same)
		if err != nil {
			t.Fatal(err)
		}
		if pass != c.pass || !strings.Contains(out.String(), c.word) {
			t.Errorf("head %s same=%v: pass %v, want %v; output:\n%s", c.head, c.same, pass, c.pass, out.String())
		}
	}
}
