// Package benchjson holds what the benchmark and its comparator share:
// the BENCHMARK.json schema, the result line and record every run
// writes, and the order statistics both compute over samples and runs.
package benchjson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// MetricSpec declares one metric in BENCHMARK.json. Bound is the share
// of the parent's median by which an end-to-end metric may worsen before
// a change counts as a regression; per-layer metrics have none.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Workload names one workload and says why the benchmark runs it.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []Workload   `json:"workloads"`
	EndToEnd   []MetricSpec `json:"end_to_end"`
	PerLayer   []MetricSpec `json:"per_layer"`
}

// LoadSpec strictly decodes BENCHMARK.json: an unknown key is an error.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// EndToEndMetric returns the declared end-to-end metric called name.
func (s *Spec) EndToEndMetric(name string) (MetricSpec, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return MetricSpec{}, false
}

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Line is the JSON object a run prints as the last line of its standard
// output.
type Line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record is the file a run writes with -out: its result line plus what
// makes two runs comparable (configuration, toolchain and machine) and
// the samples behind each median.
type Record struct {
	Workload   string                  `json:"workload"`
	Seed       int64                   `json:"seed"`
	Seconds    int                     `json:"seconds"`
	Trace      bool                    `json:"trace"`
	GitSHA     string                  `json:"git_sha"`
	GoVersion  string                  `json:"go_version"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	NumCPU     int                     `json:"num_cpu"`
	Passes     map[string]int          `json:"passes"`
	Samples    map[string]Distribution `json:"samples,omitempty"`
	Failures   []string                `json:"failures,omitempty"`
	Result     Line                    `json:"result"`
}

// Distribution summarises the samples behind one median: their count,
// quartiles, and the highest of p90, p99 and p99.9 that has at least ten
// samples beyond it. Small sets keep their values.
type Distribution struct {
	N         int       `json:"n"`
	Q1        float64   `json:"q1"`
	Median    float64   `json:"median"`
	Q3        float64   `json:"q3"`
	Tail      string    `json:"tail,omitempty"`
	TailValue float64   `json:"tail_value,omitempty"`
	Values    []float64 `json:"values,omitempty"`
}

// maxKeptValues is the largest sample set a Distribution keeps whole.
const maxKeptValues = 64

// Distribute summarises xs.
func Distribute(xs []float64) Distribution {
	d := Distribution{N: len(xs)}
	d.Q1, d.Median, d.Q3 = Quartiles(xs)
	if len(xs) <= maxKeptValues {
		d.Values = xs
	}
	s := sorted(xs)
	for _, t := range []struct {
		name string
		q    float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if float64(len(s))*(1-t.q) >= 10 {
			d.Tail, d.TailValue = t.name, s[int(math.Ceil(t.q*float64(len(s))))-1]
			break
		}
	}
	return d
}

// Median is the middle of xs (the mean of the two middle values for an
// even count); NaN when xs is empty.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, median and third quartile of xs
// as Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), so a spread computed here matches one computed by
// a script. One value is its own quartiles; none gives NaN.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
