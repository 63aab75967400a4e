package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// recorder keeps the spans of a traced run in memory. The benchmark
// opens spans around its own calls into each layer (span), and the
// wrappers it places at layer boundaries record finished spans from any
// goroutine (leaf). A nil recorder records nothing, so untraced passes
// run the same code.
type recorder struct {
	t0     time.Time
	mu     sync.Mutex
	pass   string // label of the pass being driven
	open   int    // innermost span open on the driving goroutine, -1 for none
	spans  []span
	counts map[[2]string]int64 // by pass and name
}

// span is one timed call: name is "layer.operation", optionally followed
// by "/" and what it operated on.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Pass   string  `json:"pass"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	// N is the operation's size: bytes for a store operation, hosts for
	// a planning round.
	N int64 `json:"n,omitempty"`
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), open: -1, counts: map[[2]string]int64{}}
}

func (r *recorder) since(t time.Time) float64 {
	return float64(t.Sub(r.t0)) / float64(time.Microsecond)
}

// setPass labels the spans recorded from now on.
func (r *recorder) setPass(pass string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.pass = pass
	r.mu.Unlock()
}

// span runs f as a span called name, nested under the span open on the
// driving goroutine. Spans opened this way must not overlap except by
// nesting.
func (r *recorder) span(name string, f func() error) error {
	if r == nil {
		return f()
	}
	r.mu.Lock()
	id := len(r.spans)
	parent := r.open
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Pass: r.pass, Start: r.since(time.Now())})
	r.open = id
	r.mu.Unlock()
	err := f()
	r.mu.Lock()
	r.spans[id].End = r.since(time.Now())
	r.open = parent
	r.mu.Unlock()
	return err
}

// leaf records a span that started at start and ends now, from any
// goroutine, under the span open on the driving goroutine.
func (r *recorder) leaf(name string, start time.Time, n int64) {
	if r == nil {
		return
	}
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: r.open, Name: name, Pass: r.pass,
		Start: r.since(start), End: r.since(end), N: n})
	r.mu.Unlock()
}

// add counts n events called name in the current pass.
func (r *recorder) add(name string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[[2]string{r.pass, name}] += n
	r.mu.Unlock()
}

// count returns the events called name counted in pass.
func (r *recorder) count(pass, name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[[2]string{pass, name}]
}

// countAll returns the events called name counted in every pass.
func (r *recorder) countAll(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for k, v := range r.counts {
		if k[1] == name {
			n += v
		}
	}
	return n
}

// matches reports whether a span name belongs to prefix: the name itself
// or one of its "/"-qualified forms.
func matches(name, prefix string) bool {
	return name == prefix || strings.HasPrefix(name, prefix+"/")
}

// sum returns the total duration, number and size of the spans of pass
// (of every pass when pass is "") whose name belongs to prefix, and the
// largest size among them.
func (r *recorder) sum(pass, prefix string) (d time.Duration, n int, size, maxSize int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if (pass == "" || s.Pass == pass) && matches(s.Name, prefix) {
			d += time.Duration((s.End - s.Start) * float64(time.Microsecond))
			n++
			size += s.N
			maxSize = max(maxSize, s.N)
		}
	}
	return d, n, size, maxSize
}

// seconds is the total duration of the matching spans, in seconds.
func (r *recorder) seconds(pass, prefix string) float64 {
	d, _, _, _ := r.sum(pass, prefix)
	return d.Seconds()
}

// selfTime is one span name's time in one pass: the total of its spans
// and the part no child span covers.
type selfTime struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes returns, per pass and span name, the total and self time. A
// span's self time is its duration minus the union of its children's
// intervals clipped to it; children recorded from other goroutines may
// overlap each other.
func (r *recorder) selfTimes() map[string]map[string]selfTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]map[string]selfTime)
	for _, s := range r.spans {
		covered := 0.0
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		end := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, end), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		if out[s.Pass] == nil {
			out[s.Pass] = make(map[string]selfTime)
		}
		st := out[s.Pass][s.Name]
		st.Count++
		st.TotalS += (s.End - s.Start) / 1e6
		st.SelfS += (s.End - s.Start - covered) / 1e6
		out[s.Pass][s.Name] = st
	}
	return out
}
