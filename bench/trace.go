package main

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro/bench/internal/benchjson"
	"repro/internal/consolidation"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// A traced run attributes a workload's time to the layers below the
// benchmark without changing any of them: it times its own calls into
// each layer and wraps the three boundaries the system lets a caller
// substitute (the cache's store, the cluster engine's policy and the
// daemon's HTTP handler). It runs differential passes, each labelled:
const (
	passSetup    = "setup"
	passCold     = "cold"      // a fresh cache: every kernel runs
	passWarmMem  = "warm-mem"  // the cold pass again on its cache: memory hits
	passWarmDisk = "warm-disk" // a fresh cache over the cold pass's directory: store reads
	passExec     = "exec"      // daemon: service.Exec in-process on the daemon's warm cache
	passDirect   = "direct"    // the layers service.Exec renders from, called directly, on a warm cache
	passCompile  = "compile"   // daemon: compiling the requested specs, offline
)

// traced is what a traced run measured.
type traced struct {
	checks
	rec *recorder
	// warm labels the pass the end-to-end warm_ms measures, exec the pass
	// that runs service.Exec over a warm cache.
	warm, exec string
	// again holds the times of untraced reruns of a labelled pass, in
	// seconds (see rerun). stats holds each labelled pass's cache counter
	// movement, mem its allocation and GC movement, and output the bytes it
	// rendered.
	again  map[string][]float64
	stats  map[string]sim.CacheStats
	mem    map[string]memDelta
	output map[string]int64
	caches []*sim.Cache // every cache the run built, for their fault counters
	passes map[string]int
	specs  []*scenario.Compiled
	// overhead is the traced warm pass over the untraced one, minus one.
	overhead float64
	layers   map[string]benchjson.Metric
}

type memDelta struct {
	allocMB  float64
	gcCycles uint32
}

func newTraced(warm, exec string) *traced {
	return &traced{
		rec: newRecorder(), warm: warm, exec: exec, again: map[string][]float64{},
		stats: map[string]sim.CacheStats{}, mem: map[string]memDelta{},
		output: map[string]int64{}, passes: map[string]int{},
	}
}

// measure runs one labelled pass on cache as a "pass" span, checking its
// output against want and recording its cache, allocation and output
// movement. Warm passes must run no kernel.
func (t *traced) measure(label string, cache *sim.Cache, want *digestCheck, f func(w io.Writer) error) {
	t.rec.setPass(label)
	out := newDigest()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := cache.Snapshot()
	err := t.rec.span("pass", func() error { return f(out) })
	d := cache.Snapshot().Delta(before)
	runtime.ReadMemStats(&m1)
	t.Attempted++
	t.passes[label]++
	switch {
	case err != nil:
		t.fail("%s pass: %v", label, err)
	case !want.ok(out.sum()):
		t.fail("%s pass: output %s, want %s", label, out.sum(), want.want)
	case label != passCold && d.KernelRuns != 0:
		t.fail("%s pass ran %d kernels", label, d.KernelRuns)
	}
	t.stats[label] = d
	t.mem[label] = memDelta{allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, gcCycles: m1.NumGC - m0.NumGC}
	t.output[label] = out.n
}

// reruns is how many times rerun repeats a pass whose time enters a
// difference of two passes: a single pass of either can be off by more
// than the small layer the difference measures.
const reruns = 2

// rerun runs an untraced variant of a labelled pass reruns times,
// checking each output against want; the pass's time is then the median
// of the traced run and these (see passSeconds).
func (t *traced) rerun(label string, want *digestCheck, f func(w io.Writer) error) {
	for i := 0; i < reruns; i++ {
		t.again[label] = append(t.again[label], t.run(label+" rerun", want, f).Seconds())
		t.passes[label]++
	}
}

// passSeconds is the median time of a labelled pass over its traced run
// and its reruns.
func (t *traced) passSeconds(label string) float64 {
	return benchjson.Median(append([]float64{t.rec.seconds(label, "pass")}, t.again[label]...))
}

// cache builds the cache cliCache(dir) builds, with a timing store
// placed under the same resilience policy, so every store operation the
// cache makes is a span of rec. Without dir it is the commands' memory
// cache.
func (t *traced) cache(dir string, rec *recorder) (*sim.Cache, error) {
	c, err := tracedCache(dir, rec)
	if err == nil {
		t.caches = append(t.caches, c)
	}
	return c, err
}

func tracedCache(dir string, rec *recorder) (*sim.Cache, error) {
	if dir == "" {
		return sim.NewCache(0), nil
	}
	c := cliFlags(dir)
	store, err := sim.NewDirStore(c.CacheDir)
	if err != nil {
		return nil, err
	}
	// cliflags.Common.Cache's policy for the default flag values.
	rc := sim.ResilienceConfig{
		OpTimeout:        c.CacheOpTimeout,
		Retries:          c.CacheRetries,
		BreakerThreshold: c.CacheBreaker,
		BreakerCooldown:  c.CacheBreakerCooldown,
		AsyncPublish:     true,
	}
	return sim.NewCacheWithStore(0, sim.NewResilientStore(&timingStore{inner: store, rec: rec}, rc)), nil
}

// overheadLoop alternates untraced and traced runs of the warm pass until
// the budget is spent, at least three of each, checking every output, and
// sets the tracing overhead from their medians.
func (t *traced) overheadLoop(budget time.Duration, want *digestCheck, untraced, traced func(w io.Writer) error) {
	var plain, withSpans []float64
	start := time.Now()
	for len(plain) < 3 || time.Since(start) < budget {
		for _, p := range []struct {
			f  func(w io.Writer) error
			to *[]float64
		}{{untraced, &plain}, {traced, &withSpans}} {
			*p.to = append(*p.to, t.run("overhead pass", want, p.f).Seconds())
		}
	}
	t.passes["overhead-untraced"] = len(plain)
	t.passes["overhead-traced"] = len(withSpans)
	t.overhead = benchjson.Median(withSpans)/benchjson.Median(plain) - 1
}

// timingStore is a sim.CacheStore and sim.CacheLocker that times every
// operation of the directory store under it.
type timingStore struct {
	inner *sim.DirStore
	rec   *recorder
}

func (s *timingStore) Get(name string) ([]byte, error) {
	t0 := time.Now()
	b, err := s.inner.Get(name)
	s.rec.leaf("sim.store.get", t0, int64(len(b)))
	return b, err
}

func (s *timingStore) Put(name string, data []byte) error {
	t0 := time.Now()
	err := s.inner.Put(name, data)
	s.rec.leaf("sim.store.put", t0, int64(len(data)))
	return err
}

func (s *timingStore) Quarantine(name, reason string) error {
	t0 := time.Now()
	err := s.inner.Quarantine(name, reason)
	s.rec.leaf("sim.store.quarantine", t0, 0)
	return err
}

func (s *timingStore) Lock(ctx context.Context, name string) (func(), error) {
	t0 := time.Now()
	unlock, err := s.inner.Lock(ctx, name)
	s.rec.leaf("sim.store.lock", t0, 0)
	return unlock, err
}

// timedPolicy times every planning round of the policy it wraps; its
// spans carry the number of hosts the round saw.
type timedPolicy struct {
	inner consolidation.Policy
	rec   *recorder
}

func (p timedPolicy) Name() string { return p.inner.Name() }

func (p timedPolicy) Plan(hosts []consolidation.HostState, cfg consolidation.Config) (*consolidation.Plan, error) {
	t0 := time.Now()
	plan, err := p.inner.Plan(hosts, cfg)
	p.done(t0, len(hosts), plan)
	return plan, err
}

func (p timedPolicy) done(t0 time.Time, hosts int, plan *consolidation.Plan) {
	p.rec.leaf("consolidation.plan", t0, int64(hosts))
	if plan != nil {
		p.rec.add("consolidation.moves", int64(len(plan.Moves)))
	}
}

// timedViewPolicy keeps the engine on its view path: it delegates
// PlanView as well as Plan.
type timedViewPolicy struct {
	timedPolicy
	view consolidation.ViewPolicy
}

func (p timedViewPolicy) PlanView(v *consolidation.View, cfg consolidation.Config) (*consolidation.Plan, error) {
	t0 := time.Now()
	plan, err := p.view.PlanView(v, cfg)
	p.done(t0, len(v.HostName), plan)
	return plan, err
}

func wrapPolicy(p consolidation.Policy, rec *recorder) consolidation.Policy {
	tp := timedPolicy{inner: p, rec: rec}
	if vp, ok := p.(consolidation.ViewPolicy); ok {
		return timedViewPolicy{timedPolicy: tp, view: vp}
	}
	return tp
}

// withTimedPolicies returns copies of the compiled scenarios whose
// cluster policies are wrapped in timedPolicy.
func withTimedPolicies(cs []*scenario.Compiled, rec *recorder) []*scenario.Compiled {
	out := make([]*scenario.Compiled, len(cs))
	for i, c := range cs {
		cc := *c
		if c.Cluster != nil && c.Cluster.Config.Policy != nil {
			cr := *c.Cluster
			cr.Config.Policy = wrapPolicy(cr.Config.Policy, rec)
			cc.Cluster = &cr
		}
		out[i] = &cc
	}
	return out
}

// directPass calls what service.Exec renders from — RunScenarios for
// migration blocks, the dcsim executor for plans, RunCluster for
// timelines — with the settings Exec uses, one span per scenario, and
// counts the cluster reports' events.
func directPass(cs []*scenario.Compiled, cache *sim.Cache, rec *recorder) error {
	for _, c := range cs {
		var err error
		name := c.Spec.Name
		switch {
		case c.Cluster != nil:
			err = rec.span("cluster.run/"+name, func() error {
				rep, err := experiments.RunCluster(experiments.Config{Workers: workers, Cache: cache, Ctx: context.Background()}, c.Cluster.Config)
				if err == nil {
					rec.add("cluster.ticks", int64(len(rep.Ticks)))
					rec.add("cluster.replan_rounds", int64(rep.ReplanRounds))
					rec.add("cluster.flights", int64(len(rep.Timeline)))
					rec.add("cluster.shifts", int64(len(rep.Shifts)))
					rec.add("cluster.aborts", int64(rep.AbortedFlights))
				}
				return err
			})
		case c.Plan != nil:
			err = rec.span("dcsim.plan/"+name, func() error {
				ex := c.Plan.Executor
				ex.Workers, ex.Cache = workers, cache
				_, err := ex.ExecutePlan(c.Plan.Policy, c.Plan.Plan, c.Plan.Hosts)
				return err
			})
		default:
			scs := make([]sim.Scenario, len(c.Runs))
			for i, r := range c.Runs {
				scs[i] = r.Scenario
			}
			cfg := experiments.Config{
				Pair: c.Runs[0].Scenario.Pair, MinRuns: c.Runs[0].MinRuns, VarianceTol: c.Runs[0].VarianceTol,
				Workers: workers, Cache: cache, Ctx: context.Background(), Seed: 1,
			}
			err = rec.span("experiments.campaign/"+name, func() error {
				_, err := experiments.RunScenarios(cfg, scs...)
				return err
			})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// handlerTimer wraps the daemon's handler: each request is a
// "service.handler" span, and each response status is counted.
func handlerTimer(rec *recorder) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
			t0 := time.Now()
			h.ServeHTTP(sw, r)
			rec.leaf("service.handler", t0, 0)
			switch {
			case sw.status == http.StatusOK:
				rec.add("service.status_200", 1)
			case sw.status == http.StatusTooManyRequests:
				rec.add("service.status_429", 1)
			case sw.status >= 500:
				rec.add("service.status_5xx", 1)
			}
		})
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
