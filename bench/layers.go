package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/bench/internal/benchjson"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// tracePaper traces paper-cold: a cold session, a memory-warm rerun, then
// the overhead loop on memory-warm sessions.
func tracePaper(e *env) (*traced, error) {
	start := time.Now()
	t := newTraced(passWarmMem, "")
	ref, err := e.reference()
	if err != nil {
		return nil, err
	}
	want := &digestCheck{want: ref}
	t.rec.setPass(passSetup)
	if err := t.rec.span("pass", func() error { return paperSetup(e.seed) }); err != nil {
		return nil, fmt.Errorf("paper-cold set-up: %w", err)
	}
	cache, _ := t.cache("", nil) // a memory cache cannot fail
	m, o := paperConfigs(e.seed, cache)
	session := func(rec *recorder) func(io.Writer) error {
		return func(w io.Writer) error { return paperSession(m, o, w, rec) }
	}
	t.measure(passCold, cache, want, session(t.rec))
	t.measure(passWarmMem, cache, want, session(t.rec))
	t.overheadLoop(e.budget-time.Since(start), want, session(nil), func(w io.Writer) error {
		return paperSession(m, o, w, newRecorder())
	})
	t.layers = t.layerMetrics()
	return t, nil
}

func traceLibrary(e *env) (*traced, error) { return traceScenarioSet(e, library) }
func traceFleet(e *env) (*traced, error)   { return traceScenarioSet(e, fleet) }

// traceScenarioSet traces a scenario-set workload: a cold pass (closing
// the cache after it), a memory-warm pass, a direct pass, a disk-warm
// pass when the set is persistent, then the overhead loop on the pass
// warm_ms measures.
func traceScenarioSet(e *env, set scenarioSet) (*traced, error) {
	start := time.Now()
	warm := passWarmMem
	if set.persistent {
		warm = passWarmDisk
	}
	t := newTraced(warm, passWarmMem)
	ref, err := e.reference()
	if err != nil {
		return nil, err
	}
	want := &digestCheck{want: ref}
	specDir, err := writeSpecs(e.work, set.files, e.seed)
	if err != nil {
		return nil, err
	}
	t.rec.setPass(passSetup)
	if err := t.rec.span("pass", func() (err error) {
		t.specs, err = loadSet(specDir, t.rec)
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", e.workload, err)
	}
	dir := ""
	if set.persistent {
		if dir, err = os.MkdirTemp(e.work, "cache-"); err != nil {
			return nil, err
		}
	}
	cache, err := t.cache(dir, t.rec)
	if err != nil {
		return nil, err
	}
	timed := withTimedPolicies(t.specs, t.rec)
	exec := func(w io.Writer) error { return execPass(timed, cache, w, t.rec) }
	t.measure(passCold, cache, want, exec)
	if set.persistent {
		if err := t.rec.span("sim.cache.close", cache.Close); err != nil {
			t.fail("closing the cold cache: %v", err)
		}
	}
	t.measure(passWarmMem, cache, want, exec)
	t.direct(timed, cache)
	if set.persistent {
		disk, err := t.cache(dir, t.rec)
		if err != nil {
			return nil, err
		}
		t.measure(passWarmDisk, disk, want, func(w io.Writer) error {
			if err := execPass(timed, disk, w, t.rec); err != nil {
				return err
			}
			return disk.Close()
		})
	}

	memWarm := func(w io.Writer) error { return execPass(t.specs, cache, w, nil) }
	t.rerun(passWarmMem, want, memWarm)
	t.rerun(passDirect, &digestCheck{}, func(io.Writer) error { return directPass(t.specs, cache, nil) })

	untraced := memWarm
	withSpans := func(w io.Writer) error {
		rec := newRecorder()
		return execPass(withTimedPolicies(t.specs, rec), cache, w, rec)
	}
	if set.persistent {
		untraced = func(w io.Writer) error {
			c, err := cliCache(dir)
			if err != nil {
				return err
			}
			if err := execPass(t.specs, c, w, nil); err != nil {
				return err
			}
			return c.Close()
		}
		withSpans = func(w io.Writer) error {
			rec := newRecorder()
			c, err := tracedCache(dir, rec)
			if err != nil {
				return err
			}
			if err := execPass(withTimedPolicies(t.specs, rec), c, w, rec); err != nil {
				return err
			}
			return c.Close()
		}
		t.rerun(passWarmDisk, want, untraced)
	}
	t.overheadLoop(e.budget-time.Since(start), want, untraced, withSpans)
	t.layers = t.layerMetrics()
	return t, nil
}

// direct runs the direct pass on a warm cache; it must run no kernel.
func (t *traced) direct(cs []*scenario.Compiled, cache *sim.Cache) {
	t.rec.setPass(passDirect)
	before := cache.Snapshot()
	err := t.rec.span("pass", func() error { return directPass(cs, cache, t.rec) })
	t.Attempted++
	t.passes[passDirect]++
	if err != nil {
		t.fail("direct pass: %v", err)
	} else if d := cache.Snapshot().Delta(before); d.KernelRuns != 0 {
		t.fail("direct pass ran %d kernels", d.KernelRuns)
	}
}

func traceDaemon(e *env) (*traced, error) { return traceDaemonMix(e, daemonFull) }

// traceDaemonMix traces daemon-mix one request at a time: the warm-up
// over an empty cache directory is the cold pass, a second round of the
// same requests the memory-warm pass, and a restarted daemon's first
// round the disk-warm pass. In between, the requested specs are compiled
// offline and run in-process through service.Exec and directly on the
// daemon's cache. The overhead loop compares rounds against an untraced
// and a traced daemon sharing the directory.
func traceDaemonMix(e *env, m daemonMix) (*traced, error) {
	start := time.Now()
	t := newTraced(passWarmMem, passExec)
	ref, err := e.reference()
	if err != nil {
		return nil, err
	}
	want := &digestCheck{want: ref}
	cacheDir, err := os.MkdirTemp(e.work, "cache-")
	if err != nil {
		return nil, err
	}
	in, err := m.inputs(e)
	if err != nil {
		return nil, err
	}
	newCache := func(dir string) (*sim.Cache, error) { return t.cache(dir, t.rec) }
	var running []*daemonState
	defer func() {
		for _, st := range running {
			_ = st.close() // a shutdown failure is reported where it is checked below
		}
	}()
	launch := func(newCache func(string) (*sim.Cache, error), wrap func(http.Handler) http.Handler) (*daemonState, error) {
		st, err := in.start(cacheDir, newCache, wrap)
		if err == nil {
			running = append(running, st)
		}
		return st, err
	}
	stop := func(st *daemonState) {
		running = running[:len(running)-1]
		if err := st.close(); err != nil {
			t.fail("daemon shutdown: %v", err)
		}
	}

	t.rec.setPass(passSetup)
	var st *daemonState
	if err := t.rec.span("pass", func() (err error) {
		st, err = launch(newCache, handlerTimer(t.rec))
		return err
	}); err != nil {
		return nil, fmt.Errorf("daemon-mix set-up: %w", err)
	}
	t.measure(passCold, st.cache, want, func(w io.Writer) error { return st.requestAll(w, t.rec) })
	t.measure(passWarmMem, st.cache, want, func(w io.Writer) error { return st.requestAll(w, t.rec) })

	t.rec.setPass(passCompile)
	if t.specs, err = loadSet(in.specDir, t.rec); err != nil {
		return nil, err
	}
	timed := withTimedPolicies(t.specs, t.rec)
	t.measure(passExec, st.cache, want, func(w io.Writer) error { return execPass(timed, st.cache, w, t.rec) })
	t.direct(timed, st.cache)
	t.rerun(passExec, want, func(w io.Writer) error { return execPass(t.specs, st.cache, w, nil) })
	t.rerun(passDirect, &digestCheck{}, func(io.Writer) error { return directPass(t.specs, st.cache, nil) })
	stop(st)

	if st, err = launch(newCache, handlerTimer(t.rec)); err != nil {
		return nil, err
	}
	t.measure(passWarmDisk, st.cache, want, func(w io.Writer) error { return st.requestAll(w, t.rec) })
	stop(st)

	plain, err := launch(cliCache, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	withSpans, err := launch(func(dir string) (*sim.Cache, error) { return tracedCache(dir, rec) }, handlerTimer(rec))
	if err != nil {
		return nil, err
	}
	for _, d := range []*daemonState{plain, withSpans} {
		if err := d.requestAll(io.Discard, nil); err != nil { // disk-warm to memory-warm
			return nil, err
		}
	}
	t.overheadLoop(e.budget-time.Since(start), want,
		func(w io.Writer) error { return plain.requestAll(w, nil) },
		func(w io.Writer) error { return withSpans.requestAll(w, rec) })
	stop(withSpans)
	stop(plain)
	t.layers = t.layerMetrics()
	return t, nil
}

// layerMetrics computes the per-layer metrics from the labelled passes.
// A share is a percentage of the cold pass (_cold_pct) or of the pass
// warm_ms measures (_warm_pct); each is a span total or the difference
// of two passes that differ in one layer. Every workload reports every
// metric, and a layer the workload does not use reads 0.
func (t *traced) layerMetrics() map[string]benchjson.Metric {
	r := t.rec
	out := map[string]benchjson.Metric{}
	set := func(name, unit string, v float64) { out[name] = benchjson.Metric{Value: v, Unit: unit} }
	pct := func(part, whole float64) float64 {
		if whole <= 0 {
			return 0
		}
		return 100 * part / whole
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	closeS := r.seconds(passCold, "sim.cache.close")
	cold := r.seconds(passCold, "pass") + closeS
	memWarm := t.passSeconds(passWarmMem)
	warm := t.passSeconds(t.warm)
	coldStore := r.seconds(passCold, "sim.store.get") + r.seconds(passCold, "sim.store.lock")
	kernel := cold - memWarm - coldStore - closeS
	cs := t.stats[passCold]
	set("pass.cold_s", "s", cold)
	set("pass.warm_s", "s", warm)
	set("pass.output_mb", "MB", float64(t.output[t.warm])/1e6)
	set("trace.overhead_ratio", "ratio", t.overhead)

	hosts := 0
	for _, c := range t.specs {
		if c.Cluster != nil {
			hosts += len(c.Cluster.Config.Hosts)
		}
	}
	compile := r.seconds(passCompile, "scenario.compile")
	set("scenario.specs", "count", float64(len(t.specs)))
	set("scenario.hosts", "count", float64(hosts))
	set("scenario.setup_pct", "%", pct(r.seconds(passSetup, "scenario.load")+r.seconds(passSetup, "scenario.compile"), r.seconds(passSetup, "pass")))
	set("scenario.compile_warm_pct", "%", pct(compile, warm))

	var warmRuns uint64
	for label, st := range t.stats {
		if label != passCold {
			warmRuns += st.KernelRuns
		}
	}
	set("sim.kernel.runs", "count", float64(cs.KernelRuns))
	set("sim.kernel.warm_runs", "count", float64(warmRuns))
	set("sim.kernel.busy_s", "s", kernel)
	set("sim.kernel.ms_per_run", "ms", ratio(kernel*1e3, float64(cs.KernelRuns)))
	set("sim.kernel.cold_pct", "%", pct(kernel, cold))

	var faults sim.CacheStats
	for _, c := range t.caches {
		s := c.Snapshot()
		faults.Quarantined += s.Quarantined
		faults.StoreErrors += s.StoreErrors
		faults.Retries += s.Retries
		faults.Timeouts += s.Timeouts
		faults.PublishDrops += s.PublishDrops
	}
	decode := 0.0
	if t.warm == passWarmDisk {
		decode = warm - memWarm - r.seconds(passWarmDisk, "sim.store.get")
	}
	set("sim.cache.hits", "count", float64(cs.Hits))
	set("sim.cache.misses", "count", float64(cs.Misses))
	set("sim.cache.hit_ratio", "ratio", ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses)))
	set("sim.cache.disk_hits", "count", float64(t.stats[passWarmDisk].DiskHits))
	set("sim.cache.disk_misses", "count", float64(cs.DiskMisses))
	set("sim.cache.quarantined", "count", float64(faults.Quarantined))
	set("sim.cache.store_errors", "count", float64(faults.StoreErrors))
	set("sim.cache.retries", "count", float64(faults.Retries))
	set("sim.cache.timeouts", "count", float64(faults.Timeouts))
	set("sim.cache.publish_drops", "count", float64(faults.PublishDrops))
	set("sim.cache.close_pct", "%", pct(closeS, cold))
	set("sim.cache.decode_warm_pct", "%", pct(decode, warm))

	_, gets, getBytes, _ := r.sum(passWarmDisk, "sim.store.get")
	_, puts, putBytes, _ := r.sum("", "sim.store.put")
	_, locks, _, _ := r.sum(passCold, "sim.store.lock")
	set("sim.store.get_calls", "count", float64(gets))
	set("sim.store.get_mb", "MB", float64(getBytes)/1e6)
	set("sim.store.put_calls", "count", float64(puts))
	set("sim.store.put_mb", "MB", float64(putBytes)/1e6)
	set("sim.store.lock_calls", "count", float64(locks))
	set("sim.store.cold_pct", "%", pct(coldStore, cold))
	set("sim.store.warm_pct", "%", pct(r.seconds(t.warm, "sim.store.get"), warm))

	// The paper session's spans sit in its warm pass; the scenario
	// workloads' experiments, dcsim and cluster spans in the direct pass.
	// A layer's time in the direct pass is its share of the traced direct
	// pass applied to the pass's median time, so the layers and rendering
	// (Exec minus the direct pass) add up to the Exec pass.
	direct := t.passSeconds(passDirect)
	inDirect := func(prefix string) float64 {
		return direct * ratio(r.seconds(passDirect, prefix), r.seconds(passDirect, "pass"))
	}
	set("experiments.campaign_warm_pct", "%", pct(r.seconds(t.warm, "experiments.campaign")+inDirect("experiments.campaign"), warm))
	set("experiments.fit_warm_pct", "%", pct(r.seconds(t.warm, "experiments.fit"), warm))
	set("experiments.tables_warm_pct", "%", pct(r.seconds(t.warm, "experiments.tables"), warm))
	set("report.render_warm_pct", "%", pct(r.seconds(t.warm, "report.render"), warm))

	plan := inDirect("consolidation.plan")
	_, planCalls, _, viewHosts := r.sum(passDirect, "consolidation.plan")
	rounds := r.count(passDirect, "cluster.replan_rounds")
	set("dcsim.warm_pct", "%", pct(inDirect("dcsim.plan"), warm))
	set("cluster.warm_pct", "%", pct(inDirect("cluster.run")-plan, warm))
	set("cluster.ticks", "count", float64(r.count(passDirect, "cluster.ticks")))
	set("cluster.replan_rounds", "count", float64(rounds))
	set("cluster.flights", "count", float64(r.count(passDirect, "cluster.flights")))
	set("cluster.shifts", "count", float64(r.count(passDirect, "cluster.shifts")))
	set("cluster.aborts", "count", float64(r.count(passDirect, "cluster.aborts")))
	set("consolidation.warm_pct", "%", pct(plan, warm))
	set("consolidation.plan_calls", "count", float64(planCalls))
	set("consolidation.moves", "count", float64(r.count(passDirect, "consolidation.moves")))
	set("consolidation.view_hosts", "count", float64(viewHosts))
	set("consolidation.calls_per_round", "ratio", ratio(float64(planCalls), float64(rounds)))

	// Exec renders what the direct pass computes. The daemon's handler
	// compiles the spec and runs Exec, and the client sees the handler
	// plus the transport.
	render := 0.0
	if t.exec != "" {
		render = t.passSeconds(t.exec) - direct
	}
	transport := 0.0
	handler := r.seconds(t.warm, "service.handler")
	if handler > 0 {
		transport = warm - handler
	}
	set("service.render_warm_pct", "%", pct(render, warm))
	set("service.handler_warm_pct", "%", pct(handler, warm))
	set("service.transport_warm_pct", "%", pct(transport, warm))
	for _, code := range []string{"200", "429", "5xx"} {
		set("service.status_"+code, "count", float64(r.countAll("service.status_"+code)))
	}

	set("runtime.alloc_mb_per_pass", "MB", t.mem[t.warm].allocMB)
	set("runtime.gc_cycles_per_pass", "count", float64(t.mem[t.warm].gcCycles))
	return out
}
