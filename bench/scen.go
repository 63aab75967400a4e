package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/sim"
)

// libraryFiles are the committed scenarios of the library workload:
// every scenario except the two fleet-scale ones, so migration blocks,
// plan-form specs, cluster timelines up to 1,024 hosts and the chaos
// family. The list is fixed so that a scenario added to the library
// later does not change the workload.
var libraryFiles = []string{
	"burst-overcommit-8.json", "burst-web.json", "c1-cpuload-live.json",
	"c1-cpuload-nonlive.json", "c2-xeon-memload.json", "chaos-crash-cascade-16.json",
	"consolidation-sweep.json", "contended-links-4.json", "diurnal-day.json",
	"drain-1024-rolling.json", "drain-16-maintenance.json", "drain-for-maintenance.json",
	"drain-under-crash-256.json", "fleet-diurnal-256.json", "fleet-diurnal-8.json",
	"hetero-sunset-6.json", "hetero-upgrade.json", "hotcold-db.json",
	"memstorm-live.json", "memstorm-postcopy.json", "meter-1hz.json",
	"nonlive-baseline.json", "overcommit-stress.json", "partitioned-switch-evac-8.json",
	"ramp-batch.json",
}

// fleetFiles are the fleet-day scenarios: an 8,192-host fleet and a
// 24-hour rolling drain of 100,000 hosts.
var fleetFiles = []string{"fleet-8k.json", "drain-100k-rolling.json"}

// scenarioSet is a workload that runs a fixed set of scenarios through
// service.Exec, as wavm3scen does.
type scenarioSet struct {
	files []string
	// persistent gives every cold pass a fresh -cache-dir and every warm
	// pass a fresh cache over that directory, as successive wavm3scen
	// invocations sharing one directory see it. Otherwise warm passes
	// rerun on the cold pass's memory cache.
	persistent    bool
	warmPerRound  int
	setupPerRound int
}

// The library workload uses one cache layer two ways: a cold pass runs
// every kernel and publishes every artefact (writes), a warm pass reads
// them all back and decodes them. The cluster engine and planning are a
// small share of both.
var library = scenarioSet{files: libraryFiles, persistent: true, warmPerRound: 15, setupPerRound: 5}

// The fleet-day workload is the cluster event loop and its planning at
// up to 100,000 hosts. Warm passes run no kernel and touch no store, so
// a kernel or cache change must not move them.
var fleet = scenarioSet{files: fleetFiles, warmPerRound: 4, setupPerRound: 1}

func runLibrary(e *env) (*outcome, error) { return runScenarioSet(e, library) }
func runFleet(e *env) (*outcome, error)   { return runScenarioSet(e, fleet) }

// derivedSeed is the explicit seed a scenario runs under for a benchmark
// seed: splitmix64 of the seed and the scenario's name, positive and
// below 2^62 like scenario.Spec.EffectiveSeed.
func derivedSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	x := splitmix64(uint64(seed) ^ h.Sum64())
	if s := int64(x & (1<<62 - 1)); s != 0 {
		return s
	}
	return 1
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// writeSpecs writes the inputs of seed into a fresh directory under
// work and returns it: for the reference seed the committed files byte
// for byte, for any other seed each file with an explicit "seed" derived
// from the seed and the scenario's name. The program under test only
// ever reads the written files.
func writeSpecs(work string, files []string, seed int64) (string, error) {
	dir, err := os.MkdirTemp(work, "specs-")
	if err != nil {
		return "", err
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(scenarioDir, f))
		if err != nil {
			return "", err
		}
		if seed != referenceSeed {
			if data, err = withSeed(data, seed); err != nil {
				return "", fmt.Errorf("%s: %w", f, err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
			return "", err
		}
	}
	return dir, nil
}

// withSeed sets the "seed" field of one scenario spec.
func withSeed(spec []byte, seed int64) ([]byte, error) {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(spec, &fields); err != nil {
		return nil, err
	}
	var name string
	if err := json.Unmarshal(fields["name"], &name); err != nil {
		return nil, fmt.Errorf("name: %w", err)
	}
	fields["seed"] = json.RawMessage(strconv.FormatInt(derivedSeed(seed, name), 10))
	return json.MarshalIndent(fields, "", "  ")
}

// loadSet loads and compiles the scenarios in dir as wavm3scen does.
// Load and compile are spans of rec.
func loadSet(dir string, rec *recorder) ([]*scenario.Compiled, error) {
	var specs []*scenario.Spec
	if err := rec.span("scenario.load", func() (err error) {
		specs, err = scenario.LoadDir(dir)
		return err
	}); err != nil {
		return nil, err
	}
	cs := make([]*scenario.Compiled, len(specs))
	for i, s := range specs {
		if err := rec.span("scenario.compile/"+s.Name, func() (err error) {
			cs[i], err = s.Compile()
			return err
		}); err != nil {
			return nil, err
		}
	}
	return cs, nil
}

// execPass renders every scenario through service.Exec into w, as one
// wavm3scen invocation over the set does.
func execPass(cs []*scenario.Compiled, cache *sim.Cache, w io.Writer, rec *recorder) error {
	for _, c := range cs {
		if err := rec.span("service.exec/"+c.Spec.Name, func() error {
			_, err := service.Exec(context.Background(), w, c, workers, cache)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", c.Spec.Name, err)
		}
	}
	return nil
}

// runScenarioSet runs one round of a scenario-set workload: set-up
// repetitions (loading and compiling the generated specs), one cold pass,
// then warmPerRound warm passes. Every output is checked against the
// pinned or first digest, and every warm pass must run no kernel and
// quarantine nothing.
func runScenarioSet(e *env, set scenarioSet) (*outcome, error) {
	o := &outcome{}
	specDir, err := writeSpecs(e.work, set.files, e.seed)
	if err != nil {
		return nil, err
	}
	ref, err := e.reference()
	if err != nil {
		return nil, err
	}
	want := &digestCheck{want: ref}
	var cs []*scenario.Compiled
	for i := 0; i < set.setupPerRound; i++ {
		d, err := o.timed(func() (err error) {
			cs, err = loadSet(specDir, nil)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", e.workload, err)
		}
		o.Setup = append(o.Setup, d.Seconds())
	}
	dir := ""
	if set.persistent {
		if dir, err = os.MkdirTemp(e.work, "cache-"); err != nil {
			return nil, err
		}
	}
	var cache *sim.Cache
	// A pass is one command invocation: build the cache, run the set, and
	// close the cache, which drains the artefact publishes.
	pass := func(w io.Writer) (err error) {
		if set.persistent || cache == nil {
			if cache, err = cliCache(dir); err != nil {
				return err
			}
		}
		if err := execPass(cs, cache, w, nil); err != nil {
			return err
		}
		return cache.Close()
	}
	o.Cold = append(o.Cold, o.pass("cold pass", want, pass))
	for i := 0; i < set.warmPerRound; i++ {
		var before sim.CacheStats // a persistent warm pass starts a new cache
		if !set.persistent {
			before = cache.Snapshot()
		}
		o.Warm = append(o.Warm, o.pass("warm pass", want, pass))
		if d := cache.Snapshot().Delta(before); d.KernelRuns != 0 || d.Quarantined != 0 {
			o.fail("warm pass ran %d kernels and quarantined %d artefacts", d.KernelRuns, d.Quarantined)
		}
	}
	return o, nil
}
