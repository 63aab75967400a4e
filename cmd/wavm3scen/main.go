// Command wavm3scen runs declarative scenarios from the scenario library
// (scenarios/*.json) on the simulated testbed: single migrations, phased
// workload timelines (each phase an independently runnable block),
// data-centre plans executed move by move as measured migrations, and
// N-host cluster timelines evolved through policy ticks, contended
// links and workload phase transitions.
//
// Output on stdout is deterministic: the same scenario files produce
// bit-identical results across runs, worker counts and cache settings
// (seeds live in the scenario specs; timing chatter goes to stderr).
// The rendering is shared with the wavm3d daemon (internal/service), so
// an HTTP run of the same scenario returns these exact bytes.
//
// Exit codes: 0 success, 1 failure, 2 usage, 3 -timeout expired before
// the session finished.
//
// Usage:
//
//	wavm3scen -dir scenarios/             # run every committed scenario
//	wavm3scen scenarios/memstorm-live.json            # run one file
//	wavm3scen 'scenarios/c1-*.json'       # run a glob
//	wavm3scen -check -dir scenarios/      # load+validate+compile only (CI)
//	wavm3scen -list -dir scenarios/       # print the library catalog
//	wavm3scen -dir scenarios/ -benchjson perf.json    # timing metrics
//	wavm3scen -timeout 90s -dir scenarios/            # bounded session
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fatal(err)
	}
}

// run is the session. Every return after StartProfiles stops the
// profilers and closes the cache, on failure as on success.
func run() (err error) {
	var (
		dir   = flag.String("dir", "", "run every *.json scenario in this directory")
		check = flag.Bool("check", false, "load, validate and compile the scenarios, run nothing (CI round-trip gate)")
		list  = flag.Bool("list", false, "print the scenario catalog and exit")
	)
	common := cliflags.Register(flag.CommandLine)
	flag.Parse()

	if *dir == "" && flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "wavm3scen: nothing to run; pass -dir <scenarios/> or scenario files (see -h)")
		os.Exit(2)
	}

	if *list {
		if *dir == "" {
			return fmt.Errorf("-list needs -dir")
		}
		infos, err := scenario.List(*dir)
		if err != nil {
			return err
		}
		for _, in := range infos {
			form := "migration"
			switch {
			case in.Datacenter:
				form = "datacenter"
			case in.Cluster > 0:
				form = fmt.Sprintf("cluster, %d hosts", in.Cluster)
			case in.Phases > 0:
				form = fmt.Sprintf("migration, %d phases", in.Phases)
			}
			fmt.Printf("%-24s (%s)\n    %s\n", in.Name, form, in.Description)
		}
		return nil
	}

	specs, err := loadSpecs(*dir, flag.Args())
	if err != nil {
		return err
	}
	compiled := make([]*scenario.Compiled, len(specs))
	for i, s := range specs {
		c, err := s.Compile()
		if err != nil {
			return err
		}
		compiled[i] = c
	}
	if *check {
		for i, c := range compiled {
			switch {
			case c.Cluster != nil:
				fmt.Printf("ok %-24s cluster: %d host(s)\n", specs[i].Name, len(c.Cluster.Config.Hosts))
			case c.Plan != nil:
				fmt.Printf("ok %-24s %d block(s)\n", specs[i].Name, len(c.Plan.Plan.Moves))
			default:
				fmt.Printf("ok %-24s %d block(s)\n", specs[i].Name, len(c.Runs))
			}
		}
		return nil
	}

	ctx, cancel := common.Context()
	defer cancel()
	cache, err := common.Cache()
	if err != nil {
		return err
	}
	defer cache.Close() // a no-op once Finish has closed it
	stopProf, err := common.StartProfiles()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); err == nil {
			err = perr
		}
	}()
	perf := common.NewBenchReport("wavm3scen")
	started := time.Now()

	for i, c := range compiled {
		t0 := time.Now()
		before := cache.Snapshot()
		res, err := service.Exec(ctx, os.Stdout, c, common.Workers, cache)
		if err != nil {
			return err
		}
		// Per-artefact cache effectiveness: this scenario's share of the
		// session cache traffic across both tiers (a nil cache reads as
		// zero lookups).
		d := cache.Snapshot().Delta(before)
		perf.AddWithCache(specs[i].Name, time.Since(t0), report.CacheDelta{
			Hits: d.Hits, Misses: d.Misses, DiskHits: d.DiskHits, DiskMisses: d.DiskMisses,
		})
		// Chaos scenarios also record their SLO outcome in the artefact.
		if res.Cluster != nil && len(c.Cluster.Config.Failures) > 0 {
			perf.AnnotateSLO(report.SLO{
				AbortedFlights: res.Cluster.AbortedFlights,
				OrphanedVMs:    res.Cluster.OrphanedVMs,
				EvacuatedVMs:   res.Cluster.EvacuatedVMs,
				DeadlineMet:    res.Cluster.EvacuationDeadlineMet,
				FleetEnergyJ:   float64(res.Cluster.FleetEnergy),
			})
		}
	}

	if err := common.Finish(os.Stderr, perf, cache, started); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wavm3scen: %d scenario(s) in %v\n", len(specs), time.Since(started).Round(time.Millisecond))
	return nil
}

// loadSpecs resolves -dir and positional file/glob arguments in order.
// The combined set is held to the same invariant a single directory is:
// unique names and unique effective seeds, so `-dir scenarios/ a.json`
// cannot run a scenario twice or smuggle in a seed collision.
func loadSpecs(dir string, args []string) ([]*scenario.Spec, error) {
	var specs []*scenario.Spec
	if dir != "" {
		ds, err := scenario.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		specs = append(specs, ds...)
	}
	for _, a := range args {
		// Go's flag package stops at the first positional argument, so a
		// flag placed after a file would arrive here; refuse it instead of
		// trying to open a file called "-benchjson".
		if strings.HasPrefix(a, "-") {
			return nil, fmt.Errorf("flag %q after positional arguments; flags must come before scenario files", a)
		}
		if strings.ContainsAny(a, "*?[") {
			gs, err := scenario.LoadGlob(a)
			if err != nil {
				return nil, err
			}
			specs = append(specs, gs...)
			continue
		}
		s, err := scenario.Load(a)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	if err := scenario.CheckUnique(specs); err != nil {
		return nil, err
	}
	return specs, nil
}

// fatal reports err and exits: code 3 when -timeout expired, 1 for
// every other failure.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wavm3scen:", err)
	if cliflags.IsDeadline(err) {
		os.Exit(cliflags.ExitDeadline)
	}
	os.Exit(1)
}
