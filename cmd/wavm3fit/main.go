// Command wavm3fit runs a measurement campaign on the simulated m01–m02
// testbed, fits the WAVM3 model and the three baselines, and prints the
// coefficient tables (Tables III, IV and VI of the paper).
//
// Usage:
//
//	wavm3fit            # full sweeps, 10 runs per point (minutes)
//	wavm3fit -quick     # extreme sweep points, 2 runs (seconds)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/migration"
	"repro/internal/report"
	"repro/internal/units"
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
		quick = flag.Bool("quick", false, "trim sweeps and repeats for a fast demonstration")
		runs  = flag.Int("runs", 0, "override repeats per point (0 = 10, or 2 with -quick)")
		seed  = flag.Int64("seed", 1, "campaign seed")
	)
	common := cliflags.Register(flag.CommandLine)
	flag.Parse()

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
	cfg := experiments.DefaultConfig(hw.PairM)
	cfg.Seed = *seed
	cfg.Workers = common.Workers
	cfg.Cache = cache
	cfg.Ctx = ctx
	if *quick {
		cfg.MinRuns = 2
		cfg.VarianceTol = 0.9
		cfg.LoadLevels = []int{0, 5, 8}
		cfg.DirtyLevels = []units.Fraction{0.05, 0.55, 0.95}
	}
	if *runs > 0 {
		cfg.MinRuns = *runs
	}
	perf := common.NewBenchReport("wavm3fit")
	perf.Quick = *quick
	perf.Seed = *seed
	started := time.Now()

	fmt.Fprintln(os.Stderr, "wavm3fit: running campaign (CPULOAD-SOURCE, CPULOAD-TARGET, MEMLOAD-VM)...")
	t0 := time.Now()
	camp, err := experiments.RunCampaign(cfg,
		experiments.CPULoadSource, experiments.CPULoadTarget, experiments.MemLoadVM)
	if err != nil {
		return err
	}
	perf.Add("campaign", time.Since(t0))
	t0 = time.Now()
	suite, err := experiments.BuildSuite(camp, nil)
	if err != nil {
		return err
	}
	perf.Add("training", time.Since(t0))

	t0 = time.Now()
	for _, kind := range []migration.Kind{migration.NonLive, migration.Live} {
		ct, err := suite.CoefficientTable(kind)
		if err != nil {
			return err
		}
		if err := report.CoeffTable(ct).Write(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	t6, err := suite.Table6()
	if err != nil {
		return err
	}
	if err := report.BaselineTable(t6).Write(os.Stdout); err != nil {
		return err
	}
	perf.Add("tables", time.Since(t0))

	return common.Finish(os.Stderr, perf, cache, started)
}

// fatal reports err and exits: code 3 when -timeout expired, 1 for
// every other failure.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wavm3fit:", err)
	if cliflags.IsDeadline(err) {
		os.Exit(cliflags.ExitDeadline)
	}
	os.Exit(1)
}
