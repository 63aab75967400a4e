// Command wavm3sim runs one experiment family (or a single scenario) on
// the simulated testbed and prints the power traces and per-phase
// energies, optionally dumping per-series CSV files compatible with the
// paper's figure data.
//
// Usage:
//
//	wavm3sim -family CPULOAD-SOURCE -pair m01-m02 -runs 3 -csv out/
//	wavm3sim -family MEMLOAD-VM -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/hw"
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
		family = flag.String("family", "CPULOAD-SOURCE", "experiment family: CPULOAD-SOURCE, CPULOAD-TARGET, MEMLOAD-VM, MEMLOAD-SOURCE, MEMLOAD-TARGET")
		pair   = flag.String("pair", hw.PairM, "machine pair: m01-m02 or o1-o2")
		runs   = flag.Int("runs", 3, "minimum repeats per experimental point")
		quick  = flag.Bool("quick", false, "sweep only the extreme load/dirty levels")
		csvDir = flag.String("csv", "", "directory to write per-series CSV trace files (optional)")
		seed   = flag.Int64("seed", 1, "campaign seed")
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
	cfg := experiments.Config{Pair: *pair, MinRuns: *runs, VarianceTol: 0.5, Seed: *seed, Workers: common.Workers, Cache: cache, Ctx: ctx}
	if *quick {
		cfg.LoadLevels = []int{0, 8}
		cfg.DirtyLevels = []units.Fraction{0.05, 0.95}
	}
	perf := common.NewBenchReport("wavm3sim")
	perf.Quick = *quick
	perf.Seed = *seed
	started := time.Now()

	f := experiments.Family(*family)
	t0 := time.Now()
	prs, err := experiments.RunFamily(cfg, f)
	if err != nil {
		return err
	}
	perf.Add(string(f), time.Since(t0))
	fig, err := experiments.FamilyFigure(f, prs)
	if err != nil {
		return err
	}
	if err := report.WriteFigure(os.Stdout, fig, 30); err != nil {
		return err
	}

	fmt.Println()
	for _, pr := range prs {
		label := fmt.Sprintf("%s %s %s", f, pr.Point.Kind, pr.Point.Label())
		run := pr.Runs[0]
		if err := report.PhaseSummary(os.Stdout, label, run.SourceEnergy, run.TargetEnergy); err != nil {
			return err
		}
		fmt.Println()
	}

	if err := common.Finish(os.Stderr, perf, cache, started); err != nil {
		return err
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		for _, p := range fig.Panels {
			for _, s := range p.Series {
				name := fmt.Sprintf("%s_%s_%s.csv", sanitize(string(f)), sanitize(p.Name), sanitize(s.Label))
				path := filepath.Join(*csvDir, name)
				fh, err := os.Create(path)
				if err != nil {
					return err
				}
				if err := s.Trace.WriteCSV(fh); err != nil {
					fh.Close()
					return err
				}
				if err := fh.Close(); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", path)
			}
		}
	}
	return nil
}

func sanitize(s string) string {
	s = strings.ToLower(s)
	s = strings.NewReplacer(" ", "-", "%", "pct", "/", "-").Replace(s)
	return s
}

// fatal reports err and exits: code 3 when -timeout expired, 1 for
// every other failure.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wavm3sim:", err)
	if cliflags.IsDeadline(err) {
		os.Exit(cliflags.ExitDeadline)
	}
	os.Exit(1)
}
