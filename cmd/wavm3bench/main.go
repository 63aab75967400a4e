// Command wavm3bench regenerates every table and figure of the paper's
// evaluation section in one run: Figures 2–7 (power traces per experiment
// family) and Tables III–VII (coefficients, NRMSE and the four-model
// comparison).
//
// All campaigns share one run cache: the table campaigns re-run the same
// families as Figures 3–5, and every family revisits the zero-load
// baseline, so each distinct (scenario, seed) block simulates exactly
// once per session. Cached results are bit-identical to fresh runs.
//
// Usage:
//
//	wavm3bench                      # everything, paper-scale sweeps (minutes)
//	wavm3bench -quick               # everything, reduced sweeps (tens of seconds)
//	wavm3bench -only table7         # one artefact: fig2..fig7, table3..table7
//	wavm3bench -benchjson perf.json # also write machine-readable timings
//	wavm3bench -quick -timeout 5m   # bounded session
//
// Exit codes: 0 success, 1 failure, 2 usage, 3 -timeout expired before
// the artefacts finished.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/migration"
	"repro/internal/report"
	"repro/internal/units"
)

// artefacts in paper order.
var artefactOrder = []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table3", "table4", "table5", "table6", "table7", "ablation", "xval"}

func main() {
	if err := run(); err != nil {
		fatal(err)
	}
}

// run is the session. Every return after StartProfiles stops the
// profilers and closes the cache, on failure as on success.
func run() (err error) {
	var (
		quick = flag.Bool("quick", false, "reduced sweeps and repeats")
		only  = flag.String("only", "", "comma-separated artefacts (fig2..fig7, table3..table7); empty = all")
		seed  = flag.Int64("seed", 1, "campaign seed")
	)
	common := cliflags.Register(flag.CommandLine)
	flag.Parse()

	want := map[string]bool{}
	if *only == "" {
		for _, a := range artefactOrder {
			want[a] = true
		}
	} else {
		for _, a := range strings.Split(*only, ",") {
			a = strings.TrimSpace(strings.ToLower(a))
			want[a] = true
		}
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
	mcfg := experiments.DefaultConfig(hw.PairM)
	mcfg.Seed = *seed
	mcfg.Workers = common.Workers
	mcfg.Cache = cache
	mcfg.Ctx = ctx
	ocfg := experiments.DefaultConfig(hw.PairO)
	ocfg.Seed = *seed + 1000
	ocfg.Workers = common.Workers
	ocfg.Cache = cache
	ocfg.Ctx = ctx
	if *quick {
		for _, c := range []*experiments.Config{&mcfg, &ocfg} {
			c.MinRuns = 2
			c.VarianceTol = 0.9
			c.LoadLevels = []int{0, 5, 8}
			c.DirtyLevels = []units.Fraction{0.05, 0.55, 0.95}
		}
	}

	perf := common.NewBenchReport("wavm3bench")
	perf.Quick = *quick
	perf.Seed = *seed
	started := time.Now()
	timed := func(id string, f func() error) error {
		t0 := time.Now()
		if err := f(); err != nil {
			return err
		}
		perf.Add(id, time.Since(t0))
		return nil
	}

	// Figures come straight from family campaigns; the shared cache lets
	// the table suite reuse the m-pair family runs below.
	famFor := map[string]experiments.Family{
		"fig3": experiments.CPULoadSource,
		"fig4": experiments.CPULoadTarget,
		"fig5": experiments.MemLoadVM,
		"fig6": experiments.MemLoadSource,
		"fig7": experiments.MemLoadTarget,
	}

	if want["fig2"] {
		if err := timed("fig2", func() error {
			fig, err := experiments.Figure2(mcfg)
			if err != nil {
				return err
			}
			return emit(fig)
		}); err != nil {
			return err
		}
	}
	for _, id := range []string{"fig3", "fig4", "fig5", "fig6", "fig7"} {
		if !want[id] {
			continue
		}
		if err := timed(id, func() error {
			prs, err := experiments.RunFamily(mcfg, famFor[id])
			if err != nil {
				return err
			}
			fig, err := experiments.FamilyFigure(famFor[id], prs)
			if err != nil {
				return err
			}
			return emit(fig)
		}); err != nil {
			return err
		}
	}

	needTables := want["table3"] || want["table4"] || want["table5"] || want["table6"] ||
		want["table7"] || want["ablation"] || want["xval"]
	if needTables {
		fmt.Fprintln(os.Stderr, "wavm3bench: running model campaigns on both machine pairs...")
		var (
			mCamp, oCamp *experiments.Campaign
			suite        *experiments.Suite
		)
		steps := []struct {
			id string
			on bool
			f  func() error
		}{
			{"campaign-m", true, func() (err error) {
				mCamp, err = experiments.RunCampaign(mcfg,
					experiments.CPULoadSource, experiments.CPULoadTarget, experiments.MemLoadVM)
				return err
			}},
			{"campaign-o", want["table5"], func() (err error) {
				oCamp, err = experiments.RunCampaign(ocfg,
					experiments.CPULoadSource, experiments.CPULoadTarget, experiments.MemLoadVM)
				return err
			}},
			{"training", true, func() (err error) {
				suite, err = experiments.BuildSuite(mCamp, oCamp)
				return err
			}},
			{"table3", want["table3"], func() error {
				ct, err := suite.CoefficientTable(migration.NonLive)
				if err != nil {
					return err
				}
				return writeTable(report.CoeffTable(ct))
			}},
			{"table4", want["table4"], func() error {
				ct, err := suite.CoefficientTable(migration.Live)
				if err != nil {
					return err
				}
				return writeTable(report.CoeffTable(ct))
			}},
			{"table5", want["table5"], func() error {
				t5, err := suite.Table5()
				if err != nil {
					return err
				}
				return writeTable(report.NRMSETable(t5))
			}},
			{"table6", want["table6"], func() error {
				t6, err := suite.Table6()
				if err != nil {
					return err
				}
				return writeTable(report.BaselineTable(t6))
			}},
			{"table7", want["table7"], func() error {
				t7, err := suite.Table7()
				if err != nil {
					return err
				}
				return writeTable(report.ComparisonTable(t7))
			}},
			{"ablation", want["ablation"], func() error {
				abs, err := experiments.AblateLive(suite)
				if err != nil {
					return err
				}
				fmt.Println("Feature ablation (live migration, NRMSE on test split):")
				for _, a := range abs {
					fmt.Printf("  %-12s source %6.2f%%  target %6.2f%%\n", a.Variant,
						a.NRMSE[core.Source]*100, a.NRMSE[core.Target]*100)
				}
				fmt.Println()
				return nil
			}},
			{"xval", want["xval"], func() error {
				cv, err := suite.CrossValidateLive(4)
				if err != nil {
					return err
				}
				return writeTable(report.CrossValTable(cv))
			}},
		}
		for _, st := range steps {
			if !st.on {
				continue
			}
			if err := timed(st.id, st.f); err != nil {
				return err
			}
		}
	}

	if err := common.Finish(os.Stderr, perf, cache, started); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wavm3bench: done in %v\n", time.Since(started).Round(time.Second))
	return nil
}

func emit(fig *experiments.Figure) error {
	if err := report.WriteFigure(os.Stdout, fig, 25); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func writeTable(t *report.Table) error {
	if err := t.Write(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// fatal reports err and exits: code 3 when -timeout expired, 1 for
// every other failure.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wavm3bench:", err)
	if cliflags.IsDeadline(err) {
		os.Exit(cliflags.ExitDeadline)
	}
	os.Exit(1)
}
