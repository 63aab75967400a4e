package main

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/migration"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/units"
)

// The paper-cold workload is the paper reproduction itself: every
// artefact wavm3bench prints (Figures 2–7, both model campaigns, suite
// training, Tables III–VII, the ablation and 4-fold cross-validation),
// through the same calls. The paper-scale session takes about 29 s on a
// 2-core box, longer than one run may measure, so the workload runs the
// -quick sweeps with a fixed repeat count (see paperConfigs). Almost all
// of a cold pass is kernel time, and the workload never touches
// scenarios, the cluster engine, consolidation or the persistent store:
// it is the idle case for those layers.
const (
	// paperWarmPerRound is how many memory-warm reruns follow each cold
	// pass on the same cache.
	paperWarmPerRound = 10
	// paperSetupPerRound is how many set-up repetitions open each round.
	paperSetupPerRound = 4
)

// paperConfigs are the campaign configurations of
// "wavm3bench -quick -workers 1 -seed seed" over cache, except that
// every point runs exactly four times. The -quick repeat rule (two runs,
// then more while the variance exceeds 0.9) adds runs by chance, so the
// session's size varied by ±15% from one campaign seed to the next; a
// variance tolerance no point reaches removes that. Four runs rather
// than two keep a run of every point in each of the four
// cross-validation folds, which stratify by point.
func paperConfigs(seed int64, cache *sim.Cache) (m, o experiments.Config) {
	m = experiments.DefaultConfig(hw.PairM)
	m.Seed = seed
	o = experiments.DefaultConfig(hw.PairO)
	o.Seed = seed + 1000
	for _, c := range []*experiments.Config{&m, &o} {
		c.Workers = workers
		c.Cache = cache
		c.Ctx = context.Background()
		c.MinRuns = 4
		c.VarianceTol = 100
		c.LoadLevels = []int{0, 5, 8}
		c.DirtyLevels = []units.Fraction{0.05, 0.55, 0.95}
	}
	return m, o
}

// figureFamilies are the family campaigns behind Figures 3–7.
var figureFamilies = []struct {
	id  string
	fam experiments.Family
}{
	{"fig3", experiments.CPULoadSource},
	{"fig4", experiments.CPULoadTarget},
	{"fig5", experiments.MemLoadVM},
	{"fig6", experiments.MemLoadSource},
	{"fig7", experiments.MemLoadTarget},
}

// paperSession regenerates every artefact wavm3bench prints, in its
// order, writing to w the bytes the command writes to standard output.
// Each call into the experiments layer and each rendering call is a
// span of rec.
func paperSession(m, o experiments.Config, w io.Writer, rec *recorder) error {
	render := func(label string, f func() error) error {
		return rec.span("report.render/"+label, f)
	}
	emit := func(fig *experiments.Figure) error {
		return render(fig.ID, func() error {
			if err := report.WriteFigure(w, fig, 25); err != nil {
				return err
			}
			_, err := fmt.Fprintln(w)
			return err
		})
	}
	table := func(label string, t *report.Table) error {
		return render(label, func() error {
			if err := t.Write(w); err != nil {
				return err
			}
			_, err := fmt.Fprintln(w)
			return err
		})
	}

	var fig *experiments.Figure
	if err := rec.span("experiments.campaign/fig2", func() (err error) {
		fig, err = experiments.Figure2(m)
		return err
	}); err != nil {
		return err
	}
	if err := emit(fig); err != nil {
		return err
	}
	for _, ff := range figureFamilies {
		if err := rec.span("experiments.campaign/"+ff.id, func() error {
			prs, err := experiments.RunFamily(m, ff.fam)
			if err != nil {
				return err
			}
			fig, err = experiments.FamilyFigure(ff.fam, prs)
			return err
		}); err != nil {
			return err
		}
		if err := emit(fig); err != nil {
			return err
		}
	}

	families := []experiments.Family{experiments.CPULoadSource, experiments.CPULoadTarget, experiments.MemLoadVM}
	var mCamp, oCamp *experiments.Campaign
	if err := rec.span("experiments.campaign/m", func() (err error) {
		mCamp, err = experiments.RunCampaign(m, families...)
		return err
	}); err != nil {
		return err
	}
	if err := rec.span("experiments.campaign/o", func() (err error) {
		oCamp, err = experiments.RunCampaign(o, families...)
		return err
	}); err != nil {
		return err
	}
	var suite *experiments.Suite
	if err := rec.span("experiments.fit", func() (err error) {
		suite, err = experiments.BuildSuite(mCamp, oCamp)
		return err
	}); err != nil {
		return err
	}

	tables := []struct {
		id    string
		build func() (*report.Table, error)
	}{
		{"table3", func() (*report.Table, error) {
			ct, err := suite.CoefficientTable(migration.NonLive)
			if err != nil {
				return nil, err
			}
			return report.CoeffTable(ct), nil
		}},
		{"table4", func() (*report.Table, error) {
			ct, err := suite.CoefficientTable(migration.Live)
			if err != nil {
				return nil, err
			}
			return report.CoeffTable(ct), nil
		}},
		{"table5", func() (*report.Table, error) {
			t5, err := suite.Table5()
			if err != nil {
				return nil, err
			}
			return report.NRMSETable(t5), nil
		}},
		{"table6", func() (*report.Table, error) {
			t6, err := suite.Table6()
			if err != nil {
				return nil, err
			}
			return report.BaselineTable(t6), nil
		}},
		{"table7", func() (*report.Table, error) {
			t7, err := suite.Table7()
			if err != nil {
				return nil, err
			}
			return report.ComparisonTable(t7), nil
		}},
	}
	for _, tb := range tables {
		var t *report.Table
		if err := rec.span("experiments.tables/"+tb.id, func() (err error) {
			t, err = tb.build()
			return err
		}); err != nil {
			return err
		}
		if err := table(tb.id, t); err != nil {
			return err
		}
	}

	var abs []experiments.Ablation
	if err := rec.span("experiments.tables/ablation", func() (err error) {
		abs, err = experiments.AblateLive(suite)
		return err
	}); err != nil {
		return err
	}
	if err := render("ablation", func() error {
		fmt.Fprintln(w, "Feature ablation (live migration, NRMSE on test split):")
		for _, a := range abs {
			fmt.Fprintf(w, "  %-12s source %6.2f%%  target %6.2f%%\n", a.Variant,
				a.NRMSE[core.Source]*100, a.NRMSE[core.Target]*100)
		}
		_, err := fmt.Fprintln(w)
		return err
	}); err != nil {
		return err
	}

	var cv *core.CVResult
	if err := rec.span("experiments.tables/xval", func() (err error) {
		cv, err = suite.CrossValidateLive(4)
		return err
	}); err != nil {
		return err
	}
	return table("xval", report.CrossValTable(cv))
}

// paperSetup prepares a session for seed: it builds the run cache and
// both campaign configurations, then regenerates Figures 2 and 3 once on
// that throwaway cache, so the first timed pass does not also pay for
// the process's first kernel runs (page faults, heap growth).
func paperSetup(seed int64) error {
	cache, err := cliCache("")
	if err != nil {
		return err
	}
	m, _ := paperConfigs(seed, cache)
	if _, err := experiments.Figure2(m); err != nil {
		return err
	}
	_, err = experiments.RunFamily(m, experiments.CPULoadSource)
	return err
}

// runPaper runs one round of paper-cold: set-up repetitions, one cold
// session on a fresh memory cache, then paperWarmPerRound reruns on the
// same cache, every output checked against the pinned or first digest.
func runPaper(e *env) (*outcome, error) {
	o := &outcome{}
	ref, err := e.reference()
	if err != nil {
		return nil, err
	}
	want := &digestCheck{want: ref}
	for i := 0; i < paperSetupPerRound; i++ {
		d, err := o.timed(func() error { return paperSetup(e.seed) })
		if err != nil {
			return nil, fmt.Errorf("paper-cold set-up: %w", err)
		}
		o.Setup = append(o.Setup, d.Seconds())
	}
	var cache *sim.Cache
	session := func(w io.Writer) error {
		m, oc := paperConfigs(e.seed, cache)
		return paperSession(m, oc, w, nil)
	}
	o.Cold = append(o.Cold, o.pass("cold session", want, func(w io.Writer) (err error) {
		if cache, err = cliCache(""); err != nil {
			return err
		}
		return session(w)
	}))
	for i := 0; i < paperWarmPerRound; i++ {
		before := cache.Snapshot()
		o.Warm = append(o.Warm, o.pass("warm session", want, session))
		if d := cache.Snapshot().Delta(before); d.KernelRuns != 0 {
			o.fail("warm session ran %d kernels", d.KernelRuns)
		}
	}
	return o, nil
}
