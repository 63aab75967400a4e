package experiments

import (
	"fmt"
	"time"

	"repro/internal/migration"
	"repro/internal/trace"
)

// Series is one curve of a figure: the run-averaged power trace of one
// experimental point on one host, labelled as in the paper's legends.
type Series struct {
	Label string
	Trace *trace.PowerTrace
	// Bounds are the phase boundaries of the first run, for annotating the
	// phase spans the way Figure 2 does.
	Bounds trace.Boundaries
}

// Panel is one sub-figure: a host role under one migration kind.
type Panel struct {
	// Name matches the paper's caption, e.g. "Non-live source".
	Name   string
	Series []Series
}

// Figure is a complete reproduction of one paper figure.
type Figure struct {
	ID     string // "Fig. 3"
	Title  string
	Panels []Panel
}

// avgSeries averages the runs of one point for one host.
func avgSeries(pr *PointResult, source bool) (Series, error) {
	var runs []*trace.PowerTrace
	for _, r := range pr.Runs {
		if source {
			runs = append(runs, r.Source)
		} else {
			runs = append(runs, r.Target)
		}
	}
	avg, err := trace.AverageTraces(runs, 500*time.Millisecond)
	if err != nil {
		return Series{}, err
	}
	return Series{Label: pr.Point.Label(), Trace: avg, Bounds: pr.Runs[0].Bounds}, nil
}

// panelFor collects the series of one (kind, host) combination from a
// family's point results.
func panelFor(prs []*PointResult, kind migration.Kind, source bool) (Panel, error) {
	host := "target"
	if source {
		host = "source"
	}
	p := Panel{Name: fmt.Sprintf("%s %s", kindTitle(kind), host)}
	for _, pr := range prs {
		if pr.Point.Kind != kind {
			continue
		}
		s, err := avgSeries(pr, source)
		if err != nil {
			return Panel{}, err
		}
		p.Series = append(p.Series, s)
	}
	if len(p.Series) == 0 {
		return Panel{}, fmt.Errorf("experiments: no %v series for panel %q", kind, p.Name)
	}
	return p, nil
}

func kindTitle(k migration.Kind) string {
	if k == migration.Live {
		return "Live"
	}
	return "Non-live"
}

// Figure2 reproduces the phase-anatomy figure: the power traces of one
// idle-host migration of each kind, with the phase boundaries attached.
func Figure2(cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	fig := &Figure{ID: "Fig. 2", Title: "Energy consumption phases of non-live and live migration"}
	for _, kind := range []migration.Kind{migration.NonLive, migration.Live} {
		p := Point{Family: CPULoadSource, Kind: kind, LoadVMs: 0}
		sc, err := p.Scenario(cfg.Pair, cfg.Seed)
		if err != nil {
			return nil, err
		}
		sc = shrinkTimings(sc)
		run, err := cfg.Cache.RunCtx(cfg.context(), sc)
		if err != nil {
			return nil, err
		}
		fig.Panels = append(fig.Panels, Panel{
			Name: fmt.Sprintf("%s migration", kindTitle(kind)),
			Series: []Series{
				{Label: "source", Trace: run.Source, Bounds: run.Bounds},
				{Label: "target", Trace: run.Target, Bounds: run.Bounds},
			},
		})
	}
	return fig, nil
}

// FamilyFigure reproduces Figures 3–7 from a family's point results:
// CPULOAD families yield four panels (non-live/live × source/target),
// MEMLOAD families two (live source/target).
func FamilyFigure(f Family, prs []*PointResult) (*Figure, error) {
	fig := &Figure{Title: string(f)}
	var kinds []migration.Kind
	switch f {
	case CPULoadSource:
		fig.ID = "Fig. 3"
		kinds = []migration.Kind{migration.NonLive, migration.Live}
	case CPULoadTarget:
		fig.ID = "Fig. 4"
		kinds = []migration.Kind{migration.NonLive, migration.Live}
	case MemLoadVM:
		fig.ID = "Fig. 5"
		kinds = []migration.Kind{migration.Live}
	case MemLoadSource:
		fig.ID = "Fig. 6"
		kinds = []migration.Kind{migration.Live}
	case MemLoadTarget:
		fig.ID = "Fig. 7"
		kinds = []migration.Kind{migration.Live}
	case MemLoadHotCold:
		fig.ID = "Fig. E1"
		kinds = []migration.Kind{migration.Live}
	default:
		return nil, fmt.Errorf("experiments: unknown family %q", f)
	}
	for _, kind := range kinds {
		for _, source := range []bool{true, false} {
			panel, err := panelFor(prs, kind, source)
			if err != nil {
				return nil, err
			}
			fig.Panels = append(fig.Panels, panel)
		}
	}
	return fig, nil
}
