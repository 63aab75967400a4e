package experiments

import (
	"context"
	"errors"
	"testing"

	"repro/internal/hw"
	"repro/internal/migration"
	"repro/internal/units"
)

func TestPointsEnumeration(t *testing.T) {
	cases := []struct {
		f    Family
		want int
	}{
		{CPULoadSource, 12}, // 6 levels × 2 kinds
		{CPULoadTarget, 12},
		{MemLoadVM, 6},     // 6 dirty levels, live only
		{MemLoadSource, 6}, // 6 load levels, live only
		{MemLoadTarget, 6},
	}
	for _, c := range cases {
		pts, err := Points(c.f)
		if err != nil {
			t.Fatalf("%s: %v", c.f, err)
		}
		if len(pts) != c.want {
			t.Errorf("%s has %d points, want %d", c.f, len(pts), c.want)
		}
	}
	if _, err := Points(Family("bogus")); err == nil {
		t.Error("unknown family must fail")
	}
	if len(Families()) != 5 {
		t.Error("five families expected")
	}
}

func TestMemLoadFamiliesAreLiveOnly(t *testing.T) {
	for _, f := range []Family{MemLoadVM, MemLoadSource, MemLoadTarget} {
		pts, _ := Points(f)
		for _, p := range pts {
			if p.Kind != migration.Live {
				t.Errorf("%s has a %v point; MEMLOAD is live-only", f, p.Kind)
			}
		}
	}
}

func TestMemLoadHostSweepsPinDirtyRatio(t *testing.T) {
	for _, f := range []Family{MemLoadSource, MemLoadTarget} {
		pts, _ := Points(f)
		for _, p := range pts {
			if p.DirtyRatio != 0.95 {
				t.Errorf("%s point %s has DR %v, want 0.95", f, p.Label(), p.DirtyRatio)
			}
		}
	}
}

func TestPointLabels(t *testing.T) {
	p := Point{Family: CPULoadSource, LoadVMs: 3}
	if p.Label() != "3 VM" {
		t.Errorf("label = %q", p.Label())
	}
	p = Point{Family: MemLoadVM, DirtyRatio: 0.55}
	if p.Label() != "55%" {
		t.Errorf("label = %q", p.Label())
	}
}

func TestPointScenarioMapping(t *testing.T) {
	// CPULOAD-SOURCE loads the source; CPULOAD-TARGET the target.
	p := Point{Family: CPULoadSource, Kind: migration.Live, LoadVMs: 5}
	sc, err := p.Scenario(hw.PairM, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sc.SourceLoadVMs != 5 || sc.TargetLoadVMs != 0 {
		t.Errorf("CPULOAD-SOURCE loads = %d/%d, want 5/0", sc.SourceLoadVMs, sc.TargetLoadVMs)
	}
	if sc.MigratingType != "migrating-cpu" {
		t.Errorf("migrating type = %s", sc.MigratingType)
	}
	p = Point{Family: CPULoadTarget, Kind: migration.NonLive, LoadVMs: 7}
	sc, _ = p.Scenario(hw.PairM, 1)
	if sc.SourceLoadVMs != 0 || sc.TargetLoadVMs != 7 {
		t.Errorf("CPULOAD-TARGET loads = %d/%d, want 0/7", sc.SourceLoadVMs, sc.TargetLoadVMs)
	}
	p = Point{Family: MemLoadVM, Kind: migration.Live, DirtyRatio: 0.35}
	sc, _ = p.Scenario(hw.PairM, 1)
	if sc.MigratingType != "migrating-mem" {
		t.Errorf("MEMLOAD migrating type = %s", sc.MigratingType)
	}
	if sc.MigratingProfile.WorkingSet != 0.35 {
		t.Errorf("working set = %v, want 0.35", sc.MigratingProfile.WorkingSet)
	}
	if _, err := (Point{Family: "bogus"}).Scenario(hw.PairM, 1); err == nil {
		t.Error("unknown family must fail")
	}
}

func TestConfigPointFiltering(t *testing.T) {
	cfg := Config{LoadLevels: []int{0, 8}, DirtyLevels: []units.Fraction{0.95}}
	pts, err := cfg.withDefaults().points(CPULoadSource)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 { // 2 kinds × 2 levels
		t.Errorf("filtered CPULOAD-SOURCE = %d points, want 4", len(pts))
	}
	pts, err = cfg.withDefaults().points(MemLoadVM)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Errorf("filtered MEMLOAD-VM = %d points, want 1", len(pts))
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(hw.PairM)
	if cfg.MinRuns != 10 || cfg.VarianceTol != 0.10 {
		t.Errorf("default config = %+v, want the paper's ≥10 runs / 10%% rule", cfg)
	}
}

// tinyConfig keeps integration runs fast: two repeats, the extreme load
// levels only.
func tinyConfig(seed int64) Config {
	return Config{
		Pair:        hw.PairM,
		MinRuns:     2,
		VarianceTol: 0.95,
		Seed:        seed,
		LoadLevels:  []int{0, 8},
		DirtyLevels: []units.Fraction{0.05, 0.95},
	}
}

func TestRunFamilyAndDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign integration test")
	}
	camp, err := RunCampaign(tinyConfig(3), CPULoadSource)
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Results) != 4 { // 2 kinds × 2 levels
		t.Fatalf("campaign points = %d, want 4", len(camp.Results))
	}
	// Each point ran at least MinRuns times; dataset has source+target
	// records per run.
	var runs int
	for _, pr := range camp.Results {
		if len(pr.Runs) < 2 {
			t.Errorf("point %s has %d runs", pr.Point.Label(), len(pr.Runs))
		}
		runs += len(pr.Runs)
	}
	if camp.Dataset.Len() != 2*runs {
		t.Errorf("dataset has %d records for %d runs, want %d", camp.Dataset.Len(), runs, 2*runs)
	}
	// Records carry the aggregates the baselines need.
	for _, r := range camp.Dataset.Runs {
		if r.VMMem != 4*units.GiB {
			t.Fatalf("record %s VMMem = %v", r.RunID, r.VMMem)
		}
		if r.BytesSent <= 0 {
			t.Fatalf("record %s has no transfer size", r.RunID)
		}
		if r.MeanBandwidth <= 0 {
			t.Fatalf("record %s has no mean bandwidth", r.RunID)
		}
	}
}

func TestFamilyFigureShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign integration test")
	}
	cfg := tinyConfig(5)
	prs, err := RunFamily(cfg, CPULoadSource)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := FamilyFigure(CPULoadSource, prs)
	if err != nil {
		t.Fatal(err)
	}
	if fig.ID != "Fig. 3" {
		t.Errorf("figure ID = %s", fig.ID)
	}
	if len(fig.Panels) != 4 {
		t.Fatalf("CPULOAD figure has %d panels, want 4", len(fig.Panels))
	}
	for _, p := range fig.Panels {
		if len(p.Series) != 2 { // two load levels in tinyConfig
			t.Errorf("panel %q has %d series, want 2", p.Name, len(p.Series))
		}
		for _, s := range p.Series {
			if s.Trace.Len() < 10 {
				t.Errorf("panel %q series %q suspiciously short", p.Name, s.Label)
			}
		}
	}
	if _, err := FamilyFigure(Family("bogus"), prs); err == nil {
		t.Error("unknown family must fail")
	}
}

func TestFigure2(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign integration test")
	}
	fig, err := Figure2(Config{Pair: hw.PairM, Seed: 2, MinRuns: 2, VarianceTol: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 2 {
		t.Fatalf("Fig. 2 has %d panels, want 2", len(fig.Panels))
	}
	for _, p := range fig.Panels {
		if len(p.Series) != 2 {
			t.Errorf("panel %q must show source and target", p.Name)
		}
		for _, s := range p.Series {
			if err := s.Bounds.Validate(); err != nil {
				t.Errorf("panel %q series %q bounds: %v", p.Name, s.Label, err)
			}
		}
	}
}

// TestFigure2HonoursCtx: Figure 2's runs stop at a done Config.Ctx, so
// wavm3bench -timeout bounds them like every other artefact.
func TestFigure2HonoursCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fig, err := Figure2(Config{Pair: hw.PairM, Seed: 2, MinRuns: 2, VarianceTol: 0.9, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Figure2 under a cancelled ctx = (%v, %v), want context.Canceled", fig, err)
	}
}

func TestHotColdExtensionFamily(t *testing.T) {
	pts, err := Points(MemLoadHotCold)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("extension family has %d points, want 6", len(pts))
	}
	sc, err := pts[0].Scenario(hw.PairM, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sc.MigratingProfile.Name != "hotcold" || sc.MigratingProfile.HotProb == 0 {
		t.Errorf("extension scenario profile = %+v", sc.MigratingProfile)
	}
	// Not part of the paper's canonical five.
	for _, f := range Families() {
		if f == MemLoadHotCold {
			t.Error("extension family must not be in Families()")
		}
	}
}
