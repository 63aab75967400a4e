package service

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/units"
)

// ExecResult is what executing one compiled scenario yields beyond its
// rendered text: the cluster report when the scenario was a cluster
// timeline (callers use it for SLO annotations), nil otherwise.
type ExecResult struct {
	Cluster *cluster.Report
}

// Exec executes one compiled scenario under ctx and renders its
// deterministic report block to w. The bytes written are exactly what
// wavm3scen prints for the same scenario — the daemon's HTTP responses
// and the CLI's stdout stay byte-identical by construction, which is
// what the CI smoke test pins. Output is written progressively; callers
// that must not emit partial output on failure (HTTP handlers) pass a
// buffer.
func Exec(ctx context.Context, w io.Writer, c *scenario.Compiled, workers int, cache *sim.Cache) (*ExecResult, error) {
	switch {
	case c.Cluster != nil:
		rep, err := execCluster(ctx, w, c.Spec, c.Cluster, workers, cache)
		if err != nil {
			return nil, err
		}
		return &ExecResult{Cluster: rep}, nil
	case c.Plan != nil:
		return &ExecResult{}, execPlan(w, c.Spec, c.Plan, workers, cache)
	default:
		return &ExecResult{}, execRuns(ctx, w, c.Spec, c.Runs, workers, cache)
	}
}

// execRuns executes the migration blocks of one spec and prints one
// result line per block.
func execRuns(ctx context.Context, w io.Writer, s *scenario.Spec, runs []scenario.Run, workers int, cache *sim.Cache) error {
	fmt.Fprintf(w, "== %s\n", s.Name)
	scs := make([]sim.Scenario, len(runs))
	for i, r := range runs {
		scs[i] = r.Scenario
	}
	cfg := experiments.Config{
		Pair:        runs[0].Scenario.Pair,
		MinRuns:     runs[0].MinRuns,
		VarianceTol: runs[0].VarianceTol,
		Workers:     workers,
		Cache:       cache,
		Ctx:         ctx,
		Seed:        1, // unused: every compiled scenario carries its own seed
	}
	results, err := experiments.RunScenarios(cfg, scs...)
	if err != nil {
		return err
	}
	for i, res := range results {
		printRunLine(w, runs[i].Label, res.Runs)
	}
	return nil
}

// printRunLine renders the mean measurements of one block's repeats —
// the same BlockSummary the golden-output regression test pins.
func printRunLine(w io.Writer, label string, runs []*sim.RunResult) {
	b := scenario.Summarize(runs)
	fmt.Fprintf(w, "   %-32s runs=%d  src %8.3f kJ  dst %8.3f kJ  total %8.3f kJ  moved %6.2f GiB  rounds %4.1f  down %6.2fs  dur %6.1fs\n",
		label, b.Runs, b.SourceJ/1e3, b.TargetJ/1e3, b.TotalJ()/1e3, b.MovedGiB(), b.Rounds, b.DowntimeS, b.DurationS)
}

// execPlan executes a data-centre scenario's move plan. It runs
// uncancellable: cluster.Executor.ExecutePlan takes no context, and
// plans are short.
func execPlan(w io.Writer, s *scenario.Spec, pr *scenario.PlanRun, workers int, cache *sim.Cache) error {
	fmt.Fprintf(w, "== %s (plan: %s)\n", s.Name, pr.Policy)
	ex := pr.Executor
	ex.Workers = workers
	ex.Cache = cache
	rep, err := ex.ExecutePlan(pr.Policy, pr.Plan, pr.Hosts)
	if err != nil {
		return err
	}
	for _, mv := range rep.Moves {
		fmt.Fprintf(w, "   move %-14s %-12s -> %-12s  %8.3f kJ  %6.1fs  %6.2f GiB\n",
			mv.Move.VM, mv.Move.From, mv.Move.To,
			mv.MeasuredEnergy.KiloJoules(), mv.Duration.Seconds(), float64(mv.BytesSent)/float64(units.GiB))
	}
	fmt.Fprintf(w, "   total %d move(s)  %8.3f kJ  %6.1fs\n",
		len(rep.Moves), rep.Total.KiloJoules(), rep.Elapsed.Seconds())
	return nil
}

// execCluster executes an N-host cluster timeline: ticks, phase shifts,
// migrations — and, under failure injection, aborts and the SLO scores —
// are printed as deterministic sections, every energy
// contention-adjusted. The report is returned so callers can record the
// SLO outcome in benchmark artefacts. cr.Config was prepared at compile
// time, so the run builds only its per-run state.
func execCluster(ctx context.Context, w io.Writer, s *scenario.Spec, cr *scenario.ClusterRun, workers int, cache *sim.Cache) (*cluster.Report, error) {
	fmt.Fprintf(w, "== %s (cluster: %d hosts, %s)\n", s.Name, len(cr.Config.Hosts), cr.Policy)
	rep, err := experiments.RunCluster(experiments.Config{Workers: workers, Cache: cache, Ctx: ctx}, cr.Config)
	if err != nil {
		return nil, err
	}
	for _, tick := range rep.Ticks {
		fmt.Fprintf(w, "   tick  t=%9.1fs  planned %2d move(s)  %d pinned\n",
			tick.At.Seconds(), tick.Moves, tick.Pinned)
	}
	for _, sh := range rep.Shifts {
		next := sh.Phase
		if next == "" {
			next = "(hold)"
		}
		fmt.Fprintf(w, "   shift t=%9.1fs  %s enters %s\n", sh.At.Seconds(), sh.VM, next)
	}
	for _, mv := range rep.Timeline {
		fmt.Fprintf(w, "   move  %-12s %-10s -> %-10s [%-9s] t=%9.1fs ..%9.1fs  x%4.2f  %9.3f kJ  %6.2f GiB\n",
			mv.VM, mv.From, mv.To, mv.Pair,
			mv.Start.Seconds(), mv.End.Seconds(), mv.Stretch,
			mv.Energy.KiloJoules(), float64(mv.BytesSent)/float64(units.GiB))
	}
	for _, a := range rep.Aborted {
		fmt.Fprintf(w, "   abort %-12s %-10s -> %-10s [%-8s] t=%9.1fs ..%9.1fs  %9.3f kJ charged  (%s)\n",
			a.VM, a.From, a.To, a.Phase,
			a.Start.Seconds(), a.End.Seconds(), a.Energy.KiloJoules(), a.Reason)
	}
	if len(rep.FreedHosts) > 0 {
		fmt.Fprintf(w, "   freed %s  (%.0f W idle reclaimed)\n",
			strings.Join(rep.FreedHosts, ", "), float64(rep.IdleSavings))
	}
	if len(cr.Config.Failures) > 0 {
		deadline := "met"
		if !rep.EvacuationDeadlineMet {
			deadline = "MISSED"
		}
		fmt.Fprintf(w, "   slo   %d aborted  %d orphaned  %d evacuated  deadline %s  fleet %9.3f kJ\n",
			rep.AbortedFlights, rep.OrphanedVMs, rep.EvacuatedVMs, deadline, rep.FleetEnergy.KiloJoules())
	}
	fmt.Fprintf(w, "   total %d move(s)  %9.3f kJ  makespan %9.1fs\n",
		len(rep.Timeline), rep.TotalEnergy.KiloJoules(), rep.Makespan.Seconds())
	return rep, nil
}
