package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/consolidation"
	"repro/internal/hw"
	"repro/internal/migration"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/units"
)

// MoveResult is the measured outcome of executing one planned move.
type MoveResult struct {
	Move consolidation.Move
	// MeasuredEnergy is the metered source+target migration energy.
	MeasuredEnergy units.Joules
	// Duration is the measured migration span.
	Duration time.Duration
	// BytesSent is the state data actually moved.
	BytesSent units.Bytes
}

// ExecutionReport aggregates a plan's measured cost.
type ExecutionReport struct {
	Policy  string
	Moves   []MoveResult
	Total   units.Joules
	Elapsed time.Duration
}

// Executor closes the loop between planning and physics: it carries out
// a consolidation plan — a list of VM moves chosen by some policy — as
// full migration simulations on the two-host testbed and reports
// *measured* energies rather than model predictions. This is how the
// reproduction demonstrates the paper's end claim: energy-aware
// consolidation decisions, made with WAVM3 predictions, save energy
// when the migrations are carried out.
//
// The moves run one after another, each against the placement the moves
// before it left, with no timeline and no link contention, and every
// move lowers onto the one testbed pair Pair. The executor checks each
// host's threads and idle power, which the planner reads, but measures
// from host names and VM demands alone, never from host capacities or
// VM memory.
type Executor struct {
	// Pair selects the simulated machine pair (hw.PairM by default).
	Pair string
	// Kind is the migration mechanism used for every move: Live or
	// NonLive, the zero value.
	Kind migration.Kind
	// Seed pins the simulations: move i uses Seed + i·607.
	Seed int64
	// Workers bounds how many move simulations run concurrently
	// (0 = runtime.NumCPU(), 1 = sequential). Every move's scenario —
	// including the residual host loads, which depend on the moves before
	// it — is derived in plan order before any simulation starts, so the
	// report is bit-identical for every worker count.
	Workers int
	// Cache optionally memoizes move simulations (see sim.NewCache):
	// consolidation loops re-evaluate many identical moves across
	// candidate plans. nil runs uncached; cached results are
	// bit-identical.
	Cache *sim.Cache
}

// ExecutePlan simulates every move of a plan in order against the
// evolving placement and returns the measured report. hosts is the
// pre-plan state. Lower checks and lowers the plan first. The run takes
// no context and cannot be cancelled.
func (e Executor) ExecutePlan(policy string, plan *consolidation.Plan, hosts []consolidation.HostState) (*ExecutionReport, error) {
	scs, err := e.Lower(plan, hosts)
	if err != nil {
		return nil, err
	}
	ctx := context.TODO() // ExecutePlan takes no context: plan-form runs are uncancellable
	runs, err := parallel.MapCtx(ctx, e.Workers, len(scs), func(i int) (*sim.RunResult, error) {
		run, err := e.Cache.SummaryCtx(ctx, scs[i])
		if err != nil {
			return nil, fmt.Errorf("cluster: executing move %d (%s): %w", i, scs[i].Name, err)
		}
		return run, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &ExecutionReport{Policy: policy}
	for i, run := range runs {
		res := MoveResult{
			Move:           plan.Moves[i],
			MeasuredEnergy: run.SourceEnergy.Total() + run.TargetEnergy.Total(),
			Duration:       run.Bounds.ME - run.Bounds.MS,
			BytesSent:      run.BytesSent,
		}
		rep.Moves = append(rep.Moves, res)
		rep.Total += res.MeasuredEnergy
		rep.Elapsed += res.Duration
	}
	return rep, nil
}

// Lower checks a plan against the pre-plan hosts and lowers each move,
// in plan order against the placement the moves before it leave, into
// the testbed scenario ExecutePlan simulates. A plan that moves one VM
// twice chains the moves: the second starts from where the first
// landed. A host, guest or move it refuses is an *InputError located in
// hosts or plan.Moves, as is the executor's own Kind; a move is refused
// too when its lowered migration does not fit the pair.
func (e Executor) Lower(plan *consolidation.Plan, hosts []consolidation.HostState) ([]sim.Scenario, error) {
	if plan == nil {
		return nil, errors.New("cluster: nil plan")
	}
	pair := e.Pair
	if pair == "" {
		pair = hw.PairM
	}
	src, dst, err := hw.Pair(pair)
	switch {
	case e.Kind != migration.Live && e.Kind != migration.NonLive:
		return nil, refuse("Kind", -1, "", "unsupported migration kind %v (want live or non-live)", e.Kind)
	case err != nil:
		return nil, err
	case src.Switch != dst.Switch:
		return nil, fmt.Errorf("cluster: pair %q spans switches %q and %q and cannot migrate", pair, src.Switch, dst.Switch)
	case len(hosts) == 0:
		return nil, refuse("Hosts", -1, "", "no hosts")
	}
	// The placement keeps each host's residents in name order, as the
	// engine does, so a host's demand sums in the engine's order and
	// rounds to the same load-VM count.
	placed := make(map[string][]consolidation.VMState, len(hosts))
	where := make(map[string]string) // VM name → its host's name
	for i, h := range hosts {
		_, dup := placed[h.Name]
		switch {
		case h.Name == "":
			return nil, refuse("Hosts", i, "Name", "host has no name")
		case dup:
			return nil, refuse("Hosts", i, "Name", "duplicate host %q", h.Name)
		case h.Threads <= 0:
			return nil, refuse("Hosts", i, "Threads", "host %s has no CPU", h.Name)
		case !(h.IdlePower > 0):
			return nil, refuse("Hosts", i, "IdlePower", "host %s has no idle power", h.Name)
		}
		for j, v := range h.VMs {
			_, dup := where[v.Name]
			switch {
			case v.Name == "":
				return nil, refuseVM(i, j, "Name", "host %s has a VM with no name", h.Name)
			case dup:
				return nil, refuseVM(i, j, "Name", "VM %q appears twice", v.Name)
			case v.BusyVCPUs < 0:
				return nil, refuseVM(i, j, "BusyVCPUs", "VM %s has negative CPU demand", v.Name)
			case !(v.DirtyRatio >= 0 && v.DirtyRatio <= 1):
				return nil, refuseVM(i, j, "DirtyRatio", "VM %s dirty ratio %v outside [0,1]", v.Name, v.DirtyRatio)
			}
			where[v.Name] = h.Name
		}
		vms := slices.Clone(h.VMs)
		slices.SortFunc(vms, func(a, b consolidation.VMState) int { return strings.Compare(a.Name, b.Name) })
		placed[h.Name] = vms
	}
	scs := make([]sim.Scenario, len(plan.Moves))
	for i, m := range plan.Moves {
		at, known := where[m.VM]
		from, fromOK := placed[m.From]
		to, toOK := placed[m.To]
		switch {
		case !known:
			return nil, refuse("Moves", i, "VM", "unknown VM %q", m.VM)
		case !fromOK:
			return nil, refuse("Moves", i, "From", "unknown host %q", m.From)
		case !toOK:
			return nil, refuse("Moves", i, "To", "unknown host %q", m.To)
		case m.From == m.To:
			return nil, refuse("Moves", i, "To", "move does not change hosts, both are %q", m.From)
		case at != m.From:
			return nil, refuse("Moves", i, "From", "VM %q is on host %q, not %q", m.VM, at, m.From)
		}
		k := slices.IndexFunc(from, func(v consolidation.VMState) bool { return v.Name == m.VM })
		v := from[k]
		scs[i] = lowerMove(e.Kind, e.Seed, i, pair, m, busyExcluding(from, k), busyExcluding(to, -1), v.DirtyRatio)
		// Residents that lower to more load VMs than an end of the pair
		// holds, or to a count past int range, refuse the move at that end.
		if err := scs[i].Validate(); err != nil {
			var fit *sim.FitError
			side := "To"
			if errors.As(err, &fit) && !fit.Target || scs[i].SourceLoadVMs < 0 {
				side = "From"
			}
			return nil, refuse("Moves", i, side, "%w", err)
		}
		j, _ := slices.BinarySearchFunc(to, m.VM, func(g consolidation.VMState, name string) int { return strings.Compare(g.Name, name) })
		placed[m.From] = slices.Delete(from, k, k+1)
		placed[m.To] = slices.Insert(to, j, v)
		where[m.VM] = m.To
	}
	return scs, nil
}

// busyExcluding sums the CPU demand of a name-ordered resident list in
// list order, leaving out position skip — what the engine's
// busyAtExcluding sums for a host without phases.
func busyExcluding(vms []consolidation.VMState, skip int) float64 {
	s := 0.0
	for i, v := range vms {
		if i != skip {
			s += v.BusyVCPUs
		}
	}
	return s
}
