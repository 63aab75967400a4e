// Package cluster generalises the two-host testbed into an N-host
// discrete-event data-centre simulator. A cluster is a population of
// hosts built from hw catalog machine models, each running VMs whose
// workload intensity may follow a phased timeline (steady, burst,
// diurnal, ramp). The engine advances a continuous timeline through
// three event kinds:
//
//   - policy ticks: a consolidation.Policy re-plans against the current
//     state, with in-flight migrations pinned and their destination
//     capacity reserved;
//   - migration start/finish: every started migration is lowered to a
//     full two-host simulation on the sim kernel (answered through the
//     run cache), which supplies its measured energy, byte volume and
//     phase spans;
//   - workload phase transitions: VM intensity changes that the next
//     planning round and the next lowered scenario observe.
//
// Concurrent migrations whose endpoints hang off the same switch share
// the migration path: the transfer phase of each flight progresses at
// 1/n of its intrinsic rate while n transfers co-occupy the link
// (equal-share processor sharing), so a drain that fires ten moves at
// once measurably contends instead of executing as ten free lunches.
// The per-flight stretch is reported, and the transfer-phase energy is
// scaled by it (transfer power is sustained for stretch times longer).
//
// Topology enters the run-cache key naturally: a lowered scenario's
// Pair field is the source/target machine-model pair ("m01/h1"), which
// is part of sim.Scenario and therefore of the cache identity — two
// host pairs of identical models with identical loads share one
// simulation, two different model pairs never do.
//
// Everything is deterministic: hosts and VMs are iterated in sorted
// order, every migration's seed derives from its global dispatch index,
// and batches fan out through internal/parallel's ordered collection —
// the report is bit-identical for every worker count and cache setting.
package cluster

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consolidation"
	"repro/internal/hw"
	"repro/internal/migration"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// VM is one guest of the cluster: its footprint plus an optional
// intensity timeline.
type VM struct {
	// Name uniquely identifies the VM across the whole cluster.
	Name string
	// MemBytes is the memory image a migration must move.
	MemBytes units.Bytes
	// BusyVCPUs is the baseline CPU demand in busy-vCPU units.
	BusyVCPUs float64
	// DirtyRatio is the baseline steady-state memory dirtying ratio.
	DirtyRatio units.Fraction
	// Phases optionally modulates the baseline over cluster time: the
	// VM's effective demand and dirtying scale with the phase factor at
	// each instant. After the timeline ends the final factor holds.
	Phases []workload.Phase
}

// validate rejects a malformed VM descriptor, which sits at
// Hosts[host].VMs[vm], with an *InputError naming its field.
func (v VM) validate(host, vm int) error {
	switch {
	case v.Name == "":
		return refuseVM(host, vm, "Name", "required")
	case v.MemBytes <= 0:
		return refuseVM(host, vm, "MemBytes", "must be positive, got %d", v.MemBytes)
	case v.BusyVCPUs < 0:
		return refuseVM(host, vm, "BusyVCPUs", "must be non-negative, got %v", v.BusyVCPUs)
	case v.DirtyRatio < 0 || v.DirtyRatio > 1:
		return refuseVM(host, vm, "DirtyRatio", "%v outside [0, 1]", v.DirtyRatio)
	}
	for i, p := range v.Phases {
		if err := p.Validate(); err != nil {
			return refuseVM(host, vm, "Phases", "phase %d: %w", i, err)
		}
	}
	return nil
}

// factor evaluates the VM's intensity at cluster time t: the phase
// timeline is walked front to back, and the final factor holds once the
// timeline is exhausted. VMs without phases run at factor 1.
func (v VM) factor(t time.Duration) float64 {
	if len(v.Phases) == 0 {
		return 1
	}
	off := t
	for _, p := range v.Phases {
		if off < p.Duration {
			return p.Factor(float64(off) / float64(p.Duration))
		}
		off -= p.Duration
	}
	return v.Phases[len(v.Phases)-1].Factor(1)
}

// busyAt returns the VM's CPU demand at cluster time t.
func (v VM) busyAt(t time.Duration) float64 {
	return v.BusyVCPUs * v.factor(t)
}

// dirtyAt returns the VM's dirty ratio at cluster time t, clamped to a
// physical fraction.
func (v VM) dirtyAt(t time.Duration) units.Fraction {
	return units.Fraction(float64(v.DirtyRatio) * v.factor(t)).Clamp()
}

// Host is one physical machine of the cluster.
type Host struct {
	// Name identifies the host.
	Name string
	// Machine names the hw catalog model this host is an instance of
	// (required). It supplies the host's capacity, the idle draw
	// reclaimed by emptying it, and the switch it hangs off: hosts on
	// one switch share the migration path and contend. Every move
	// lowers onto its two hosts' machine models.
	Machine string
	// VMs are the initially resident guests.
	VMs []VM
}

// resolved is a host with its machine model's capacity, idle draw and
// link domain filled in.
type resolved struct {
	Host
	Threads   int
	MemBytes  units.Bytes
	IdlePower units.Watts
	sw        string // the machine's switch: the link-contention domain
}

// resolve fills the host's capacity fields from its machine model and
// validates the host, which sits at Hosts[i]. A guest whose peak demand
// exceeds the machine's threads is refused: no placement can carry it,
// and its load would not fit either end of a lowered migration. The
// catalog is passed in because fleet-scale configs resolve thousands of
// hosts per run and hw.Catalog builds a fresh map per call.
func (h Host) resolve(cat map[string]hw.MachineSpec, i int) (resolved, error) {
	spec, known := cat[h.Machine]
	switch {
	case h.Name == "":
		return resolved{}, refuse("Hosts", i, "Name", "required")
	case h.Machine == "":
		return resolved{}, refuse("Hosts", i, "Machine", "needs a machine model (catalog: %s)", hw.Models())
	case !known:
		return resolved{}, refuse("Hosts", i, "Machine", "unknown machine model %q (catalog: %s)", h.Machine, hw.Models())
	}
	for j, v := range h.VMs {
		if err := v.validate(i, j); err != nil {
			return resolved{}, err
		}
		factor := 1.0 // the largest Level or Peak a phase names, or 1 without phases
		if len(v.Phases) > 0 {
			factor = 0
		}
		for _, p := range v.Phases {
			level := p.Level
			if level == 0 {
				level = 1 // the phase default; a zero Peak selects Level
			}
			factor = max(factor, level, p.Peak)
		}
		if peak := v.BusyVCPUs * factor; !(peak <= float64(spec.Threads)) {
			return resolved{}, refuseVM(i, j, "BusyVCPUs", "peak demand of %v busy vCPUs exceeds the %d threads of machine %s",
				peak, spec.Threads, h.Machine)
		}
	}
	return resolved{Host: h, Threads: spec.Threads, MemBytes: spec.RAM, IdlePower: spec.IdlePower(), sw: spec.Switch}, nil
}

// TimedMove is one explicit migration of a cluster timeline.
type TimedMove struct {
	VM, From, To string
	// At is the dispatch instant. Moves sharing an instant start
	// concurrently and contend on shared links.
	At time.Duration
}

// Config describes one cluster timeline. Prepare checks and lays out a
// config once for many runs; a prepared config's Hosts, Moves and
// Failures, and everything they hold, are read-only.
type Config struct {
	// Hosts is the cluster population.
	Hosts []Host
	// Kind is the migration mechanism for every move (Live or NonLive).
	Kind migration.Kind
	// Policy re-plans the cluster at every tick; nil disables planning
	// (the timeline then runs the explicit Moves). Run plans against an
	// incrementally maintained consolidation.View, so the policy must be
	// a consolidation.ViewPolicy.
	Policy consolidation.Policy
	// PolicyConfig bounds each planning round. The engine adds the
	// in-flight pins itself.
	PolicyConfig consolidation.Config
	// Tick is the re-planning period (required with a Policy).
	Tick time.Duration
	// Horizon bounds the observed timeline: ticks fire at 0, Tick,
	// 2·Tick, … strictly below it, and phase transitions are recorded up
	// to it. Migrations started before the horizon always run to
	// completion, even past it.
	Horizon time.Duration
	// Moves is the explicit migration timeline (mutually exclusive with
	// Policy).
	Moves []TimedMove
	// Failures injects timed failure events — host crashes, flight
	// aborts, switch outage windows — into the timeline (see
	// FailureEvent). Events apply after same-instant flight completions
	// and before same-instant dispatches, and are not bounded by
	// Horizon.
	Failures []FailureEvent
	// EvacuationDeadline scores host crashes: every orphaned VM must
	// land on a live host within this span of its crash for the
	// report's EvacuationDeadlineMet to hold. Zero means "eventually".
	EvacuationDeadline time.Duration
	// Seed derives every migration's simulation seed (dispatch index i
	// uses Seed + i·607, the plan executor's stride).
	Seed int64
	// Workers bounds how many migration simulations run concurrently
	// (0 = NumCPU, 1 = sequential). Results are bit-identical for every
	// value.
	Workers int
	// Cache optionally memoizes migration simulations (see sim.NewCache).
	Cache *sim.Cache
	// Ctx optionally bounds the timeline's execution: the event loop
	// checks it between events and the kernel fan-out at every dispatch,
	// so a cancelled or deadline-expired context abandons the run with
	// the context's error instead of completing it. nil means
	// context.Background(). Cancellation never changes results — a
	// timeline that completes under any context is bit-identical.
	Ctx context.Context

	// simOverride replaces the cache/kernel execution of lowered
	// migration scenarios. Test-only: the dispatch-transaction tests
	// inject kernels that fail mid-batch.
	simOverride func(sim.Scenario) (*sim.RunResult, error)

	// layout is what Prepare checked and laid out for this config. It is
	// shared by every copy of the config and every run of it.
	layout *layout
}

// InputError is the refusal of one of a config's own fields, located at
// it: Field names the Config field (or the plan executor's input: Hosts,
// Moves, Kind), Index the element's position in that list and VM
// the guest's position in Hosts[Index].VMs, each -1 when none is at
// fault, and Attr the element's field ("BusyVCPUs", "From", "Switch"),
// empty when the element as a whole is at fault.
//
// Prepare and Executor.Lower refuse with one, and so does a run, for one
// of Config.Moves it cannot carry out for what only the run knows (the
// VM still in flight or kept elsewhere by an abort, a destination or
// switch that is down, load VMs that do not fit an end of the lowered
// migration). A planned move refused at dispatch is the policy's fault
// and fails with a plain error.
type InputError struct {
	Field     string
	Index, VM int
	Attr      string
	Err       error
}

// Error renders "cluster: <location>: <refusal>", the location in Go
// syntax, such as "Hosts[1].VMs[0].BusyVCPUs".
func (e *InputError) Error() string {
	loc := e.Field
	if e.Index >= 0 {
		loc += fmt.Sprintf("[%d]", e.Index)
	}
	if e.VM >= 0 {
		loc += fmt.Sprintf(".VMs[%d]", e.VM)
	}
	if e.Attr != "" {
		loc += "." + e.Attr
	}
	return "cluster: " + loc + ": " + e.Err.Error()
}

// Unwrap returns the refusal.
func (e *InputError) Unwrap() error { return e.Err }

// refuse builds a refusal of attribute attr of element index of field,
// or of field as a whole when index is -1.
func refuse(field string, index int, attr, format string, args ...any) *InputError {
	return &InputError{Field: field, Index: index, VM: -1, Attr: attr, Err: fmt.Errorf(format, args...)}
}

// refuseVM builds a refusal of attribute attr of Hosts[host].VMs[vm].
func refuseVM(host, vm int, attr, format string, args ...any) *InputError {
	return &InputError{Field: "Hosts", Index: host, VM: vm, Attr: attr, Err: fmt.Errorf(format, args...)}
}

// Prepare validates cfg, refusing it with an *InputError, and returns it
// with its layout attached: the resolved hosts in name order plus host
// and VM name indices. Run then builds only the mutable per-run state,
// and of the hosts only those the run touches, so a config run many
// times — a compiled scenario — is validated, sorted and indexed once.
//
// A prepared config's Hosts, Moves and Failures are read-only. Copies
// keep the layout, and may set Workers, Cache, Ctx, PolicyConfig, Seed
// or another policy. Run validates and lays out afresh a config whose
// Hosts, Moves or Failures is another slice, whose other checked fields
// have changed, or whose policy was set or unset. Concurrent runs
// of one prepared config share the layout; none writes to what it
// holds, and a run that finishes hands its own policy view back to it
// for the next run to reuse.
func Prepare(cfg Config) (Config, error) {
	l, err := cfg.validate()
	if err != nil {
		return Config{}, err
	}
	l.order()
	cfg.layout = l
	return cfg, nil
}

// layout is a validated config's hosts in the engine's iteration order,
// plus the name indices a run resolves moves and failures through, and
// what the first runs derive from them once for all: the t=0 policy
// view and the run facts. No run writes to them; a finished run hands
// its own view back to the spare slot.
type layout struct {
	hosts   []*resolved      // name order, each host's VMs in name order
	hostIdx map[string]int32 // host name → position in hosts
	vmIdx   map[string]int32 // VM name → position among all VMs, in hosts order
	nvms    int

	// view is the t=0 policy view every run that plans starts from; the
	// first such run builds it (initialView). spare is a finished run's
	// view, which the next run rewinds to view instead of copying it
	// (takeView, keepView).
	viewOnce sync.Once
	view     *consolidation.View
	spare    atomic.Pointer[consolidation.View]
	// facts are what every run derives alike from the hosts, such as
	// the t=0-empty hosts and the idle floor; the first run builds them
	// (runFacts).
	factsOnce sync.Once
	facts     *runFacts

	// What validate read, so fits can tell whether a config is still the
	// one checked. The slices are the config's own, held rather than
	// their addresses so equal configs stay reflect.DeepEqual.
	cfgHosts []Host
	moves    []TimedMove
	failures []FailureEvent
	scalars  checkedScalars
}

// checkedScalars are the comparable Config fields validate reads.
// policy records whether a policy is set, never which, so a copy of a
// prepared config may plan with a wrapped or different policy.
type checkedScalars struct {
	kind                    migration.Kind
	policy                  bool
	tick, horizon, deadline time.Duration
}

// scalarsOf returns c's checked scalar fields.
func scalarsOf(c Config) checkedScalars {
	return checkedScalars{c.Kind, c.Policy != nil, c.Tick, c.Horizon, c.EvacuationDeadline}
}

// fits reports whether l was checked for c: every field validate reads
// is unchanged, and Hosts, Moves and Failures are the same slices (same
// first element, same length).
func (l *layout) fits(c Config) bool {
	return l != nil && l.scalars == scalarsOf(c) &&
		sameSlice(l.cfgHosts, c.Hosts) && sameSlice(l.moves, c.Moves) && sameSlice(l.failures, c.Failures)
}

// sameSlice reports whether a and b view the same elements.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// validate rejects unusable configurations with an *InputError and
// returns the layout its checks built, before order: the hosts resolved
// in Config.Hosts order, and the name indices as the checks used them
// (host name → position in Hosts, VM name → its initial host's position
// in Hosts). Prepare orders it.
func (c Config) validate() (*layout, error) {
	if len(c.Hosts) == 0 {
		return nil, refuse("Hosts", -1, "", "no hosts")
	}
	if c.Kind != migration.Live && c.Kind != migration.NonLive {
		return nil, refuse("Kind", -1, "", "unsupported migration kind %v (want live or non-live)", c.Kind)
	}
	cat := hw.Catalog()
	hosts := make([]resolved, len(c.Hosts))
	index := make(map[string]int32, len(c.Hosts)) // host name → position in Hosts
	switches := make([]string, len(c.Hosts))      // link-contention domain
	nvms := 0
	for _, h := range c.Hosts {
		nvms += len(h.VMs)
	}
	vms := make(map[string]int32, nvms) // VM name → its initial host's position in Hosts
	l := &layout{
		hosts: make([]*resolved, len(c.Hosts)), hostIdx: index, vmIdx: vms, nvms: nvms,
		cfgHosts: c.Hosts, moves: c.Moves, failures: c.Failures, scalars: scalarsOf(c),
	}
	for i, h := range c.Hosts {
		r, err := h.resolve(cat, i)
		if err != nil {
			return nil, err
		}
		if _, dup := index[r.Name]; dup {
			return nil, refuse("Hosts", i, "Name", "duplicate host %q", r.Name)
		}
		index[r.Name] = int32(i)
		hosts[i] = r
		l.hosts[i] = &hosts[i]
		switches[i] = r.sw
		for j, v := range h.VMs {
			if _, dup := vms[v.Name]; dup {
				return nil, refuseVM(i, j, "Name", "VM %q already exists in the cluster", v.Name)
			}
			vms[v.Name] = int32(i)
			// The policy view names in-flight destination reservations
			// "<vm>+incoming" in the same namespace as real VMs; a real VM
			// wearing that suffix would silently alias a reservation (and
			// its pin).
			if c.Policy != nil && strings.HasSuffix(v.Name, "+incoming") {
				return nil, refuseVM(i, j, "Name", "%q ends in \"+incoming\", which is reserved for in-flight reservations in policy timelines", v.Name)
			}
		}
	}
	if c.Policy != nil {
		switch {
		case len(c.Moves) > 0:
			return nil, refuse("Moves", -1, "", "a policy and explicit moves are mutually exclusive")
		case c.Tick <= 0:
			return nil, refuse("Tick", -1, "", "a policy needs a positive tick period, got %v", c.Tick)
		case c.Horizon <= 0:
			return nil, refuse("Horizon", -1, "", "a policy needs a positive horizon, got %v", c.Horizon)
		case len(c.Hosts) < 2:
			return nil, refuse("Hosts", -1, "", "planning needs at least two hosts, got %d", len(c.Hosts))
		}
		// The built-in policies are topology-blind: on a mixed-switch
		// population they would eventually plan a cross-switch move and
		// abort the whole timeline mid-run. Refuse up front; cross-switch
		// routing is a planned extension (see ROADMAP).
		for i, sw := range switches {
			if sw != switches[0] {
				return nil, refuse("Hosts", i, "Machine", "policy-driven timelines need all hosts on one switch; %s is on %q, %s on %q",
					c.Hosts[0].Name, switches[0], c.Hosts[i].Name, sw)
			}
		}
	}
	dispatched := map[string]map[time.Duration]bool{} // VM -> dispatch instants
	for i, m := range c.Moves {
		from, fromOK := index[m.From]
		to, toOK := index[m.To]
		_, vmOK := vms[m.VM]
		switch {
		case m.VM == "":
			return nil, refuse("Moves", i, "VM", "required")
		case dispatched[m.VM][m.At]:
			return nil, refuse("Moves", i, "At", "dispatches VM %q twice at %v", m.VM, m.At)
		case !vmOK:
			return nil, refuse("Moves", i, "VM", "unknown VM %q", m.VM)
		case !fromOK:
			return nil, refuse("Moves", i, "From", "unknown host %q", m.From)
		case !toOK:
			return nil, refuse("Moves", i, "To", "unknown host %q", m.To)
		case m.From == m.To:
			return nil, refuse("Moves", i, "To", "move does not change hosts, both are %q", m.From)
		case m.At < 0:
			return nil, refuse("Moves", i, "At", "starts before the timeline (%v)", m.At)
		case switches[from] != switches[to]:
			return nil, refuse("Moves", i, "To", "no migration path from %s (%s) to %s (%s): different switches",
				m.From, switches[from], m.To, switches[to])
		}
		if dispatched[m.VM] == nil {
			dispatched[m.VM] = map[time.Duration]bool{}
		}
		dispatched[m.VM][m.At] = true
	}
	if err := c.validateFailures(index, vms, switches); err != nil {
		return nil, err
	}
	if err := c.checkSources(vms); err != nil {
		return nil, err
	}
	return l, nil
}

// checkSources replays the explicit moves of each VM in dispatch order
// and refuses, at its From, a move that cannot start where it says: a
// VM's first move must start on the VM's initial host (vms maps it to
// its position in Hosts), and a later one where the previous move ended
// or, if a failure event could abort the previous move, where that move
// began. What the replay cannot tell, whether such a failure does abort
// the move, the run checks at dispatch (checkMove).
func (c Config) checkSources(vms map[string]int32) error {
	// place is where a VM is: on at, or on alt if a failure aborts the
	// move that took it to at (Moves[last], -1 for none).
	type place struct {
		at, alt string
		last    int
	}
	where := make(map[string]place, len(c.Moves))
	for _, i := range inOrder(len(c.Moves), func(i int) time.Duration { return c.Moves[i].At }) {
		m := c.Moves[i]
		p, moved := where[m.VM]
		if !moved {
			p = place{at: c.Hosts[vms[m.VM]].Name, last: -1}
		}
		if m.From != p.at && (p.alt == "" || m.From != p.alt) {
			switch {
			case p.last < 0:
				return refuse("Moves", i, "From", "VM %q starts on host %q, not %q", m.VM, p.at, m.From)
			case p.alt == "":
				return refuse("Moves", i, "From", "VM %q is on host %q after moves[%d], not %q", m.VM, p.at, p.last, m.From)
			}
			return refuse("Moves", i, "From", "VM %q is on host %q after moves[%d], or on %q if a failure aborts that move, not %q",
				m.VM, p.at, p.last, p.alt, m.From)
		}
		next := place{at: m.To, last: i}
		if c.couldAbort(m) {
			next.alt = m.From
		}
		where[m.VM] = next
	}
	return nil
}

// couldAbort reports whether a failure event after m's dispatch could
// abort it: a flight-abort naming its VM or a crash of either end.
// Events at the dispatch instant apply before it.
func (c Config) couldAbort(m TimedMove) bool {
	for _, f := range c.Failures {
		if f.At <= m.At {
			continue
		}
		switch f.Kind {
		case FailFlightAbort:
			if f.VM == m.VM {
				return true
			}
		case FailHostCrash:
			if f.Host == m.From || f.Host == m.To {
				return true
			}
		}
	}
	return false
}

// inOrder returns the positions 0 to n-1 in the engine's order of
// timed inputs, moves and failure events alike: by at(i), same-instant
// ones in the order declared.
func inOrder(n int, at func(i int) time.Duration) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return at(order[a]) < at(order[b]) })
	return order
}

// order sorts the layout's hosts, and each host's VMs, by name — the
// engine's iteration order — and points the name indices at the sorted
// positions. A list already in order is kept as it is; a VM list that
// needs sorting is copied first, because it still belongs to the
// caller's Config. Fleet templates stamp names with a fixed-width
// "-%04d" suffix, so a group of more than 10,000 replicas is out of
// order ("spare-10000" sorts before "spare-9999") and pays a full sort
// here, once per prepared config.
func (l *layout) order() {
	vmByName := func(a, b VM) int { return strings.Compare(a.Name, b.Name) }
	hostByName := func(a, b *resolved) int { return strings.Compare(a.Name, b.Name) }
	for _, r := range l.hosts {
		if !slices.IsSortedFunc(r.VMs, vmByName) {
			r.VMs = slices.Clone(r.VMs)
			slices.SortFunc(r.VMs, vmByName)
		}
	}
	if !slices.IsSortedFunc(l.hosts, hostByName) {
		slices.SortFunc(l.hosts, hostByName)
	}
	k := int32(0)
	for i, r := range l.hosts {
		l.hostIdx[r.Name] = int32(i)
		for _, v := range r.VMs {
			l.vmIdx[v.Name] = k
			k++
		}
	}
}
