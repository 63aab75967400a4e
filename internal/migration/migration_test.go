package migration

import (
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/vm"
	"repro/internal/workload"
	"repro/internal/xen"
)

// rig is a minimal two-host testbed with one migratable guest.
type rig struct {
	src, dst *xen.Host
	link     *netsim.Link
	guest    *vm.VM
}

func newRig(t *testing.T, guestType string, profile workload.Profile, seed int64) *rig {
	t.Helper()
	s, d, err := hw.Pair(hw.PairM)
	if err != nil {
		t.Fatal(err)
	}
	src, err := xen.NewHost(s)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := xen.NewHost(d)
	if err != nil {
		t.Fatal(err)
	}
	link, err := netsim.NewLink(s, d)
	if err != nil {
		t.Fatal(err)
	}
	g, err := src.Create(guestType, profile, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{src: src, dst: dst, link: link, guest: g}
}

// drive steps the rig until the migration completes, returning the final
// simulation time. It fails the test if the migration runs absurdly long.
func (r *rig) drive(t *testing.T, e *Engine) time.Duration {
	t.Helper()
	const dt = 100 * time.Millisecond
	now := time.Duration(0)
	if err := e.Start(now); err != nil {
		t.Fatal(err)
	}
	for !e.Done() {
		now += dt
		sa := r.src.Schedule()
		da := r.dst.Schedule()
		if _, err := e.Step(now, dt, sa.MigrationShare(), da.MigrationShare()); err != nil {
			t.Fatal(err)
		}
		r.src.Step(sa, dt.Seconds())
		r.dst.Step(da, dt.Seconds())
		if now > 30*time.Minute {
			t.Fatal("migration never finished")
		}
	}
	return now
}

func TestNonLiveMigration(t *testing.T) {
	r := newRig(t, vm.TypeMigratingCPU, workload.MatrixMultProfile(), 1)
	e, err := New(Config{Kind: NonLive}, r.src, r.dst, r.guest.Name, r.link)
	if err != nil {
		t.Fatal(err)
	}
	end := r.drive(t, e)

	// Exactly the memory image crosses the wire, once.
	want := r.guest.Memory.TotalPages().Bytes()
	if e.BytesSent() != want {
		t.Errorf("sent %v, want exactly %v", e.BytesSent(), want)
	}
	if e.Rounds() != 0 {
		t.Errorf("non-live has no pre-copy rounds, got %d", e.Rounds())
	}
	// Guest ended up running on the target only.
	if _, onSrc := r.src.Guest(r.guest.Name); onSrc {
		t.Error("guest still on source")
	}
	if _, onDst := r.dst.Guest(r.guest.Name); !onDst {
		t.Error("guest not on target")
	}
	if r.guest.State() != vm.StateRunning {
		t.Errorf("guest state = %v, want running", r.guest.State())
	}
	// Downtime spans the whole migration for suspend-resume.
	b := e.Boundaries()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.ME != end {
		t.Errorf("ME = %v, want %v", b.ME, end)
	}
	if e.Downtime() != b.ME-b.MS {
		t.Errorf("downtime %v != migration span %v", e.Downtime(), b.ME-b.MS)
	}
	// Hosts released their endpoint roles.
	if r.src.MigrationActive() || r.dst.MigrationActive() {
		t.Error("endpoints still marked active")
	}
	// Transfer of 4 GiB at ~760 Mbit/s ≈ 45 s.
	transfer := (b.TE - b.TS).Seconds()
	if transfer < 30 || transfer > 90 {
		t.Errorf("transfer took %.1f s, want ≈45 s", transfer)
	}
}

func TestLiveMigrationQuietGuest(t *testing.T) {
	// A guest that barely dirties converges in one round plus a small
	// stop-and-copy.
	r := newRig(t, vm.TypeMigratingCPU, workload.MatrixMultProfile(), 1)
	e, err := New(Config{Kind: Live}, r.src, r.dst, r.guest.Name, r.link)
	if err != nil {
		t.Fatal(err)
	}
	r.drive(t, e)

	mem := r.guest.Memory.TotalPages().Bytes()
	if e.BytesSent() < mem {
		t.Errorf("live migration sent %v, must send at least the image %v", e.BytesSent(), mem)
	}
	if e.BytesSent() > mem+mem/4 {
		t.Errorf("quiet guest resent too much: %v of %v", e.BytesSent(), mem)
	}
	if e.Rounds() < 1 || e.Rounds() > 4 {
		t.Errorf("quiet guest rounds = %d, want a small number ≥ 1", e.Rounds())
	}
	// Downtime far shorter than the migration: that is the point of live.
	b := e.Boundaries()
	if e.Downtime() >= (b.ME-b.MS)/2 {
		t.Errorf("downtime %v too close to total %v", e.Downtime(), b.ME-b.MS)
	}
	if r.guest.State() != vm.StateRunning {
		t.Errorf("guest state = %v", r.guest.State())
	}
}

func TestLiveMigrationHeavyDirtierDegeneratesToStopAndCopy(t *testing.T) {
	// pagedirtier at 95%: re-dirties faster than the link drains, so the
	// engine must give up iterating and suspend — the paper's live→non-live
	// degeneration.
	r := newRig(t, vm.TypeMigratingMem, workload.PagedirtierProfile(0.95), 2)
	e, err := New(Config{Kind: Live}, r.src, r.dst, r.guest.Name, r.link)
	if err != nil {
		t.Fatal(err)
	}
	r.drive(t, e)

	mem := r.guest.Memory.TotalPages().Bytes()
	if e.BytesSent() <= mem {
		t.Errorf("heavy dirtier must resend pages: sent %v of %v", e.BytesSent(), mem)
	}
	// The data safety valve bounds retransmission.
	if e.BytesSent() > units.Bytes(float64(mem)*(DefaultMaxDataFactor+1)) {
		t.Errorf("sent %v, beyond the %vx data cap", e.BytesSent(), DefaultMaxDataFactor)
	}
	// A large final suspension is unavoidable here.
	if e.Downtime() < 5*time.Second {
		t.Errorf("downtime = %v, expected a long stop-and-copy", e.Downtime())
	}
}

func TestLiveDirtierRoundsScaleWithRate(t *testing.T) {
	// A moderate dirtier should need more rounds than a quiet one but
	// still converge without a giant stop-and-copy.
	quiet := newRig(t, vm.TypeMigratingMem, workload.PagedirtierProfile(0.05), 3)
	eq, err := New(Config{Kind: Live}, quiet.src, quiet.dst, quiet.guest.Name, quiet.link)
	if err != nil {
		t.Fatal(err)
	}
	quiet.drive(t, eq)

	busy := newRig(t, vm.TypeMigratingMem, workload.PagedirtierProfile(0.55), 3)
	eb, err := New(Config{Kind: Live}, busy.src, busy.dst, busy.guest.Name, busy.link)
	if err != nil {
		t.Fatal(err)
	}
	busy.drive(t, eb)

	if eb.BytesSent() <= eq.BytesSent() {
		t.Errorf("busier dirtier sent %v, quiet sent %v; want busier > quiet",
			eb.BytesSent(), eq.BytesSent())
	}
}

func TestSaturatedSourceSlowsTransfer(t *testing.T) {
	// CPULOAD-SOURCE at 8 VMs: CPU multiplexing throttles the helper and
	// the transfer phase stretches.
	free := newRig(t, vm.TypeMigratingCPU, workload.MatrixMultProfile(), 4)
	ef, err := New(Config{Kind: NonLive}, free.src, free.dst, free.guest.Name, free.link)
	if err != nil {
		t.Fatal(err)
	}
	free.drive(t, ef)
	freeTransfer := ef.Boundaries().TE - ef.Boundaries().TS

	loaded := newRig(t, vm.TypeMigratingCPU, workload.MatrixMultProfile(), 4)
	for i := 0; i < 8; i++ {
		if _, err := loaded.src.Create(vm.TypeLoadCPU, workload.MatrixMultProfile(), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	el, err := New(Config{Kind: NonLive}, loaded.src, loaded.dst, loaded.guest.Name, loaded.link)
	if err != nil {
		t.Fatal(err)
	}
	loaded.drive(t, el)
	loadedTransfer := el.Boundaries().TE - el.Boundaries().TS

	if loadedTransfer <= freeTransfer {
		t.Errorf("saturated source transfer %v must exceed idle-source transfer %v",
			loadedTransfer, freeTransfer)
	}
}

func TestPhaseReporting(t *testing.T) {
	r := newRig(t, vm.TypeMigratingCPU, workload.MatrixMultProfile(), 5)
	e, err := New(Config{Kind: Live}, r.src, r.dst, r.guest.Name, r.link)
	if err != nil {
		t.Fatal(err)
	}
	if e.Phase() != trace.PhaseNormal {
		t.Errorf("pre-start phase = %v", e.Phase())
	}
	if err := e.Start(0); err != nil {
		t.Fatal(err)
	}
	if e.Phase() != trace.PhaseInitiation {
		t.Errorf("post-start phase = %v", e.Phase())
	}
	if err := e.Start(0); err == nil {
		t.Error("double start must fail")
	}
	seen := map[trace.Phase]bool{}
	const dt = 100 * time.Millisecond
	now := time.Duration(0)
	for !e.Done() {
		now += dt
		sa, da := r.src.Schedule(), r.dst.Schedule()
		if _, err := e.Step(now, dt, sa.MigrationShare(), da.MigrationShare()); err != nil {
			t.Fatal(err)
		}
		r.src.Step(sa, dt.Seconds())
		seen[e.Phase()] = true
		if now > 30*time.Minute {
			t.Fatal("stuck")
		}
	}
	for _, ph := range []trace.Phase{trace.PhaseInitiation, trace.PhaseTransfer, trace.PhaseActivation} {
		if !seen[ph] {
			t.Errorf("phase %v never reported", ph)
		}
	}
	// Bandwidth reads zero outside transfer.
	if e.CurrentBandwidth() != 0 {
		t.Errorf("done engine reports bandwidth %v", e.CurrentBandwidth())
	}
}

func TestNewValidation(t *testing.T) {
	r := newRig(t, vm.TypeMigratingCPU, workload.MatrixMultProfile(), 6)
	if _, err := New(Config{}, nil, r.dst, r.guest.Name, r.link); err == nil {
		t.Error("nil source must fail")
	}
	if _, err := New(Config{}, r.src, r.dst, "ghost", r.link); err == nil {
		t.Error("unknown guest must fail")
	}
	// Non-running guest.
	_ = r.guest.Suspend()
	if _, err := New(Config{}, r.src, r.dst, r.guest.Name, r.link); err == nil {
		t.Error("suspended guest must fail")
	}
	_ = r.guest.Resume()

	// Heterogeneous same-version pair: allowed (CPUID-levelled migration,
	// an extension beyond the paper's homogeneous testbed).
	o2host, _ := xen.NewHost(hw.Catalog()["o2"])
	if _, err := New(Config{}, r.src, o2host, r.guest.Name, r.link); err != nil {
		t.Errorf("heterogeneous same-Xen endpoints must be accepted: %v", err)
	}

	// A hypervisor version mismatch is a hard refusal: the toolstacks
	// would not speak the same migration protocol.
	oldSpec := hw.Catalog()["o2"]
	oldSpec.XenVersion = "3.4.0"
	oldHost, _ := xen.NewHost(oldSpec)
	if _, err := New(Config{}, r.src, oldHost, r.guest.Name, r.link); err == nil {
		t.Error("mismatched Xen versions must fail")
	}
}

func TestStepValidation(t *testing.T) {
	r := newRig(t, vm.TypeMigratingCPU, workload.MatrixMultProfile(), 7)
	e, err := New(Config{}, r.src, r.dst, r.guest.Name, r.link)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(0, 100*time.Millisecond, 1, 1); err == nil {
		t.Error("stepping before start must fail")
	}
	_ = e.Start(0)
	if _, err := e.Step(0, 0, 1, 1); err == nil {
		t.Error("zero dt must fail")
	}
	if _, err := e.Step(0, -time.Second, 1, 1); err == nil {
		t.Error("negative dt must fail")
	}
}

func TestStepAfterDoneIsNoop(t *testing.T) {
	r := newRig(t, vm.TypeMigratingCPU, workload.MatrixMultProfile(), 8)
	e, _ := New(Config{Kind: NonLive}, r.src, r.dst, r.guest.Name, r.link)
	end := r.drive(t, e)
	rep, err := e.Step(end+time.Second, 100*time.Millisecond, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesMoved != 0 || rep.PhaseChanged {
		t.Error("done engine must not move data")
	}
}

func TestKindString(t *testing.T) {
	if Live.String() != "live" || NonLive.String() != "non-live" {
		t.Error("kind names wrong")
	}
}

func TestBoundariesChronological(t *testing.T) {
	for _, kind := range []Kind{NonLive, Live} {
		r := newRig(t, vm.TypeMigratingCPU, workload.MatrixMultProfile(), 9)
		e, err := New(Config{Kind: kind}, r.src, r.dst, r.guest.Name, r.link)
		if err != nil {
			t.Fatal(err)
		}
		r.drive(t, e)
		b := e.Boundaries()
		if err := b.Validate(); err != nil {
			t.Errorf("%v boundaries invalid: %v", kind, err)
		}
		if b.TS-b.MS < DefaultInitiationTime {
			t.Errorf("%v initiation %v shorter than configured %v", kind, b.TS-b.MS, DefaultInitiationTime)
		}
		if b.ME-b.TE < DefaultActivationTime {
			t.Errorf("%v activation %v shorter than configured %v", kind, b.ME-b.TE, DefaultActivationTime)
		}
	}
}

// TestMigrationConservationProperty checks the data-conservation invariants
// across random workloads on a small custom guest: live migration always
// sends at least the image and at most the safety-valve cap; boundaries
// stay chronological; downtime never exceeds the migration span.
func TestMigrationConservationProperty(t *testing.T) {
	small := vm.InstanceType{
		ID: "tiny", VCPUs: 1, Kernel: "2.6.32",
		RAM: 64 * units.MiB, Workload: "pagedirtier", Storage: units.GiB,
	}
	for seed := int64(1); seed <= 12; seed++ {
		s, d, err := hw.Pair(hw.PairM)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := xen.NewHost(s)
		dst, _ := xen.NewHost(d)
		link, _ := netsim.NewLink(s, d)
		g, err := vm.New("tiny", small)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Attach(g); err != nil {
			t.Fatal(err)
		}
		if err := g.Start(); err != nil {
			t.Fatal(err)
		}
		g.SetDemand(1)
		// Random dirtying behaviour per seed.
		rate := float64(200 + seed*997%12000)
		ws := units.Fraction(0.1 + float64(seed%9)/10)
		g.SetDirtier(mem.NewUniformDirtier(rate, ws, seed))

		e, err := New(Config{Kind: Live}, src, dst, "tiny", link)
		if err != nil {
			t.Fatal(err)
		}
		const dt = 100 * time.Millisecond
		now := time.Duration(0)
		if err := e.Start(now); err != nil {
			t.Fatal(err)
		}
		for !e.Done() {
			now += dt
			sa, da := src.Schedule(), dst.Schedule()
			if _, err := e.Step(now, dt, sa.MigrationShare(), da.MigrationShare()); err != nil {
				t.Fatal(err)
			}
			src.Step(sa, dt.Seconds())
			dst.Step(da, dt.Seconds())
			if now > 10*time.Minute {
				t.Fatalf("seed %d: stuck", seed)
			}
		}
		img := units.PagesOf(small.RAM).Bytes()
		capBytes := units.Bytes(float64(img)*DefaultMaxDataFactor) + img/4
		if e.BytesSent() < img {
			t.Errorf("seed %d: sent %v < image %v", seed, e.BytesSent(), img)
		}
		if e.BytesSent() > capBytes {
			t.Errorf("seed %d: sent %v beyond cap %v", seed, e.BytesSent(), capBytes)
		}
		b := e.Boundaries()
		if err := b.Validate(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if e.Downtime() > b.ME-b.MS {
			t.Errorf("seed %d: downtime %v exceeds migration %v", seed, e.Downtime(), b.ME-b.MS)
		}
	}
}
