package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/migration"
)

// TestEstimateByHand checks Model.Estimate against each phase's power
// times its span, worked out by hand from the ground-truth coefficients
// of synthCoeffs with no training. CPU(h,t) is the host's busy threads
// plus the VMM's 0.25 + 0.08·(busy/4+1), the migration helper's 1.35
// before activation, and the guest where it runs, clamped at the
// machine's threads.
func TestEstimateByHand(t *testing.T) {
	src := hw.MachineSpec{Name: "big", Threads: 32, MigrationRate: 1e9}
	dst := hw.MachineSpec{Name: "small", Threads: 8, MigrationRate: 1e9}
	type term struct{ watts, secs float64 }
	// The target's helper gets 8 of the 8.35 threads it asks for.
	throttled := 1e9 * 8 / 8.35
	for _, tc := range []struct {
		name     string
		plan     Plan
		duration time.Duration
		bytes    int64
		want     map[Role][3]term
	}{{
		// 1e9 bytes at 1+2·0.25 retransmission over a pinned 1 Gbit/s:
		// a 12 s transfer. Source CPU(h,t): 12 + 0.57 + 1.35 + 2 guest
		// vCPUs = 15.92 while the guest runs there, 12.57 at
		// activation. Target: 8 + 0.49 + 1.35 and 8 + 0.49 + 2 clamp at
		// its 8 threads.
		name: "live, pinned bandwidth",
		plan: Plan{Kind: migration.Live, VMMemoryBytes: 1e9, VMBusyVCPUs: 2, DirtyRatio: 0.25,
			SourceBusyThreads: 12, TargetBusyThreads: 8, BandwidthBitsPerSec: 1e9},
		duration: 19 * time.Second,
		bytes:    1.5e9,
		want: map[Role][3]term{
			Source: {
				{1.7*15.92 + 1.4*2 + 700, 3},
				{2.4*15.92 + 1.5e-7*1e9 + 40*0.25 + 0.4*2 + 420, 12},
				{2.4*12.57 + 660, 4},
			},
			Target: {
				{3.2*8 + 590, 3},
				{2.6*8 + 0.7e-7*1e9 + 520, 12},
				{1.9*8 + 17*2 + 500, 4},
			},
		},
	}, {
		// Non-live moves the image once and suspends the guest. The
		// helpers get 32 of the 33.35 source threads they ask for and 8
		// of the 8.35 target threads; the transfer runs at the smaller
		// share of the source's migration rate, 8.35 s. Source
		// CPU(h,t): 30 + 0.93 + 1.35 clamps at 32, then 30.93. Target:
		// 7 + 0.47 + 1.35 and 7 + 0.47 + 2 clamp at 8.
		name: "non-live, helper-throttled bandwidth",
		plan: Plan{Kind: migration.NonLive, VMMemoryBytes: 1e9, VMBusyVCPUs: 2, DirtyRatio: 0.5,
			SourceBusyThreads: 30, TargetBusyThreads: 7},
		duration: 15350 * time.Millisecond,
		bytes:    1e9,
		want: map[Role][3]term{
			Source: {
				{1.7*32 + 700, 3},
				{2.4*32 + 1.5e-7*throttled + 420, 8.35},
				{2.4*30.93 + 660, 4},
			},
			Target: {
				{3.2*8 + 590, 3},
				{2.6*8 + 0.7e-7*throttled + 520, 8.35},
				{1.9*8 + 17*2 + 500, 4},
			},
		},
	}} {
		m := &Model{Kind: tc.plan.Kind, Coeffs: synthCoeffs()}
		got, err := m.Estimate(tc.plan, src, dst)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := got.Duration - tc.duration; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("%s: duration %v, want %v", tc.name, got.Duration, tc.duration)
		}
		if got.TransferBytes != tc.bytes {
			t.Errorf("%s: transfer bytes %d, want %d", tc.name, got.TransferBytes, tc.bytes)
		}
		for role, terms := range tc.want {
			want := 0.0
			for _, term := range terms {
				want += term.watts * term.secs
			}
			energy := got.Source
			if role == Target {
				energy = got.Target
			}
			if math.Abs(float64(energy)-want) > 1e-9*want {
				t.Errorf("%s: %v energy %.6f J, want %.6f J", tc.name, role, float64(energy), want)
			}
		}
		if got.Total() != got.Source+got.Target {
			t.Errorf("%s: total %v is not the sum of the hosts", tc.name, got.Total())
		}
	}

	live := &Model{Kind: migration.Live, Coeffs: synthCoeffs()}
	if _, err := live.Estimate(Plan{Kind: migration.NonLive, VMMemoryBytes: 1e9}, src, dst); err == nil {
		t.Error("a live model priced a non-live plan")
	}
}

// TestEstimateAllocatesNothing: a planned migration is priced without a
// heap allocation, so a planner can price every candidate move.
func TestEstimateAllocatesNothing(t *testing.T) {
	m := &Model{Kind: migration.Live, Coeffs: synthCoeffs()}
	src := hw.MachineSpec{Name: "big", Threads: 32, MigrationRate: 1e9}
	p := Plan{Kind: migration.Live, VMMemoryBytes: 4 << 30, VMBusyVCPUs: 1, DirtyRatio: 0.55, SourceBusyThreads: 16}
	var err error
	if allocs := testing.AllocsPerRun(100, func() { _, err = m.Estimate(p, src, src) }); allocs != 0 {
		t.Errorf("Estimate allocates %v objects per call, want 0", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
}
