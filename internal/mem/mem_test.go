package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func newImg(t *testing.T, size units.Bytes) *Image {
	t.Helper()
	im, err := NewImage(size)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestNewImage(t *testing.T) {
	im := newImg(t, 4*units.GiB)
	if im.TotalPages() != 1<<20 {
		t.Errorf("4 GiB image = %d pages, want %d", im.TotalPages(), 1<<20)
	}
	if im.DirtyPages() != 0 || im.DirtyRatio() != 0 {
		t.Error("new image must be clean")
	}
	if _, err := NewImage(0); err == nil {
		t.Error("zero-size image must fail")
	}
	if _, err := NewImage(-5); err == nil {
		t.Error("negative-size image must fail")
	}
}

func TestDirtyCleanCycle(t *testing.T) {
	im := newImg(t, 64*units.KiB) // 16 pages
	if err := im.Dirty(3); err != nil {
		t.Fatal(err)
	}
	if !im.IsDirty(3) || im.DirtyPages() != 1 {
		t.Error("page 3 should be dirty")
	}
	// Idempotent re-dirty.
	if err := im.Dirty(3); err != nil {
		t.Fatal(err)
	}
	if im.DirtyPages() != 1 {
		t.Errorf("re-dirty changed count to %d", im.DirtyPages())
	}
	im.Clean(3)
	if im.IsDirty(3) || im.DirtyPages() != 0 {
		t.Error("page 3 should be clean again")
	}
	// Cleaning a clean page is a no-op.
	im.Clean(3)
	if im.DirtyPages() != 0 {
		t.Error("double clean corrupted the count")
	}
}

func TestDirtyBounds(t *testing.T) {
	im := newImg(t, 64*units.KiB)
	if err := im.Dirty(-1); err == nil {
		t.Error("negative page must fail")
	}
	if err := im.Dirty(16); err == nil {
		t.Error("out-of-range page must fail")
	}
	if im.IsDirty(-1) || im.IsDirty(99) {
		t.Error("out-of-range IsDirty must be false")
	}
	im.Clean(-1) // must not panic
	im.Clean(99)
}

func TestSnapshotAndCleanAll(t *testing.T) {
	im := newImg(t, 64*units.KiB)
	for _, p := range []units.Pages{0, 5, 15} {
		if err := im.Dirty(p); err != nil {
			t.Fatal(err)
		}
	}
	snap := im.Snapshot()
	if len(snap) != 3 || snap[0] != 0 || snap[1] != 5 || snap[2] != 15 {
		t.Errorf("Snapshot = %v, want [0 5 15]", snap)
	}
	im.CleanAll()
	if im.DirtyPages() != 0 || len(im.Snapshot()) != 0 {
		t.Error("CleanAll left dirty pages")
	}
}

func TestDirtyRatioInvariant(t *testing.T) {
	// Property: after arbitrary dirty/clean operations, 0 ≤ DR ≤ 1 and
	// DirtyPages matches the snapshot length.
	f := func(ops []uint16) bool {
		im, err := NewImage(256 * units.KiB) // 64 pages
		if err != nil {
			return false
		}
		for _, op := range ops {
			page := units.Pages(op % 64)
			if op&0x8000 != 0 {
				im.Clean(page)
			} else if err := im.Dirty(page); err != nil {
				return false
			}
			dr := im.DirtyRatio()
			if dr < 0 || dr > 1 {
				return false
			}
		}
		return int(im.DirtyPages()) == len(im.Snapshot())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniformDirtierReachesTargetRatio(t *testing.T) {
	// pagedirtier at 95% working set: given enough writes, DR converges to
	// ≈ the working-set fraction and never exceeds it.
	im := newImg(t, 16*units.MiB) // 4096 pages
	d := NewUniformDirtier(100_000, 0.95, 1)
	for i := 0; i < 100; i++ {
		d.Step(im, 0.1)
	}
	dr := float64(im.DirtyRatio())
	if dr < 0.90 || dr > 0.951 {
		t.Errorf("DR after saturation = %v, want ≈0.95", dr)
	}
}

func TestUniformDirtierRateAccounting(t *testing.T) {
	im := newImg(t, 16*units.MiB)
	d := NewUniformDirtier(1000, 0.5, 2)
	var total int64
	for i := 0; i < 10; i++ {
		total += d.Step(im, 0.1)
	}
	// 1000 pages/s for 1 s total: the carry accumulator must not lose
	// events across fractional steps.
	if total != 1000 {
		t.Errorf("issued %d write events, want 1000", total)
	}
	if d.Rate() != 1000 {
		t.Errorf("Rate = %v, want 1000", d.Rate())
	}
}

func TestUniformDirtierEdgeCases(t *testing.T) {
	im := newImg(t, 16*units.MiB)
	d := NewUniformDirtier(1000, 0.5, 3)
	if n := d.Step(im, 0); n != 0 {
		t.Error("zero dt must issue nothing")
	}
	if n := d.Step(im, -1); n != 0 {
		t.Error("negative dt must issue nothing")
	}
	zero := NewUniformDirtier(0, 0.5, 3)
	if n := zero.Step(im, 1); n != 0 {
		t.Error("zero rate must issue nothing")
	}
	tiny := NewUniformDirtier(1000, 0, 3)
	if n := tiny.Step(im, 1); n != 0 {
		t.Error("zero working set must issue nothing")
	}
}

func TestUniformDirtierDeterminism(t *testing.T) {
	run := func() []units.Pages {
		im, _ := NewImage(1 * units.MiB)
		d := NewUniformDirtier(500, 0.9, 42)
		d.Step(im, 1)
		return im.Snapshot()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic dirty count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic dirty set at %d", i)
		}
	}
}

func TestHotColdDirtierConcentration(t *testing.T) {
	im := newImg(t, 16*units.MiB) // 4096 pages
	d := NewHotColdDirtier(50_000, 0.1, 0.9, 7)
	d.Step(im, 1)
	hot := units.Pages(float64(im.TotalPages()) * 0.1)
	hotDirty := 0
	for _, p := range im.Snapshot() {
		if p < hot {
			hotDirty++
		}
	}
	// With 90% of 50k writes in a 410-page hot set, the hot set saturates.
	if units.Pages(hotDirty) < hot*95/100 {
		t.Errorf("hot set only %d/%d dirty, want nearly full", hotDirty, hot)
	}
	// Cold pages must also see some writes.
	if int64(im.DirtyPages())-int64(hotDirty) == 0 {
		t.Error("cold set received no writes")
	}
	if d.Rate() != 50_000 {
		t.Errorf("Rate = %v", d.Rate())
	}
}

func TestHotColdClampsProb(t *testing.T) {
	d := NewHotColdDirtier(10, 0.5, 7.5, 1)
	if d.HotProb != 1 {
		t.Errorf("HotProb = %v, want clamped to 1", d.HotProb)
	}
	d = NewHotColdDirtier(10, 0.5, -2, 1)
	if d.HotProb != 0 {
		t.Errorf("HotProb = %v, want clamped to 0", d.HotProb)
	}
}

func TestNoDirtier(t *testing.T) {
	im := newImg(t, 1*units.MiB)
	var d NoDirtier
	if d.Step(im, 100) != 0 || d.Rate() != 0 {
		t.Error("NoDirtier must do nothing")
	}
	if im.DirtyPages() != 0 {
		t.Error("NoDirtier dirtied pages")
	}
}
