package mem

import (
	"encoding/binary"
	"hash/fnv"
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

// TestDirtierDrawSequence pins both dirtiers' draw sequence: the
// generator, its seeding, the range reduction and the carry accounting.
// Each case runs 50 steps of 100–157 ms (fractional carry) with a CleanAll
// after step 25 and checks every step's issued count and dirty-page count,
// then the FNV-64a hash of the final bitmap words, little-endian. Sizes
// include page counts that are not a multiple of 64.
func TestDirtierDrawSequence(t *testing.T) {
	cases := []struct {
		name  string
		pages units.Pages
		dirt  func() Dirtier
		n     []int64 // write events issued by each step
		dirty []int64 // DirtyPages after each step
		words uint64  // FNV-64a of the final bitmap
	}{
		{
			name: "uniform/77", pages: 77,
			dirt: func() Dirtier { return NewUniformDirtier(123.4, 1, 7) },
			n: []int64{
				12, 14, 16, 17, 20, 12, 14, 16, 18, 19,
				12, 15, 15, 18, 19, 13, 14, 16, 17, 20,
				12, 14, 16, 18, 19, 12, 15, 15, 18, 19,
				13, 14, 16, 17, 20, 12, 14, 16, 18, 19,
				12, 15, 15, 18, 19, 13, 14, 16, 17, 20,
			},
			dirty: []int64{
				12, 22, 31, 40, 48, 51, 55, 58, 63, 66,
				69, 70, 72, 72, 75, 76, 77, 77, 77, 77,
				77, 77, 77, 77, 77, 12, 24, 31, 41, 49,
				54, 57, 58, 63, 69, 72, 73, 74, 76, 76,
				77, 77, 77, 77, 77, 77, 77, 77, 77, 77,
			},
			words: 0x3575eb2d2a735b43,
		},
		{
			name: "uniform/1000", pages: 1000,
			dirt: func() Dirtier { return NewUniformDirtier(1_500, 0.95, 1) },
			n: []int64{
				150, 171, 193, 214, 236, 150, 171, 193, 214, 236,
				150, 171, 193, 215, 235, 150, 172, 193, 214, 236,
				150, 171, 193, 214, 236, 150, 171, 193, 214, 236,
				150, 172, 192, 215, 235, 150, 172, 193, 214, 236,
				150, 171, 193, 214, 236, 150, 171, 193, 215, 235,
			},
			dirty: []int64{
				140, 282, 395, 511, 620, 674, 716, 754, 781, 820,
				842, 863, 873, 888, 906, 910, 917, 924, 930, 933,
				935, 938, 940, 941, 943, 141, 282, 400, 513, 606,
				657, 700, 750, 796, 835, 846, 863, 879, 896, 909,
				913, 922, 925, 930, 936, 941, 942, 945, 946, 948,
			},
			words: 0xdb5e4d3aa36f6f49,
		},
		{
			name: "uniform/65549", pages: 65_549,
			dirt: func() Dirtier { return NewUniformDirtier(100_000, 0.5, 42) },
			n: []int64{
				10000, 11428, 12857, 14286, 15714, 10000, 11429, 12857, 14286, 15714,
				10000, 11428, 12858, 14285, 15715, 10000, 11428, 12857, 14286, 15714,
				10000, 11429, 12857, 14286, 15714, 10000, 11429, 12857, 14285, 15715,
				10000, 11428, 12857, 14286, 15714, 10000, 11429, 12857, 14286, 15714,
				10000, 11429, 12857, 14286, 15714, 10000, 11428, 12858, 14285, 15715,
			},
			dirty: []int64{
				8557, 15709, 21307, 25393, 28272, 29444, 30463, 31222, 31788, 32152,
				32320, 32453, 32548, 32632, 32682, 32706, 32725, 32745, 32759, 32767,
				32769, 32771, 32773, 32773, 32774, 8627, 15697, 21224, 25301, 28150,
				29351, 30350, 31101, 31696, 32108, 32295, 32444, 32546, 32632, 32678,
				32701, 32721, 32732, 32747, 32756, 32761, 32765, 32769, 32770, 32772,
			},
			words: 0x1eb9a281edd0c8a4,
		},
		{
			name: "hotcold/1000", pages: 1000,
			dirt: func() Dirtier { return NewHotColdDirtier(1_700, 0.1, 0.9, 1) },
			n: []int64{
				170, 194, 218, 243, 267, 170, 195, 218, 243, 267,
				170, 194, 219, 243, 267, 170, 194, 219, 243, 267,
				170, 194, 219, 243, 267, 170, 194, 219, 242, 268,
				170, 194, 218, 243, 267, 170, 195, 218, 243, 267,
				170, 195, 218, 243, 267, 170, 194, 219, 243, 267,
			},
			dirty: []int64{
				95, 122, 139, 167, 188, 207, 218, 233, 253, 269,
				286, 296, 309, 329, 342, 353, 364, 372, 390, 401,
				412, 416, 434, 445, 461, 99, 126, 151, 166, 188,
				199, 217, 229, 241, 267, 284, 304, 324, 338, 359,
				376, 389, 404, 419, 432, 441, 450, 460, 472, 485,
			},
			words: 0x6d739808d1dd42f7,
		},
		{
			name: "hotcold/4096", pages: 4096,
			dirt: func() Dirtier { return NewHotColdDirtier(2_000, 0.1, 1, 99) },
			n: []int64{
				200, 228, 257, 286, 314, 200, 229, 257, 286, 314,
				200, 229, 257, 285, 315, 200, 228, 257, 286, 314,
				200, 229, 257, 286, 314, 200, 229, 257, 286, 314,
				200, 228, 258, 285, 315, 200, 228, 257, 286, 314,
				200, 229, 257, 286, 314, 200, 229, 257, 285, 315,
			},
			dirty: []int64{
				159, 259, 324, 365, 380, 392, 400, 404, 406, 408,
				409, 409, 409, 409, 409, 409, 409, 409, 409, 409,
				409, 409, 409, 409, 409, 153, 263, 331, 370, 395,
				399, 404, 408, 408, 409, 409, 409, 409, 409, 409,
				409, 409, 409, 409, 409, 409, 409, 409, 409, 409,
			},
			words: 0xb3296fb4ba2b236f,
		},
		{
			name: "hotcold/65549", pages: 65_549,
			dirt: func() Dirtier { return NewHotColdDirtier(100_000, 0.25, 0.37, 3) },
			n: []int64{
				10000, 11428, 12857, 14286, 15714, 10000, 11429, 12857, 14286, 15714,
				10000, 11428, 12858, 14285, 15715, 10000, 11428, 12857, 14286, 15714,
				10000, 11429, 12857, 14286, 15714, 10000, 11429, 12857, 14285, 15715,
				10000, 11428, 12857, 14286, 15714, 10000, 11429, 12857, 14286, 15714,
				10000, 11429, 12857, 14286, 15714, 10000, 11428, 12858, 14285, 15715,
			},
			dirty: []int64{
				9010, 17244, 24652, 31185, 36982, 39966, 42930, 45734, 48460, 50987,
				52421, 53782, 55186, 56546, 57820, 58591, 59342, 60044, 60745, 61413,
				61834, 62234, 62587, 62964, 63310, 9006, 17271, 24669, 31145, 36850,
				39861, 42831, 45732, 48499, 51010, 52388, 53781, 55138, 56400, 57701,
				58403, 59127, 59880, 60632, 61305, 61703, 62108, 62505, 62893, 63260,
			},
			words: 0xa4099f175f745c47,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			im := newImg(t, tc.pages.Bytes())
			d := tc.dirt()
			for i := 0; i < 50; i++ {
				n := d.Step(im, 0.1*(1+float64(i%5)/7))
				if n != tc.n[i] || int64(im.DirtyPages()) != tc.dirty[i] {
					t.Fatalf("step %d: n = %d, dirty = %d; want %d, %d", i, n, im.DirtyPages(), tc.n[i], tc.dirty[i])
				}
				if i == 24 {
					im.CleanAll()
				}
			}
			h := fnv.New64a()
			var buf []byte
			for _, w := range im.dirty {
				buf = binary.LittleEndian.AppendUint64(buf, w)
			}
			h.Write(buf)
			if got := h.Sum64(); got != tc.words {
				t.Errorf("bitmap hash = %#x, want %#x", got, tc.words)
			}
		})
	}
}

// kernelRate is PagedirtierProfile's write rate for a 4 GiB image at the
// given working-set target: the whole set re-dirtied every ~4 s.
func kernelRate(target units.Fraction) float64 {
	return float64(units.PagesOf(4*units.GiB)) * float64(target) / 4
}

// benchDirtierStep times d in the kernel's regime: a 4 GiB image, one
// 100 ms step per iteration and a CleanAll every 300 steps, as a
// pre-copy round does. It reports the cost per page-write draw.
func benchDirtierStep(b *testing.B, d Dirtier) {
	im, err := NewImage(4 * units.GiB)
	if err != nil {
		b.Fatal(err)
	}
	var draws int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%300 == 299 {
			im.CleanAll()
		}
		draws += d.Step(im, 0.1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(draws), "ns/draw")
}

// BenchmarkDirtierStepUniform is the pagedirtier at a 0.95 target, the
// MEMLOAD experiments' heaviest point.
func BenchmarkDirtierStepUniform(b *testing.B) {
	benchDirtierStep(b, NewUniformDirtier(kernelRate(0.95), 0.95, 1))
}

// BenchmarkDirtierStepHotCold is the hot/cold extension workload at a
// 0.75 target: 90% of the writes on a hot tenth of the image.
func BenchmarkDirtierStepHotCold(b *testing.B) {
	benchDirtierStep(b, NewHotColdDirtier(kernelRate(0.75), 0.1, 0.9, 1))
}
