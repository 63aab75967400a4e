package mem

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/units"
)

// setKernel turns UniformDirtier.Step's kernel on or off for the rest of
// the test.
func setKernel(tb testing.TB, on bool) {
	old := useKernel
	useKernel = on
	tb.Cleanup(func() { useKernel = old })
}

// kernelModes runs f twice: in subtest "kernel" with the uniform kernel
// on, which skips where the CPU cannot run it, and in subtest "go" with
// the Go loop alone.
func kernelModes(t *testing.T, f func(t *testing.T)) {
	t.Run("kernel", func(t *testing.T) {
		requireKernel(t)
		setKernel(t, true)
		f(t)
	})
	t.Run("go", func(t *testing.T) {
		setKernel(t, false)
		f(t)
	})
}

// requireKernel skips tb where the uniform kernel cannot run.
func requireKernel(tb testing.TB) {
	if !kernelSupported() {
		tb.Skip("the uniform kernel needs amd64 with AVX-512 F, DQ and VL and an OS that saves the ZMM registers; this machine runs only the Go loop")
	}
}

// sameBitmaps fails t at the first bitmap word where got and want differ.
func sameBitmaps(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	for w := range want {
		if got[w] != want[w] {
			t.Fatalf("%s: bitmap word %d = %#x, reference %#x", what, w, got[w], want[w])
		}
	}
}

// TestUniformCampaignScale runs the pagedirtier as the MEMLOAD campaigns
// do: a 4 GiB image at working sets 0.05, 0.55 and 0.95, 100 ms steps at
// PagedirtierProfile's rates in rounds with a CleanAll between them, then
// steps of 0–17, 1,023–1,025 and 2,048 draws, which straddle the
// kernel's block. Each step's count, dirty pages and bitmap must match
// the reference, and so must the next draw at the end.
func TestUniformCampaignScale(t *testing.T) {
	lengths := []int64{1023, 1024, 1025, 2048}
	for n := int64(0); n <= 17; n++ {
		lengths = append(lengths, n)
	}
	kernelModes(t, func(t *testing.T) {
		for _, ws := range []units.Fraction{0.05, 0.55, 0.95} {
			seed := int64(ws * 100)
			got, want := newImg(t, 4*units.GiB), newImg(t, 4*units.GiB)
			u := NewUniformDirtier(kernelRate(ws), ws, seed)
			r := &refUniform{rate: kernelRate(ws), ws: ws, rng: newRefPRNG(seed)}
			check := func(what string, gn, wn int64) {
				t.Helper()
				if gn != wn || got.DirtyPages() != want.DirtyPages() {
					t.Fatalf("ws %v %s: n = %d, dirty = %d; reference n = %d, dirty = %d",
						ws, what, gn, got.DirtyPages(), wn, want.DirtyPages())
				}
				sameBitmaps(t, what, got.dirty, want.dirty)
			}
			for round := 0; round < 3; round++ {
				for step := 0; step < 10; step++ {
					check("100 ms step", u.Step(got, 0.1), r.Step(want, 0.1))
				}
				got.CleanAll()
				want.CleanAll()
			}
			for _, n := range lengths {
				u.PagesPerSecond, r.rate = float64(n), float64(n)
				gn := u.Step(got, 1)
				check("fixed-length step", gn, r.Step(want, 1))
				if gn != n {
					t.Fatalf("ws %v: a %d-draw step issued %d", ws, n, gn)
				}
			}
			if g, w := mix64(u.rng+weyl), r.rng.next(); g != w {
				t.Fatalf("ws %v: next draw = %#x, reference %#x", ws, g, w)
			}
		}
	})
}

// halvesReduce is the kernel's reduction of a draw z to [0, span): the
// high word of z·span from two 32×32→64 multiplies. It equals
// bits.Mul64's high word for every span < 2^32: (z>>32)·span is below
// 2^64 − 2^32, and adding the carry of the low half keeps it below 2^64.
func halvesReduce(z, span uint64) uint64 {
	return ((z>>32)*span + ((z&(1<<32-1))*span)>>32) >> 32
}

// TestHalvesReduction checks halvesReduce against bits.Mul64 on edge
// values and on seeded random draws and spans of every magnitude below
// 2^32.
func TestHalvesReduction(t *testing.T) {
	check := func(z, span uint64) {
		if want, _ := bits.Mul64(z, span); halvesReduce(z, span) != want {
			t.Fatalf("z %#x, span %#x: halves give %#x, Mul64 %#x", z, span, halvesReduce(z, span), want)
		}
	}
	edges := []uint64{0, 1, 2, 1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1, 1 << 63, ^uint64(0) - 1, ^uint64(0)}
	for _, z := range edges {
		for _, span := range edges {
			if span < 1<<32 {
				check(z, span)
			}
		}
	}
	rnd := rand.New(rand.NewSource(32))
	for i := 0; i < 1_000_000; i++ {
		check(rnd.Uint64(), rnd.Uint64()>>(32+rnd.Intn(32)))
	}
}

// FuzzUniformKernel compares a uniform step with the kernel on against
// the Go loop alone over the generator state, the span (one page to
// 2^22), a bitmap prefilled from fill and the number of draws.
func FuzzUniformKernel(f *testing.F) {
	requireKernel(f)
	f.Add(uint64(0), uint32(0), []byte{}, uint16(1024))
	f.Add(^uint64(0), uint32(1<<22-1), []byte{0xff}, uint16(2049))
	f.Add(uint64(42), uint32(63), []byte{0xaa, 0x55}, uint16(1025))
	f.Add(^uint64(weyl)+1, uint32(1<<20), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(3071))
	f.Fuzz(func(t *testing.T, s uint64, span32 uint32, fill []byte, n16 uint16) {
		span := units.Pages(1 + span32%(1<<22))
		n := int64(n16 % 5000)
		image := func() *Image {
			im := newImg(t, span.Bytes())
			for w := range im.dirty {
				var word [8]byte
				for k := range word {
					if len(fill) > 0 {
						word[k] = fill[(8*w+k)%len(fill)]
					}
				}
				im.dirty[w] = binary.LittleEndian.Uint64(word[:])
			}
			if tail := span % 64; tail != 0 {
				im.dirty[len(im.dirty)-1] &= 1<<tail - 1
			}
			for _, w := range im.dirty {
				im.ndirt += units.Pages(bits.OnesCount64(w))
			}
			return im
		}
		step := func(kernel bool) (*Image, *UniformDirtier, int64) {
			useKernel = kernel
			im := image()
			u := &UniformDirtier{PagesPerSecond: float64(n), WorkingSetFrac: 1, rng: s}
			return im, u, u.Step(im, 1)
		}
		old := useKernel
		defer func() { useKernel = old }()
		got, gu, gn := step(true)
		want, wu, wn := step(false)
		if gn != wn || got.ndirt != want.ndirt || gu.rng != wu.rng {
			t.Fatalf("n = %d, dirty = %d, state %#x; Go loop n = %d, dirty = %d, state %#x",
				gn, got.ndirt, gu.rng, wn, want.ndirt, wu.rng)
		}
		sameBitmaps(t, "after the step", got.dirty, want.dirty)
	})
}

// BenchmarkDirtierStepUniformGo is BenchmarkDirtierStepUniform with the
// Go loop alone, the kernel off.
func BenchmarkDirtierStepUniformGo(b *testing.B) {
	setKernel(b, false)
	benchDirtierStep(b, NewUniformDirtier(kernelRate(0.95), 0.95, 1))
}
