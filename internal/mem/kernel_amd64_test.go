package mem

import (
	"math/bits"
	"testing"
)

// TestUniformKernelWraps runs two kernel blocks from generator states
// within one block of 2^64, so that some lane's state wraps to or through
// zero, over spans from one page to 2^26 and the 0.95 working set of a
// 4 GiB image. Every buffered page must be the Go loop's draw at its
// position, and the already-set count and the bitmap must be the Go
// loop's.
func TestUniformKernelWraps(t *testing.T) {
	requireKernel(t)
	var starts []uint64
	for _, j := range []uint64{1, 2, 7, 8, 9, 512, 1023, 1024} {
		starts = append(starts, -j*weyl) // draw j's state is 2^64 ≡ 0
	}
	starts = append(starts, 0, ^uint64(0), ^uint64(0)-kernelBlock+1)
	var buf [kernelBlock]uint64
	for _, span := range []uint64{1, 2, 63, 64, 65, 1 << 20, 1 << 26, 996_147} {
		got := make([]uint64, (span+63)/64)
		want := make([]uint64, len(got))
		for _, s := range starts {
			for block := 0; block < 2; block++ {
				set := uniformBlock(&got[0], s, span, &buf)
				wantSet := uint64(0)
				for i := range buf {
					s += weyl
					p, _ := bits.Mul64(mix64(s), span)
					if buf[i]>>32 != p {
						t.Fatalf("span %d, block %d: draw %d is page %d, Go loop %d", span, block, i, buf[i]>>32, p)
					}
					wantSet += uint64(1 - mark(want, p))
				}
				if set != wantSet {
					t.Fatalf("span %d, block %d: %d pages already set, Go loop %d", span, block, set, wantSet)
				}
				sameBitmaps(t, "after a block", got, want)
			}
		}
	}
}
