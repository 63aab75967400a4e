package mem

import "repro/internal/units"

// uniformBlocks runs the whole blocks of an n-draw uniform step with
// generator state s over pages [0, span), span < 2^32, through
// uniformBlock, one block per call, and returns how many draws it made,
// the state after them and how many of their pages were new.
func uniformBlocks(d []uint64, s, span uint64, n int64) (done int64, next uint64, added units.Pages) {
	var buf [kernelBlock]uint64
	for ; n-done >= kernelBlock; done += kernelBlock {
		added += kernelBlock - units.Pages(uniformBlock(&d[0], s, span, &buf))
		s += kernelBlock * weyl % (1 << 64)
	}
	return done, s, added
}

// uniformBlock makes the kernelBlock draws that follow generator state s,
// reduces each to a page in [0, span), span < 2^32, writing the pages to
// buf, marks them in the bitmap starting at d and returns how many of the
// marked bits were already set. Implemented in kernel_amd64.s with
// AVX-512 F and DQ.
//
//go:noescape
func uniformBlock(d *uint64, s, span uint64, buf *[kernelBlock]uint64) (set uint64)

// cpuid executes CPUID for the given leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the register-state components the OS saves.
func xgetbv() (eax, edx uint32)

// kernelSupported reports whether the CPU has AVX-512 F, DQ and VL and
// the OS saves the opmask and ZMM registers across context switches.
func kernelSupported() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7 // SSE, AVX, opmask, ZMM0–15 upper halves, ZMM16–31
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	const avx512 = 1<<16 | 1<<17 | 1<<31 // F, DQ, VL
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512 == avx512
}
