// Package mem models guest memory at page granularity: the dirty-page
// bitmap Xen's shadow mode maintains during live migration, and the
// dirtying processes generated by workloads. The dirtying ratio DR(v,t) of
// the paper's Eq. 1 — dirty pages over total pages — is computed here.
//
// Position in the data flow (see ARCHITECTURE.md): mem sits at the bottom
// of the simulation stack. Workload profiles (internal/workload)
// instantiate a Dirtier — uniform or hot/cold-skewed — against a VM's
// Image; the migration engine consumes the bitmap round by round during
// pre-copy. The Dirtier step loop is the hottest code in memory-heavy
// simulations (~98% of a MEMLOAD run), which is why it draws from an
// inline splitmix64 generator instead of math/rand and keeps the
// generator state, the bitmap and the new-page count in locals for the
// whole step. Entry points: NewImage, NewUniformDirtier,
// NewHotColdDirtier.
//
// The uniform kernel. On amd64 CPUs with AVX-512 F, DQ and VL (checked
// once at init with CPUID and XGETBV, kernel_amd64.go),
// UniformDirtier.Step sends each whole block of 1,024 draws through an
// assembly kernel (kernel_amd64.s). It advances eight splitmix64 states
// at once in a ZMM register, reduces each draw to a page with two
// 32×32→64 multiplies, which give bits.Mul64's high word for any span
// below 2^32, and writes the pages in draw order to a buffer on the
// caller's stack, 64 draws ahead of the marking. It sets their bits with
// BTS, counting the bits that were already set through the carry. The
// draws, the final generator state, every bitmap word and the new-page
// count are those of the Go loop. A step's last n mod 1,024 draws, steps
// under one block (matrixmult's 60 draws and netintensive's 40), spans
// of 2^32 pages or more, other CPUs and other architectures
// (kernel_other.go) run the Go loop, which is also the tests' reference.
// It is assembly because Go exposes no vector instructions; doing all
// three steps of a draw there more than halves its cost on a 4 GiB image
// (BenchmarkDirtierStepUniform against BenchmarkDirtierStepUniformGo).
// Go never preempts assembly, so each call is one block and a long step
// stays preemptible between blocks. HotColdDirtier keeps its Go loop.
package mem
