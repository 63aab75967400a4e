#include "textflag.h"

// laneWeyl holds (k+1)·weyl mod 2^64 for lanes k = 0..7: the offsets of
// a group's eight generator states from the state before the group.
DATA laneWeyl<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA laneWeyl<>+8(SB)/8, $0x3c6ef372fe94f82a
DATA laneWeyl<>+16(SB)/8, $0xdaa66d2c7ddf743f
DATA laneWeyl<>+24(SB)/8, $0x78dde6e5fd29f054
DATA laneWeyl<>+32(SB)/8, $0x1715609f7c746c69
DATA laneWeyl<>+40(SB)/8, $0xb54cda58fbbee87e
DATA laneWeyl<>+48(SB)/8, $0x538454127b096493
DATA laneWeyl<>+56(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL laneWeyl<>(SB), RODATA|NOPTR, $64

// DRAW makes the eight draws of one group: Z0 holds the eight lanes'
// generator states, Z1 the group step 8·weyl, Z2 and Z3 mix64's
// multipliers and Z4 the span. The first eight instructions leave
// z = mix64(state) in Z5. Each z is then reduced with two 32×32→64
// multiplies, which read only the low half of each lane: VPSHUFD copies
// z>>32 into the low half for (z>>32)·span, and (z mod 2^32)·span is
// shifted right 32 and added, so the high half of each result is the
// page. The eight results go to R9 in lane (draw) order.
#define DRAW \
	VPSRLQ    $30, Z0, Z5;   \
	VPXORQ    Z0, Z5, Z5;    \
	VPMULLQ   Z2, Z5, Z5;    \
	VPSRLQ    $27, Z5, Z6;   \
	VPXORQ    Z5, Z6, Z5;    \
	VPMULLQ   Z3, Z5, Z5;    \
	VPSRLQ    $31, Z5, Z6;   \
	VPXORQ    Z5, Z6, Z5;    \
	VPSHUFD   $0xf5, Z5, Z6; \
	VPMULUDQ  Z4, Z6, Z6;    \
	VPMULUDQ  Z4, Z5, Z5;    \
	VPSRLQ    $32, Z5, Z5;   \
	VPADDQ    Z6, Z5, Z5;    \
	VMOVDQU64 Z5, (R9);      \
	VPADDQ    Z1, Z0, Z0;    \
	ADDQ      $64, R9

// MARK sets the bit of the page in the high half of the buffer word at
// off(SI) in the bitmap at DI, and adds the bit's old value, which BTSQ
// leaves in the carry, to R8.
#define MARK(off) \
	MOVL off+4(SI), AX;  \
	MOVQ AX, BX;         \
	SHRQ $6, BX;         \
	MOVQ (DI)(BX*8), DX; \
	BTSQ AX, DX;         \
	MOVQ DX, (DI)(BX*8); \
	ADCQ $0, R8

// MARK8 marks the eight buffered pages at SI and moves SI past them.
#define MARK8 \
	MARK(0);  \
	MARK(8);  \
	MARK(16); \
	MARK(24); \
	MARK(32); \
	MARK(40); \
	MARK(48); \
	MARK(56); \
	ADDQ $64, SI

// func uniformBlock(d *uint64, s, span uint64, buf *[kernelBlock]uint64) (set uint64)
//
// The block is 16 chunks of 64 draws, software-pipelined: each round
// draws chunk c+1 into buf (at R9) before it marks chunk c (at SI), so
// the vector work of the next chunk runs while the marks wait on the
// bitmap's cache misses. Pages are marked in draw order.
TEXT ·uniformBlock(SB), NOSPLIT, $0-40
	MOVQ d+0(FP), DI
	MOVQ buf+24(FP), SI
	MOVQ $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z2
	MOVQ $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z3
	MOVQ $0xf1bbcdcbfa53e0a8, AX
	VPBROADCASTQ AX, Z1
	VPBROADCASTQ span+16(FP), Z4
	VPBROADCASTQ s+8(FP), Z0
	VPADDQ laneWeyl<>(SB), Z0, Z0
	MOVQ SI, R9
	XORQ R8, R8

	MOVQ $8, CX
first:
	DRAW
	DECQ CX
	JNZ  first

	MOVQ $15, R10
round:
	MOVQ $8, CX
draw:
	DRAW
	DECQ CX
	JNZ  draw
	MOVQ $8, CX
mark:
	MARK8
	DECQ CX
	JNZ  mark
	DECQ R10
	JNZ  round

	MOVQ $8, CX
last:
	MARK8
	DECQ CX
	JNZ  last

	VZEROUPPER
	MOVQ R8, set+32(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
