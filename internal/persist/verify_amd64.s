// See verify_amd64.go. Unsigned max-reduce: four ymm accumulators of
// eight uint32 lanes take 128 bytes per iteration with VPMAXUD straight
// from memory (unaligned loads are fine), then fold to one lane.

#include "textflag.h"

// func maxU32AVX2(p *int32, n int) uint32
TEXT ·maxU32AVX2(SB), NOSPLIT, $0-20
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3

loop:
	VPMAXUD (SI), Y0, Y0
	VPMAXUD 32(SI), Y1, Y1
	VPMAXUD 64(SI), Y2, Y2
	VPMAXUD 96(SI), Y3, Y3
	ADDQ    $128, SI
	SUBQ    $32, CX
	JNZ     loop

	VPMAXUD      Y1, Y0, Y0
	VPMAXUD      Y3, Y2, Y2
	VPMAXUD      Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPMAXUD      X1, X0, X0
	VPSHUFD      $0x4E, X0, X1 // swap the 64-bit halves
	VPMAXUD      X1, X0, X0
	VPSHUFD      $0xB1, X0, X1 // swap adjacent lanes
	VPMAXUD      X1, X0, X0
	VMOVD        X0, AX
	MOVL         AX, ret+16(FP)
	VZEROUPPER
	RET
