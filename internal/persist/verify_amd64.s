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

// func crc32cFold(crc uint32, p *byte, n int, k *[12]uint64) uint32
//
// CRC-32C of the n bytes at p, continuing from crc; n must be a
// multiple of 256 and at least 512. Z0–Z3 hold the 256-byte window; each
// step folds every register 2048 bits forward with two carry-less
// multiplies per 128-bit lane and XORs in the next window (VPTERNLOGD
// $0x96 is a three-way XOR). The registers then merge into Z3 at 512
// bits apart, Z3's lanes into one at 384, 256 and 128 bits, and two
// CRC32Q reduce the last 128 bits. k holds the multipliers as
// (low-qword, high-qword) pairs: d = 2048, d = 512, then one pair per
// lane of Z3 (d = 384, 256, 128, and zero for the lane already in place).
TEXT ·crc32cFold(SB), NOSPLIT, $0-36
	MOVL crc+0(FP), AX
	MOVQ p+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ k+24(FP), DX

	// The running CRC enters, inverted, XORed into the first 4 bytes.
	NOTL      AX
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVD     AX, X4
	VPXORQ    Z4, Z0, Z0
	ADDQ      $256, SI
	SUBQ      $256, CX

	VBROADCASTI32X4 (DX), Z4

loop:
	VPCLMULQDQ $0x00, Z4, Z0, Z5
	VPCLMULQDQ $0x11, Z4, Z0, Z0
	VPTERNLOGD $0x96, (SI), Z5, Z0
	VPCLMULQDQ $0x00, Z4, Z1, Z6
	VPCLMULQDQ $0x11, Z4, Z1, Z1
	VPTERNLOGD $0x96, 64(SI), Z6, Z1
	VPCLMULQDQ $0x00, Z4, Z2, Z7
	VPCLMULQDQ $0x11, Z4, Z2, Z2
	VPTERNLOGD $0x96, 128(SI), Z7, Z2
	VPCLMULQDQ $0x00, Z4, Z3, Z8
	VPCLMULQDQ $0x11, Z4, Z3, Z3
	VPTERNLOGD $0x96, 192(SI), Z8, Z3
	ADDQ       $256, SI
	SUBQ       $256, CX
	JNZ        loop

	// Merge the four registers into Z3.
	VBROADCASTI32X4 16(DX), Z4
	VPCLMULQDQ      $0x00, Z4, Z0, Z5
	VPCLMULQDQ      $0x11, Z4, Z0, Z0
	VPTERNLOGD      $0x96, Z5, Z0, Z1
	VPCLMULQDQ      $0x00, Z4, Z1, Z5
	VPCLMULQDQ      $0x11, Z4, Z1, Z1
	VPTERNLOGD      $0x96, Z5, Z1, Z2
	VPCLMULQDQ      $0x00, Z4, Z2, Z5
	VPCLMULQDQ      $0x11, Z4, Z2, Z2
	VPTERNLOGD      $0x96, Z5, Z2, Z3

	// Merge Z3's four lanes into X0: lanes 0–2 folded, lane 3 as is.
	VMOVDQU64     32(DX), Z4
	VPCLMULQDQ    $0x00, Z4, Z3, Z5
	VPCLMULQDQ    $0x11, Z4, Z3, Z6
	VPXORQ        Z6, Z5, Z5
	VEXTRACTI32X4 $1, Z5, X1
	VEXTRACTI32X4 $2, Z5, X2
	VEXTRACTI32X4 $3, Z3, X0
	VPXOR         X5, X0, X0
	VPXOR         X1, X0, X0
	VPXOR         X2, X0, X0

	// The 128 bits left are congruent to the message: CRC them from 0.
	VMOVQ   X0, AX
	VPEXTRQ $1, X0, BX
	XORL    CX, CX
	CRC32Q  AX, CX
	CRC32Q  BX, CX
	NOTL    CX
	MOVL    CX, ret+32(FP)
	VZEROUPPER
	RET
