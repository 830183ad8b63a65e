// See hash_amd64.go. Lane-wise unsigned 16-bit min-reduce over gathered
// table rows: each item id selects one 16-byte row (eight configuration
// hashes), folded into one of four xmm accumulators with VPMINUW
// straight from memory. Ids are bounds-checked as unsigned 32-bit
// values, so a negative id fails the check too.

#include "textflag.h"

// func minRowsAVX(tab *[8]uint16, numItems int, items *int32, n int, out *[8]uint16) bool
TEXT ·minRowsAVX(SB), NOSPLIT, $0-41
	MOVQ tab+0(FP), SI
	MOVQ numItems+8(FP), DX
	MOVQ items+16(FP), DI
	MOVQ n+24(FP), CX

	VPCMPEQW X0, X0, X0 // all lanes 0xFFFF
	VMOVDQA  X0, X1
	VMOVDQA  X0, X2
	VMOVDQA  X0, X3
	CMPQ     CX, $4
	JB       tail

quad:
	MOVL    (DI), AX // zero-extends: a negative id becomes ≥ 2^31
	MOVL    4(DI), BX
	MOVL    8(DI), R9
	MOVL    12(DI), R10
	CMPQ    AX, DX
	JAE     bad
	CMPQ    BX, DX
	JAE     bad
	CMPQ    R9, DX
	JAE     bad
	CMPQ    R10, DX
	JAE     bad
	SHLQ    $4, AX
	SHLQ    $4, BX
	SHLQ    $4, R9
	SHLQ    $4, R10
	VPMINUW (SI)(AX*1), X0, X0
	VPMINUW (SI)(BX*1), X1, X1
	VPMINUW (SI)(R9*1), X2, X2
	VPMINUW (SI)(R10*1), X3, X3
	ADDQ    $16, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JAE     quad

tail:
	TESTQ   CX, CX
	JZ      done
	MOVL    (DI), AX
	CMPQ    AX, DX
	JAE     bad
	SHLQ    $4, AX
	VPMINUW (SI)(AX*1), X0, X0
	ADDQ    $4, DI
	DECQ    CX
	JMP     tail

done:
	VPMINUW X1, X0, X0
	VPMINUW X3, X2, X2
	VPMINUW X2, X0, X0
	MOVQ    out+32(FP), R8
	VMOVDQU X0, (R8)
	MOVB    $1, ret+40(FP)
	RET

bad:
	MOVB $0, ret+40(FP)
	RET

// func hashRowsAVX(k *[6][8]uint32, n int, rows *[8]uint16)
//
// See hashRows in hash_amd64.go. Fills n ≥ 1 table rows, eight lanes
// of Jenkins' Hash32 per ymm register. k holds, lane by lane: seed+φ
// (b0), the state c after lookup3 final's first step (c1), rot(c1, 11)
// (r1), the bucket mask B−1, the pad (0xFFFF for lanes past T, else 0),
// and key+φ of the first row's item (φ = 0x9e3779b9). Each rotate is a
// shift pair and an OR.
#define ROT(k, x, t, u) \
	VPSLLD $k, x, t     \
	VPSRLD $(32-k), x, u \
	VPOR   t, u, t

TEXT ·hashRowsAVX(SB), NOSPLIT, $0-24
	MOVQ k+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ rows+16(FP), DI

	VMOVDQU 0(SI), Y10   // b0
	VMOVDQU 32(SI), Y11  // c1
	VMOVDQU 64(SI), Y12  // r1
	VMOVDQU 96(SI), Y13  // mask
	VMOVDQU 128(SI), Y14 // pad
	VMOVDQU 160(SI), Y9  // key+φ
	VPCMPEQD Y15, Y15, Y15
	VPSRLD   $31, Y15, Y15 // all lanes 1

row:
	VPXOR  Y11, Y9, Y0 // a = (key+φ) ^ c1
	VPSUBD Y12, Y0, Y0 // a -= rot(c1, 11)
	VPXOR  Y0, Y10, Y1 // b = b0 ^ a
	ROT(25, Y0, Y4, Y5)
	VPSUBD Y4, Y1, Y1  // b -= rot(a, 25)
	VPXOR  Y1, Y11, Y2 // c = c1 ^ b
	ROT(16, Y1, Y4, Y5)
	VPSUBD Y4, Y2, Y2  // c -= rot(b, 16)
	VPXOR  Y2, Y0, Y0  // a ^= c
	ROT(4, Y2, Y4, Y5)
	VPSUBD Y4, Y0, Y0  // a -= rot(c, 4)
	VPXOR  Y0, Y1, Y1  // b ^= a
	ROT(14, Y0, Y4, Y5)
	VPSUBD Y4, Y1, Y1  // b -= rot(a, 14)
	VPXOR  Y1, Y2, Y2  // c ^= b
	ROT(24, Y1, Y4, Y5)
	VPSUBD Y4, Y2, Y2  // c -= rot(b, 24)

	VPAND        Y13, Y2, Y2 // c mod B
	VPADDD       Y15, Y2, Y2 // + 1
	VPOR         Y14, Y2, Y2 // lanes past T: 0xFFFF
	VEXTRACTI128 $1, Y2, X3
	VPACKUSDW    X3, X2, X2
	VMOVDQU      X2, (DI)

	VPADDD Y15, Y9, Y9 // next item
	ADDQ   $16, DI
	DECQ   CX
	JNZ    row

	VZEROUPPER
	RET
