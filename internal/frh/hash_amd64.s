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
