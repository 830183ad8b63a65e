// AVX2 AND-popcount run kernels. See kernel_amd64.go for the Go
// prototypes and kernel.go for the layer's contract: exact integer
// intersection counts of one signature against a contiguous run of
// slab rows; the float64 Jaccard division stays in Go.
//
// Popcount strategy (Mula's SSSE3/AVX2 nibble method): split each byte
// of a AND b into nibbles, look both up in a VPSHUFB table of nibble
// popcounts, VPADDB the per-byte counts, then VPSADBW against zero to
// widen byte sums into qword lane sums. One 256-bit op covers four
// signature words — versus four scalar POPCNTs — and the byte
// accumulator never overflows: the 16-word kernel folds at most four
// vectors (max 32 per byte lane) before widening, the generic kernel
// widens every vector.

#include "textflag.h"

// Nibble popcount table, both 128-bit lanes (VPSHUFB looks up per lane).
DATA nibblePop<>+0(SB)/8, $0x0302020102010100
DATA nibblePop<>+8(SB)/8, $0x0403030203020201
DATA nibblePop<>+16(SB)/8, $0x0302020102010100
DATA nibblePop<>+24(SB)/8, $0x0403030203020201
GLOBL nibblePop<>(SB), RODATA|NOPTR, $32

DATA nibbleMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibbleMask<>(SB), RODATA|NOPTR, $32

// func countRun16AVX2(counts *int32, a *uint64, slab *uint64, n int)
//
// The paper-default 1024-bit specialization: the query signature rides
// in Y0–Y3 for the whole run, each row is four VPANDs against the
// marching slab pointer, and the four byte-count vectors fold into one
// VPSADBW + horizontal add.
TEXT ·countRun16AVX2(SB), NOSPLIT, $0-32
	MOVQ counts+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ slab+16(FP), DX
	MOVQ n+24(FP), CX

	VMOVDQU nibblePop<>(SB), Y7
	VMOVDQU nibbleMask<>(SB), Y6
	VPXOR   Y8, Y8, Y8

	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3

	// Two rows per iteration: rows are independent, so running two
	// byte-accumulator chains (Y9, Y11) side by side hides the VPADDB
	// chain latency, and their qword sums reduce together — one
	// unpack/add tree, one 8-byte store of both int32 counts.
	MOVQ CX, R14
	SHRQ $1, R14
	JZ   single16

pair16:
	VPAND   (DX), Y0, Y4
	VPAND   128(DX), Y0, Y10
	VPSRLW  $4, Y4, Y5
	VPSRLW  $4, Y10, Y12
	VPAND   Y6, Y4, Y4
	VPAND   Y6, Y10, Y10
	VPAND   Y6, Y5, Y5
	VPAND   Y6, Y12, Y12
	VPSHUFB Y4, Y7, Y4
	VPSHUFB Y10, Y7, Y10
	VPSHUFB Y5, Y7, Y5
	VPSHUFB Y12, Y7, Y12
	VPADDB  Y5, Y4, Y9
	VPADDB  Y12, Y10, Y11

	VPAND   32(DX), Y1, Y4
	VPAND   160(DX), Y1, Y10
	VPSRLW  $4, Y4, Y5
	VPSRLW  $4, Y10, Y12
	VPAND   Y6, Y4, Y4
	VPAND   Y6, Y10, Y10
	VPAND   Y6, Y5, Y5
	VPAND   Y6, Y12, Y12
	VPSHUFB Y4, Y7, Y4
	VPSHUFB Y10, Y7, Y10
	VPSHUFB Y5, Y7, Y5
	VPSHUFB Y12, Y7, Y12
	VPADDB  Y4, Y9, Y9
	VPADDB  Y10, Y11, Y11
	VPADDB  Y5, Y9, Y9
	VPADDB  Y12, Y11, Y11

	VPAND   64(DX), Y2, Y4
	VPAND   192(DX), Y2, Y10
	VPSRLW  $4, Y4, Y5
	VPSRLW  $4, Y10, Y12
	VPAND   Y6, Y4, Y4
	VPAND   Y6, Y10, Y10
	VPAND   Y6, Y5, Y5
	VPAND   Y6, Y12, Y12
	VPSHUFB Y4, Y7, Y4
	VPSHUFB Y10, Y7, Y10
	VPSHUFB Y5, Y7, Y5
	VPSHUFB Y12, Y7, Y12
	VPADDB  Y4, Y9, Y9
	VPADDB  Y10, Y11, Y11
	VPADDB  Y5, Y9, Y9
	VPADDB  Y12, Y11, Y11

	VPAND   96(DX), Y3, Y4
	VPAND   224(DX), Y3, Y10
	VPSRLW  $4, Y4, Y5
	VPSRLW  $4, Y10, Y12
	VPAND   Y6, Y4, Y4
	VPAND   Y6, Y10, Y10
	VPAND   Y6, Y5, Y5
	VPAND   Y6, Y12, Y12
	VPSHUFB Y4, Y7, Y4
	VPSHUFB Y10, Y7, Y10
	VPSHUFB Y5, Y7, Y5
	VPSHUFB Y12, Y7, Y12
	VPADDB  Y4, Y9, Y9
	VPADDB  Y10, Y11, Y11
	VPADDB  Y5, Y9, Y9
	VPADDB  Y12, Y11, Y11

	// Widen both rows' byte counts to qwords, then reduce the pair
	// together: interleave row A's and row B's qword lanes, add, fold
	// the high lane, and pack the two sums to adjacent int32s.
	VPSADBW      Y8, Y9, Y9   // Y9 = [a0 a1 | a2 a3]
	VPSADBW      Y8, Y11, Y11 // Y11 = [b0 b1 | b2 b3]
	VPUNPCKLQDQ  Y11, Y9, Y4  // [a0 b0 | a2 b2]
	VPUNPCKHQDQ  Y11, Y9, Y5  // [a1 b1 | a3 b3]
	VPADDQ       Y5, Y4, Y4   // [a0+a1 b0+b1 | a2+a3 b2+b3]
	VEXTRACTI128 $1, Y4, X5
	VPADDQ       X5, X4, X4   // [sumA, sumB] as qwords
	VPSHUFD      $0x08, X4, X4
	VMOVQ        X4, (DI)     // counts[x], counts[x+1]

	ADDQ $8, DI
	ADDQ $256, DX
	DECQ R14
	JNZ  pair16

single16:
	TESTQ $1, CX
	JZ    done16

	VPAND   (DX), Y0, Y4
	VPSRLW  $4, Y4, Y5
	VPAND   Y6, Y4, Y4
	VPAND   Y6, Y5, Y5
	VPSHUFB Y4, Y7, Y4
	VPSHUFB Y5, Y7, Y5
	VPADDB  Y5, Y4, Y9

	VPAND   32(DX), Y1, Y4
	VPSRLW  $4, Y4, Y5
	VPAND   Y6, Y4, Y4
	VPAND   Y6, Y5, Y5
	VPSHUFB Y4, Y7, Y4
	VPSHUFB Y5, Y7, Y5
	VPADDB  Y4, Y9, Y9
	VPADDB  Y5, Y9, Y9

	VPAND   64(DX), Y2, Y4
	VPSRLW  $4, Y4, Y5
	VPAND   Y6, Y4, Y4
	VPAND   Y6, Y5, Y5
	VPSHUFB Y4, Y7, Y4
	VPSHUFB Y5, Y7, Y5
	VPADDB  Y4, Y9, Y9
	VPADDB  Y5, Y9, Y9

	VPAND   96(DX), Y3, Y4
	VPSRLW  $4, Y4, Y5
	VPAND   Y6, Y4, Y4
	VPAND   Y6, Y5, Y5
	VPSHUFB Y4, Y7, Y4
	VPSHUFB Y5, Y7, Y5
	VPADDB  Y4, Y9, Y9
	VPADDB  Y5, Y9, Y9

	VPSADBW      Y8, Y9, Y9
	VEXTRACTI128 $1, Y9, X10
	VPADDQ       X10, X9, X9
	VPSRLDQ      $8, X9, X10
	VPADDQ       X10, X9, X9
	MOVQ         X9, AX
	MOVL         AX, (DI)

done16:
	VZEROUPPER
	RET

// func countRunNAVX2(counts *int32, a *uint64, slab *uint64, n, words int)
//
// Generic width: per row, one 4-word vector chunk at a time (widening
// every chunk, so any words fits without byte-lane overflow), then a
// scalar POPCNT tail for the remaining 1–3 words.
TEXT ·countRunNAVX2(SB), NOSPLIT, $0-40
	MOVQ counts+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ slab+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ words+32(FP), R8

	VMOVDQU nibblePop<>(SB), Y7
	VMOVDQU nibbleMask<>(SB), Y6
	VPXOR   Y8, Y8, Y8

	MOVQ R8, R9
	SHRQ $2, R9        // R9 = 4-word chunks per row
	MOVQ R8, R10
	ANDQ $3, R10       // R10 = tail words per row
	MOVQ R8, R11
	SHLQ $3, R11       // R11 = row stride in bytes

rowN:
	MOVQ  SI, R12      // a cursor
	MOVQ  DX, R13      // slab row cursor
	VPXOR Y10, Y10, Y10 // qword accumulator
	MOVQ  R9, R14
	TESTQ R14, R14
	JZ    tailN

chunkN:
	VMOVDQU (R12), Y4
	VPAND   (R13), Y4, Y4
	VPSRLW  $4, Y4, Y5
	VPAND   Y6, Y4, Y4
	VPAND   Y6, Y5, Y5
	VPSHUFB Y4, Y7, Y4
	VPSHUFB Y5, Y7, Y5
	VPADDB  Y5, Y4, Y4
	VPSADBW Y8, Y4, Y4
	VPADDQ  Y4, Y10, Y10
	ADDQ    $32, R12
	ADDQ    $32, R13
	DECQ    R14
	JNZ     chunkN

tailN:
	VEXTRACTI128 $1, Y10, X11
	VPADDQ       X11, X10, X10
	VPSRLDQ      $8, X10, X11
	VPADDQ       X11, X10, X10
	MOVQ         X10, AX

	MOVQ  R10, R14
	TESTQ R14, R14
	JZ    storeN

tailLoopN:
	MOVQ    (R12), BX
	ANDQ    (R13), BX
	POPCNTQ BX, BX
	ADDQ    BX, AX
	ADDQ    $8, R12
	ADDQ    $8, R13
	DECQ    R14
	JNZ     tailLoopN

storeN:
	MOVL AX, (DI)
	ADDQ $4, DI
	ADDQ R11, DX
	DECQ CX
	JNZ  rowN

	VZEROUPPER
	RET

// func simRun16AVX512(dst *float64, a *uint64, aOnes int, slab *uint64, ones *int32, n int)
//
// The fused 1024-bit kernel of the avx512 arm: count and Jaccard divide
// in one pass, for n rows with n a positive multiple of 8. The query
// signature rides in Z0–Z1; each row is two VPANDQs against the
// marching slab pointer, two VPOPCNTQs (AVX512_VPOPCNTDQ) and one
// VPADDQ into that row's qword accumulator (Z8–Z15). A block of eight
// rows then reduces all eight accumulators together in a 3-level
// unpack/shuffle tree to one zmm of eight qword intersections, narrows
// them to int32 (exact: inter ≤ 1024), forms the unions
// aOnes + ones[j] − inter, converts both to float64 (VCVTDQ2PD is
// exact for int32) and divides (VDIVPD, correctly rounded under Go's
// default MXCSR — the same quotient the scalar DIVSD returns). Only
// Z0–Z15 are touched, so the closing VZEROUPPER leaves no dirty upper
// state behind. The caller guarantees aOnes > 0, so no union is 0.
TEXT ·simRun16AVX512(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ slab+24(FP), DX
	MOVQ ones+32(FP), BX
	MOVQ n+40(FP), CX
	SHRQ $3, CX // blocks of 8 rows

	VMOVDQU64    (SI), Z0
	VMOVDQU64    64(SI), Z1
	VPBROADCASTD aOnes+16(FP), Y7 // aOnes fits int32: at most 1024

block16:
	VPANDQ   (DX), Z0, Z2
	VPANDQ   64(DX), Z1, Z3
	VPOPCNTQ Z2, Z2
	VPOPCNTQ Z3, Z3
	VPADDQ   Z3, Z2, Z8
	VPANDQ   128(DX), Z0, Z4
	VPANDQ   192(DX), Z1, Z5
	VPOPCNTQ Z4, Z4
	VPOPCNTQ Z5, Z5
	VPADDQ   Z5, Z4, Z9
	VPANDQ   256(DX), Z0, Z2
	VPANDQ   320(DX), Z1, Z3
	VPOPCNTQ Z2, Z2
	VPOPCNTQ Z3, Z3
	VPADDQ   Z3, Z2, Z10
	VPANDQ   384(DX), Z0, Z4
	VPANDQ   448(DX), Z1, Z5
	VPOPCNTQ Z4, Z4
	VPOPCNTQ Z5, Z5
	VPADDQ   Z5, Z4, Z11
	VPANDQ   512(DX), Z0, Z2
	VPANDQ   576(DX), Z1, Z3
	VPOPCNTQ Z2, Z2
	VPOPCNTQ Z3, Z3
	VPADDQ   Z3, Z2, Z12
	VPANDQ   640(DX), Z0, Z4
	VPANDQ   704(DX), Z1, Z5
	VPOPCNTQ Z4, Z4
	VPOPCNTQ Z5, Z5
	VPADDQ   Z5, Z4, Z13
	VPANDQ   768(DX), Z0, Z2
	VPANDQ   832(DX), Z1, Z3
	VPOPCNTQ Z2, Z2
	VPOPCNTQ Z3, Z3
	VPADDQ   Z3, Z2, Z14
	VPANDQ   896(DX), Z0, Z4
	VPANDQ   960(DX), Z1, Z5
	VPOPCNTQ Z4, Z4
	VPOPCNTQ Z5, Z5
	VPADDQ   Z5, Z4, Z15

	// Level 1: interleave row pairs (r, r+1) and add, leaving each
	// 128-bit lane holding one partial of each row of the pair.
	VPUNPCKLQDQ Z9, Z8, Z2
	VPUNPCKHQDQ Z9, Z8, Z3
	VPADDQ      Z3, Z2, Z8 // lanes: [r0 r1] x4
	VPUNPCKLQDQ Z11, Z10, Z4
	VPUNPCKHQDQ Z11, Z10, Z5
	VPADDQ      Z5, Z4, Z10 // [r2 r3] x4
	VPUNPCKLQDQ Z13, Z12, Z2
	VPUNPCKHQDQ Z13, Z12, Z3
	VPADDQ      Z3, Z2, Z12 // [r4 r5] x4
	VPUNPCKLQDQ Z15, Z14, Z4
	VPUNPCKHQDQ Z15, Z14, Z5
	VPADDQ      Z5, Z4, Z14 // [r6 r7] x4

	// Level 2: gather the even and the odd 128-bit lanes of two pair
	// vectors and add, halving the partials per row again.
	VSHUFI64X2 $0x88, Z10, Z8, Z2
	VSHUFI64X2 $0xDD, Z10, Z8, Z3
	VPADDQ     Z3, Z2, Z8 // [r0 r1] [r0 r1] [r2 r3] [r2 r3]
	VSHUFI64X2 $0x88, Z14, Z12, Z4
	VSHUFI64X2 $0xDD, Z14, Z12, Z5
	VPADDQ     Z5, Z4, Z12 // [r4 r5] [r4 r5] [r6 r7] [r6 r7]

	// Level 3: the same lane split once more yields one total per row,
	// in row order.
	VSHUFI64X2 $0x88, Z12, Z8, Z2
	VSHUFI64X2 $0xDD, Z12, Z8, Z3
	VPADDQ     Z3, Z2, Z8 // [r0 r1 r2 r3 r4 r5 r6 r7]

	VPMOVQD   Z8, Y4       // intersections as int32
	VMOVDQU   (BX), Y5     // ones[j..j+8]
	VPADDD    Y7, Y5, Y5
	VPSUBD    Y4, Y5, Y5   // unions
	VCVTDQ2PD Y4, Z4
	VCVTDQ2PD Y5, Z5
	VDIVPD    Z5, Z4, Z4   // inter / union
	VMOVUPD   Z4, (DI)

	ADDQ $64, DI
	ADDQ $1024, DX
	ADDQ $32, BX
	DECQ CX
	JNZ  block16

	VZEROUPPER
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

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
