package similarity

// amd64 vector kernels, selected by a dependency-free CPUID/XGETBV
// probe (below). Two arms:
//
//   - avx2: VPAND + VPSHUFB-nibble popcount. Both entry points write
//     exact integer intersection counts, and BitSimRow divides in Go.
//   - avx512: the avx2 kernels plus simRun16AVX512, which counts with
//     VPOPCNTQ and performs the Jaccard divide in-register for the
//     8-row blocks of a 16-word run. kernel.go argues why its float64
//     output is bit-identical to the scalar reference.
//
// The assembly lives in kernel_amd64.s.

// countRun16AVX2 writes counts[x] = popcount(a AND slab[16x:16x+16])
// for x in [0, n) — the paper-default 1024-bit specialization. The
// query signature is held in four ymm registers across the whole run.
//
//go:noescape
func countRun16AVX2(counts *int32, a *uint64, slab *uint64, n int)

// simRun16AVX512 writes dst[x] = inter/(aOnes + ones[x] − inter) with
// inter = popcount(a AND slab[16x:16x+16]) for x in [0, n): count and
// divide fused, eight rows per block. n must be a positive multiple of
// 8 and aOnes > 0 (so no union is 0).
//
//go:noescape
func simRun16AVX512(dst *float64, a *uint64, aOnes int, slab *uint64, ones *int32, n int)

// countRunNAVX2 is the generic-width run kernel: any words ≥ 1,
// vectorized over the 4-word-aligned prefix of each row with a scalar
// POPCNT tail for the remaining 1–3 words.
//
//go:noescape
func countRunNAVX2(counts *int32, a *uint64, slab *uint64, n, words int)

// cpuid and xgetbv0 are the raw instruction wrappers behind the
// probe; implemented in kernel_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// probe reports the vector kernels this CPU can run, best first, and
// whether it can also run persist's CRC-32C fold kernel.
//
// "avx2" needs the full chain: OSXSAVE enabled, AVX and POPCNT in CPUID
// leaf 1 ECX (POPCNT serves the generic kernel's scalar tail and is
// implied by any AVX2 part, but is checked anyway), the OS saving XMM
// and YMM state (XCR0 bits 1–2), and AVX2 in leaf 7 EBX bit 5.
//
// "avx512" needs avx2 plus AVX512F (leaf 7 EBX bit 16), AVX512VL (EBX
// bit 31), AVX512_VPOPCNTDQ (ECX bit 14), and the OS saving opmask and
// both halves of the ZMM state (XCR0 bits 5–7; with bits 1–2 the mask
// 0xE6).
//
// The CRC fold needs "avx512" plus VPCLMULQDQ (leaf 7 ECX bit 10), the
// 512-bit carry-less multiply it folds with, and SSE4.2 (leaf 1 ECX bit
// 20), whose CRC32 instruction finishes the fold.
func probe() (names []string, clmul bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return nil, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx, popcnt, sse42 = 1 << 27, 1 << 28, 1 << 23, 1 << 20
	if ecx1&osxsave == 0 || ecx1&avx == 0 || ecx1&popcnt == 0 {
		return nil, false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM and YMM state OS-enabled
		return nil, false
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	if ebx7&avx2 == 0 {
		return nil, false
	}
	const avx512f, avx512vl, vpopcntdq, vpclmulqdq = 1 << 16, 1 << 31, 1 << 14, 1 << 10
	if ebx7&avx512f != 0 && ebx7&avx512vl != 0 && ecx7&vpopcntdq != 0 && xcr0&0xE6 == 0xE6 {
		return []string{"avx512", "avx2"}, ecx7&vpclmulqdq != 0 && ecx1&sse42 != 0
	}
	return []string{"avx2"}, false
}

// simRun16 is BitSimRow's fused path for the avx512 arm: len(dst) rows
// of a 16-word run, a positive multiple of 8; aOnes > 0.
func simRun16(dst []float64, a []uint64, aOnes int, slab []uint64, ones []int32) {
	simRun16AVX512(&dst[0], &a[0], aOnes, &slab[0], &ones[0], len(dst))
}

// countRunVector dispatches one contiguous run to the AVX2 count
// kernels, under both arms. Only called with useVector set, which
// implies the probe passed.
func countRunVector(counts []int32, a, slab []uint64, words int) {
	if words == 16 {
		countRun16AVX2(&counts[0], &a[0], &slab[0], len(counts))
		return
	}
	countRunNAVX2(&counts[0], &a[0], &slab[0], len(counts), words)
}

// countOneVector serves the batch-shaped path (scattered rows, no
// contiguous run): a single-row kernel call still beats sixteen scalar
// POPCNTs at the paper-default width; other widths report false and
// fall back to the scalar specializations.
func countOneVector(a, row []uint64, words int) (int, bool) {
	if words != 16 {
		return 0, false
	}
	var c int32
	countRun16AVX2(&c, &a[0], &row[0], 1)
	return int(c), true
}
