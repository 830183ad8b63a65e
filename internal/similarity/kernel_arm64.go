package similarity

// arm64 vector kernel: NEON VAND + VCNT byte popcount with an in-vector
// byte-count tree, widened by VUADDLV. The assembly lives in
// kernel_arm64.s; like the amd64 kernels it returns exact integer
// intersection counts, so BitSimRow's float64 division keeps results
// bit-identical to the scalar reference.

// countRun16NEON writes counts[x] = popcount(a AND slab[16x:16x+16])
// for x in [0, n) — the paper-default 1024-bit specialization with the
// query signature held in eight vector registers across the run.
//
//go:noescape
func countRun16NEON(counts *int32, a *uint64, slab *uint64, n int)

// countRunNNEON is the generic-width run kernel: any words ≥ 1,
// vectorized over 2-word chunks with a group flush well inside the
// byte-lane overflow bound and a 1-word scalar tail.
//
//go:noescape
func countRunNNEON(counts *int32, a *uint64, slab *uint64, n, words int)

// probe reports "neon" unconditionally: AdvSIMD is baseline in ARMv8-A,
// which is the floor for Go's arm64 port — there is nothing to probe.
// There is no CRC fold kernel on arm64.
func probe() (names []string, clmul bool) { return []string{"neon"}, false }

// simRun16 is unreachable on arm64 (only the amd64 avx512 arm fuses
// the divide); it exists so kernel.go compiles unconditionally.
func simRun16(dst []float64, a []uint64, aOnes int, slab []uint64, ones []int32) {
	panic("similarity: no fused count+divide kernel on arm64")
}

// countRunVector dispatches one contiguous run to the NEON kernels.
// Only called with useVector set.
func countRunVector(counts []int32, a, slab []uint64, words int) {
	if words == 16 {
		countRun16NEON(&counts[0], &a[0], &slab[0], len(counts))
		return
	}
	countRunNNEON(&counts[0], &a[0], &slab[0], len(counts), words)
}

// countOneVector serves the batch-shaped path at the paper-default
// width; other widths report false and fall back to the scalar
// specializations.
func countOneVector(a, row []uint64, words int) (int, bool) {
	if words != 16 {
		return 0, false
	}
	var c int32
	countRun16NEON(&c, &a[0], &row[0], 1)
	return int(c), true
}
