package persist

import (
	"c2knn/internal/sets"
	"c2knn/internal/similarity"
)

// maxU32AVX2 returns the unsigned maximum of the n int32s at p with
// VPMAXUD over four ymm accumulators; n must be a positive multiple of
// 32. Implemented in verify_amd64.s.
//
//go:noescape
func maxU32AVX2(p *int32, n int) uint32

// maxU32 returns sets.MaxU32(xs), through the AVX2 kernel when a vector
// similarity kernel is active — every amd64 vector arm's probe admits
// AVX2 — and through the Go loop otherwise, so C2_KERNEL=scalar runs the
// portable path end to end. The verifier calls it on chunks the CRC has
// just read: the Go loop is compute-bound even on cache-resident data,
// and VPMAXUD keeps up with the cache.
func maxU32(xs []int32) uint32 {
	if !similarity.Vectorized() {
		return sets.MaxU32(xs)
	}
	nb := len(xs) &^ 31
	m := sets.MaxU32(xs[nb:])
	if nb > 0 {
		m = max(m, maxU32AVX2(&xs[0], nb))
	}
	return m
}
