package persist

import (
	"hash/crc32"

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

// crc32cFold returns crc32.Update(crc, crcTable, p[:n]) for the n bytes
// at p, folding 256 bytes per step with VPCLMULQDQ on zmm registers; n
// must be a multiple of 256 and at least 512. k is foldKeys. Implemented
// in verify_amd64.s.
//
//go:noescape
func crc32cFold(crc uint32, p *byte, n int, k *[12]uint64) uint32

// foldKeys are crc32cFold's multipliers, as (low, high) qword pairs for
// the fold distances d = 2048 (the loop), 512 (register merge), and 384,
// 256, 128 (lane merge; the last pair, zero, is for the lane that needs
// no fold). Folding a 128-bit lane d bits forward multiplies its low
// qword, the earlier bytes, by x^(d+32) and its high qword by x^(d-32)
// modulo the polynomial, each in the reflected order shifted left by
// one bit so the carry-less product lands bit-aligned (Gopal et al.,
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction", Intel, 2009).
var foldKeys = func() (k [12]uint64) {
	key := func(bits uint64) uint64 { return uint64(x8nmodp(bits/8)) << 1 }
	for i, d := range []uint64{2048, 512, 384, 256, 128} {
		k[2*i], k[2*i+1] = key(d+32), key(d-32)
	}
	return k
}()

// crcUpdate returns crc32.Update(crc, crcTable, p). When
// similarity.VectorCLMUL reports the avx512 arm on a CPU with
// VPCLMULQDQ, crc32cFold takes every whole 256-byte block of an input of
// at least 512 bytes; the shorter tail, short inputs and every other arm
// go to hash/crc32.
func crcUpdate(crc uint32, p []byte) uint32 {
	if n := len(p) &^ 255; n >= 512 && similarity.VectorCLMUL() {
		crc = crc32cFold(crc, &p[0], n, &foldKeys)
		p = p[n:]
	}
	return crc32.Update(crc, crcTable, p)
}
