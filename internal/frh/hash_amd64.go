package frh

import (
	"math/bits"

	"c2knn/internal/similarity"
)

// minRowsAVX sets *out to the lane-wise unsigned minimum of the rows of
// tab (numItems of them) selected by the n ≥ 1 item ids at items, with
// VPMINUW over four xmm accumulators. It reports false, leaving *out
// untouched, when an item id falls outside [0, numItems). Implemented
// in hash_amd64.s.
//
//go:noescape
func minRowsAVX(tab *[lanes]uint16, numItems int, items *int32, n int, out *[lanes]uint16) bool

// minRows sets *out to the lane-wise minimum of tab's rows for the
// non-empty items: through the AVX kernel when a vector similarity
// kernel is active — every amd64 vector arm's probe admits AVX2 — and
// through the Go loop otherwise, so C2_KERNEL=scalar runs the portable
// path end to end. An out-of-range item falls through to the Go loop,
// which panics on it as an index out of range.
func minRows(tab [][lanes]uint16, items []int32, out *[lanes]uint16) {
	if similarity.Vectorized() && len(tab) > 0 && minRowsAVX(&tab[0], len(tab), &items[0], len(items), out) {
		return
	}
	minRowsGo(tab, items, out)
}

// hashRowsAVX fills n ≥ 1 rows of the item hash table from the
// constants hashRows prepares. Implemented in hash_amd64.s.
//
//go:noescape
func hashRowsAVX(k *[6][lanes]uint32, n int, rows *[lanes]uint16)

// hashRows fills rows[i] with the hashes of item lo+i under the seeds
// of one eight-configuration group, as hashRowsGo does: through the
// AVX2 kernel when a vector similarity kernel is active and B is a
// power of two (so the modulo is a mask), through the Go loop
// otherwise. The kernel starts from lookup3 final's state after its
// first step, which depends on the seed alone.
func hashRows(seeds []uint32, b uint32, lo int, rows [][lanes]uint16) {
	if !similarity.Vectorized() || b&(b-1) != 0 || len(rows) == 0 {
		hashRowsGo(seeds, b, lo, rows)
		return
	}
	var k [6][lanes]uint32
	for lane := range lanes {
		k[3][lane], k[5][lane] = b-1, uint32(lo)+0x9e3779b9
		if lane >= len(seeds) {
			k[4][lane] = 0xffff
			continue
		}
		b0 := seeds[lane] + 0x9e3779b9
		c1 := (0xdeadbeef ^ b0) - bits.RotateLeft32(b0, 14)
		k[0][lane], k[1][lane], k[2][lane] = b0, c1, bits.RotateLeft32(c1, 11)
	}
	hashRowsAVX(&k, len(rows), &rows[0])
}
