package frh

import "c2knn/internal/similarity"

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
