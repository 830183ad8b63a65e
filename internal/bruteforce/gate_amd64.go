package bruteforce

import "c2knn/internal/similarity"

// gateScanAVX fills the leading n bits of the fwd/rev masks from groups
// of four VCMPPD/VMOVMSKPD compares; n must be a multiple of 4 and ≥ 4.
// The compare predicate is GT_OQ — ordered, quiet — which is exactly
// Go's `>` on float64 (NaN compares false), so the masks match
// gateMasksGo bit for bit.
//
//go:noescape
func gateScanAVX(row *float64, mins *float64, minI float64, fwd, rev *uint64, n int)

// gateMasks computes the row's gate bitmasks (see gateMasksGo for the
// contract), through the AVX scan when a vector similarity kernel is
// active — every amd64 vector arm's probe admits AVX2, which covers
// everything the scan uses — and through the portable loop otherwise,
// including under C2_KERNEL=scalar so that mode exercises pure-Go
// gating end to end.
func gateMasks(row, mins []float64, minI float64, fwd, rev *[maskWords]uint64) {
	if !similarity.Vectorized() {
		gateMasksGo(row, mins, minI, fwd, rev)
		return
	}
	*fwd = [maskWords]uint64{}
	*rev = [maskWords]uint64{}
	n := len(row)
	nb := n &^ 3
	if nb > 0 {
		gateScanAVX(&row[0], &mins[0], minI, &fwd[0], &rev[0], nb)
	}
	for x := nb; x < n; x++ {
		sim := row[x]
		if sim > minI {
			fwd[x>>6] |= 1 << uint(x&63)
		}
		if sim > mins[x] {
			rev[x>>6] |= 1 << uint(x&63)
		}
	}
}
