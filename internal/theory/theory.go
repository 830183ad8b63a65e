// Package theory validates the analytical properties of FastRandomHash
// (§III of the paper): Theorem 1 bounds the probability that two users
// hash to the same cluster by their Jaccard similarity plus a collision
// term, and Theorem 2 concentrates that collision term. The functions
// here compute the paper's bounds exactly and estimate the corresponding
// probabilities empirically over the configurations of an frh.Hasher,
// so the package's tests check the inequalities numerically on the
// hash the builds use (including the worked example ℓ=256, b=4096 ⇒
// J−0.078 ≤ P ≤ J+0.234 with probability ≥ 0.998, see PaperExample): a
// drift in frh's seed family, its B mapping or its item table fill
// reaches them.
package theory

import (
	"math"
	"math/bits"

	"c2knn/internal/frh"
	"c2knn/internal/sets"
)

// Collisions returns κ = ℓ − |h(P1 ∪ P2)| (the number of collisions
// configuration fn of h causes on the joint profile) and ℓ = |P1 ∪ P2|.
func Collisions(p1, p2 []int32, h *frh.Hasher, fn int) (kappa, ell int) {
	_, either := images(p1, p2, h, fn)
	ell = len(p1) + len(p2) - sets.IntersectCount(p1, p2)
	return ell - either, ell
}

// SameHash reports whether the two profiles receive the same
// FastRandomHash value under configuration fn of h. An empty profile
// has no hash (frh never buckets it), so it shares none.
func SameHash(p1, p2 []int32, h *frh.Hasher, fn int) bool {
	h1, ok1 := h.UserHash(fn, p1)
	h2, ok2 := h.UserHash(fn, p2)
	return ok1 && ok2 && h1 == h2
}

// EmpiricalCollision estimates P[H(u1) = H(u2)] over the h.T()
// configurations of h.
func EmpiricalCollision(p1, p2 []int32, h *frh.Hasher) float64 {
	same := 0
	for fn := range h.T() {
		if SameHash(p1, p2, h, fn) {
			same++
		}
	}
	return float64(same) / float64(h.T())
}

// Jaccard returns J(P1, P2).
func Jaccard(p1, p2 []int32) float64 {
	inter := sets.IntersectCount(p1, p2)
	union := len(p1) + len(p2) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Theorem1Simple returns the simplified bounds of Eq. (4) and (5):
// lo = J − κ/ℓ and hi = J + 3κ/ℓ + (κ/ℓ)². hi is only valid when
// κ ≤ ℓ/2 (the theorem's assumption); ok reports that condition.
func Theorem1Simple(j float64, kappa, ell int) (lo, hi float64, ok bool) {
	r := float64(kappa) / float64(ell)
	return j - r, j + 3*r + r*r, kappa*2 <= ell
}

// Theorem1Exact returns the exact sandwich of Eq. (9):
// (J−κ/ℓ)/(1−κ/ℓ) ≤ P ≤ (J+κ/ℓ)/(1−κ/ℓ).
func Theorem1Exact(j float64, kappa, ell int) (lo, hi float64) {
	r := float64(kappa) / float64(ell)
	return (j - r) / (1 - r), (j + r) / (1 - r)
}

// ConditionalCollision returns the exact conditional probability of
// Eq. (6): |h(P1) ∩ h(P2)| / |h(P1 ∪ P2)| for configuration fn of h.
// Averaged over configurations it converges to P[H(u1) = H(u2)].
func ConditionalCollision(p1, p2 []int32, h *frh.Hasher, fn int) float64 {
	both, either := images(p1, p2, h, fn)
	return float64(both) / float64(either)
}

// images returns |h(P1) ∩ h(P2)| and |h(P1) ∪ h(P2)| = |h(P1 ∪ P2)|
// for configuration fn of h, each image a bitset over [0, B].
func images(p1, p2 []int32, h *frh.Hasher, fn int) (both, either int) {
	img1, img2 := make([]uint64, h.B()/64+1), make([]uint64, h.B()/64+1)
	for _, it := range p1 {
		v := h.ItemHash(fn, it)
		img1[v/64] |= 1 << (v % 64)
	}
	for _, it := range p2 {
		v := h.ItemHash(fn, it)
		img2[v/64] |= 1 << (v % 64)
	}
	for i := range img1 {
		both += bits.OnesCount64(img1[i] & img2[i])
		either += bits.OnesCount64(img1[i] | img2[i])
	}
	return both, either
}

// Theorem2 returns the collision-density threshold (1+d)(ℓ−1)/(2b) and
// the probability lower bound 1 − (e^d/(1+d)^(1+d))^{ℓ(ℓ−1)/(2b)} of
// Eq. (10).
func Theorem2(ell, b int, d float64) (threshold, probLB float64) {
	threshold = (1 + d) * float64(ell-1) / (2 * float64(b))
	exponent := float64(ell) * float64(ell-1) / (2 * float64(b))
	base := math.Exp(d) / math.Pow(1+d, 1+d)
	probLB = 1 - math.Pow(base, exponent)
	return threshold, probLB
}

// PaperExample evaluates the worked example after Theorem 2 (ℓ=256,
// b=4096): it returns the deviation δ⁻ below J, the deviation δ⁺ above
// J, and the probability with which they hold, i.e. the triple the
// paper rounds to (0.078, 0.234, 0.998). That triple needs d = 1.5: the
// printed d = 0.5 gives (0.047, 0.142, 0.578), so the printed value is
// read as a typo.
func PaperExample(ell, b int, d float64) (below, above, prob float64) {
	threshold, probLB := Theorem2(ell, b, d)
	// With κ/ℓ < threshold, Theorem 1 gives
	// J − threshold ≤ P and P ≤ J + 3·threshold + threshold².
	return threshold, 3*threshold + threshold*threshold, probLB
}
