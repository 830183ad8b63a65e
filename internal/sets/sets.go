// Package sets implements operations on sorted, duplicate-free []int32
// slices, which is how user profiles are represented throughout this
// repository. All binary operations assume both inputs are sorted in
// ascending order and contain no duplicates; Normalize establishes that
// invariant.
package sets

import "sort"

// Normalize sorts s in place, removes duplicates, and returns the
// (possibly shorter) normalized slice. The returned slice aliases s.
func Normalize(s []int32) []int32 {
	if len(s) < 2 {
		return s
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// IsNormalized reports whether s is sorted ascending with no duplicates.
func IsNormalized(s []int32) bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// IntersectCount returns |a ∩ b| using a linear merge, falling back to a
// galloping strategy when the inputs have very different lengths.
func IntersectCount(a, b []int32) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	// Galloping pays off when one side is much longer than the other.
	if len(a) > 32*len(b) {
		return gallopCount(b, a)
	}
	if len(b) > 32*len(a) {
		return gallopCount(a, b)
	}
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// gallopCount counts the elements of the short slice present in the long
// slice using binary search.
func gallopCount(short, long []int32) int {
	n := 0
	lo := 0
	for _, v := range short {
		idx := lo + sort.Search(len(long)-lo, func(k int) bool { return long[lo+k] >= v })
		if idx < len(long) && long[idx] == v {
			n++
			lo = idx + 1
		} else {
			lo = idx
		}
		if lo >= len(long) {
			break
		}
	}
	return n
}

// Union returns a newly allocated sorted slice holding a ∪ b.
func Union(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Contains reports whether sorted slice s contains x.
func Contains(s []int32, x int32) bool {
	i := sort.Search(len(s), func(k int) bool { return s[k] >= x })
	return i < len(s) && s[i] == x
}

// Equal reports whether a and b hold the same elements in the same order.
func Equal(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// MaxU32 returns the maximum of s reinterpreted as unsigned values (0
// for an empty slice). Bounds checks use it to fold "x < 0" and
// "x >= limit" into one test: negative ids map high. The slice need not
// be sorted. Four independent accumulators keep the dependency chains
// short so the compiler emits conditional moves.
func MaxU32(s []int32) uint32 {
	var m0, m1, m2, m3 uint32
	i := 0
	for ; i+4 <= len(s); i += 4 {
		if v := uint32(s[i]); v > m0 {
			m0 = v
		}
		if v := uint32(s[i+1]); v > m1 {
			m1 = v
		}
		if v := uint32(s[i+2]); v > m2 {
			m2 = v
		}
		if v := uint32(s[i+3]); v > m3 {
			m3 = v
		}
	}
	for ; i < len(s); i++ {
		if v := uint32(s[i]); v > m0 {
			m0 = v
		}
	}
	return max(m0, m1, m2, m3)
}
