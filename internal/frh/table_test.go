package frh

import (
	"slices"
	"testing"
)

// TestContains: the branch-free search agrees with slices.BinarySearch
// on every increasing slice of even values below 20 and every probe
// from −1 to 20.
func TestContains(t *testing.T) {
	for mask := range 1 << 10 {
		var s []int32
		for v := range int32(10) {
			if mask&(1<<v) != 0 {
				s = append(s, 2*v)
			}
		}
		for u := int32(-1); u <= 20; u++ {
			_, want := slices.BinarySearch(s, u)
			if got := contains(s, u); got != want {
				t.Fatalf("contains(%v, %d) = %v, want %v", s, u, got, want)
			}
		}
	}
}
