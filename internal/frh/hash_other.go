//go:build !amd64

package frh

// minRows sets *out to the lane-wise minimum of tab's rows for the
// non-empty items; only amd64 has a vector kernel.
func minRows(tab [][lanes]uint16, items []int32, out *[lanes]uint16) {
	minRowsGo(tab, items, out)
}
