//go:build !amd64

package frh

// minRows sets *out to the lane-wise minimum of tab's rows for the
// non-empty items; only amd64 has a vector kernel.
func minRows(tab [][lanes]uint16, items []int32, out *[lanes]uint16) {
	minRowsGo(tab, items, out)
}

// hashRows fills rows[i] with the hashes of item lo+i under the seeds
// of one group; only amd64 has a vector kernel.
func hashRows(seeds []uint32, b uint32, lo int, rows [][lanes]uint16) {
	hashRowsGo(seeds, b, lo, rows)
}
