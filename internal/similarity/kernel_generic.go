//go:build !amd64 && !arm64

package similarity

// Ports without assembly kernels: the probe reports no vector kernel,
// so useVector and useFused are never set and the hooks below are
// unreachable — they exist so kernel.go compiles unconditionally.

func probe() (names []string, clmul bool) { return nil, false }

func simRun16(dst []float64, a []uint64, aOnes int, slab []uint64, ones []int32) {
	panic("similarity: no fused count+divide kernel on this port")
}

func countRunVector(counts []int32, a, slab []uint64, words int) {
	countRunScalar(counts, a, slab, words)
}

func countOneVector(a, row []uint64, words int) (int, bool) { return 0, false }
