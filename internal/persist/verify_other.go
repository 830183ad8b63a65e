//go:build !amd64

package persist

import "c2knn/internal/sets"

// maxU32 returns sets.MaxU32(xs); only amd64 has a vector kernel.
func maxU32(xs []int32) uint32 { return sets.MaxU32(xs) }
