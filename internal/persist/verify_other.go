//go:build !amd64

package persist

import (
	"hash/crc32"

	"c2knn/internal/sets"
)

// maxU32 returns sets.MaxU32(xs); only amd64 has a vector kernel.
func maxU32(xs []int32) uint32 { return sets.MaxU32(xs) }

// crcUpdate returns crc32.Update(crc, crcTable, p); only amd64 has a
// fold kernel.
func crcUpdate(crc uint32, p []byte) uint32 { return crc32.Update(crc, crcTable, p) }
