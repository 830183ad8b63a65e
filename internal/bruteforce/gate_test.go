package bruteforce

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"c2knn/internal/similarity"
)

// TestGateMasksEveryKernel checks that the dispatching gate scan
// (gateMasks: the AVX compare scan on amd64 whenever a vector count
// kernel is active) produces the portable reference's masks under every
// kernel the build and CPU provide. Rows hold ties with the thresholds,
// NaNs, the -1 open gate, and lengths that are and are not multiples of
// the scan's 4-wide groups.
func TestGateMasksEveryKernel(t *testing.T) {
	defer similarity.SelectKernel(os.Getenv("C2_KERNEL"))
	rng := rand.New(rand.NewSource(17))
	row := make([]float64, colBlock)
	mins := make([]float64, colBlock)
	for _, name := range similarity.Kernels() {
		if _, err := similarity.SelectKernel(name); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 3, 4, 5, 8, 63, 64, 65, 127, 255, colBlock - 1, colBlock} {
			for trial := 0; trial < 20; trial++ {
				minI := []float64{-1, 0, 0.25, 0.5, 1}[trial%5]
				for x := 0; x < n; x++ {
					row[x] = float64(rng.Intn(9)) / 8
					switch rng.Intn(8) {
					case 0:
						mins[x] = row[x] // tie: not an accept
					case 1:
						mins[x] = -1
					case 2:
						row[x] = math.NaN()
					default:
						mins[x] = float64(rng.Intn(9)) / 8
					}
				}
				var fwd, rev, wantFwd, wantRev [maskWords]uint64
				gateMasks(row[:n], mins[:n], minI, &fwd, &rev)
				gateMasksGo(row[:n], mins[:n], minI, &wantFwd, &wantRev)
				if fwd != wantFwd || rev != wantRev {
					t.Fatalf("kernel %s n=%d minI=%v: masks (%x, %x), want (%x, %x)",
						name, n, minI, fwd, rev, wantFwd, wantRev)
				}
			}
		}
	}
}
