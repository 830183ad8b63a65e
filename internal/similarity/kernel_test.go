package similarity

import (
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
)

// restoreKernel re-activates whatever kernel the process started with
// (the C2_KERNEL env var's choice, or auto). Tests that call
// SelectKernel must defer it.
func restoreKernel() { SelectKernel(os.Getenv("C2_KERNEL")) }

// knownKernels is every arm the package has on any port; forEachKernel
// runs a subtest per arm and skips, with the reason logged, the arms
// this build and CPU cannot run.
var knownKernels = []string{"scalar", "avx2", "avx512", "neon"}

// forEachKernel runs fn as one subtest per known kernel with that
// kernel selected, restoring the process's kernel afterwards.
func forEachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	defer restoreKernel()
	for _, name := range knownKernels {
		t.Run(name, func(t *testing.T) {
			if !slices.Contains(Kernels(), name) {
				t.Skipf("kernel %s not supported by this build/CPU (have %v)", name, Kernels())
			}
			if got, err := SelectKernel(name); err != nil || got != name {
				t.Fatalf("SelectKernel(%s) = %q, %v", name, got, err)
			}
			fn(t)
		})
	}
}

// refCount is a word-at-a-time AND-popcount oracle, independent of
// every path under test.
func refCount(a, b []uint64) int {
	n := 0
	for i := range a {
		n += popcount(a[i] & b[i])
	}
	return n
}

// refSim is the scalar Jaccard of two signatures with onesA and onesB
// set bits, from refCount: the float64 quotient of exact integers, 0
// for an empty union.
func refSim(a, b []uint64, onesA, onesB int32) float64 {
	inter := refCount(a, b)
	union := int(onesA) + int(onesB) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// runLens spans the chunk and unroll boundaries of every kernel: the
// avx2 pair loop, the avx512 8-row block and its tail, and the
// 128-row kernelChunk.
var runLens = []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 130}

// TestCountRunMatchesReference drives every count kernel the build and
// CPU provide across word widths 1..33, run lengths spanning the chunk
// and unroll boundaries, and unaligned slab offsets, against the
// independent oracle.
func TestCountRunMatchesReference(t *testing.T) {
	forEachKernel(t, testCountRunMatchesReference)
}

func testCountRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for words := 1; words <= 33; words++ {
		const maxRun = 130
		// Slab with one row of headroom so runs can start at odd row
		// offsets (j0 > 0 exercises unaligned vector loads: odd words
		// put rows off 32-byte boundaries).
		slab := make([]uint64, (maxRun+3)*words)
		for i := range slab {
			slab[i] = rng.Uint64() & rng.Uint64()
		}
		a := make([]uint64, words)
		for i := range a {
			a[i] = rng.Uint64()
		}
		counts := make([]int32, maxRun)
		for _, n := range runLens {
			for _, j0 := range []int{0, 1, 3} {
				run := slab[j0*words : (j0+n)*words]
				countRun(counts[:n], a, run, words)
				for x := 0; x < n; x++ {
					want := refCount(a, run[x*words:(x+1)*words])
					if int(counts[x]) != want {
						t.Fatalf("kernel %s: words=%d n=%d j0=%d: counts[%d]=%d, want %d",
							KernelName(), words, n, j0, x, counts[x], want)
					}
				}
			}
		}
	}
}

// TestCountRunDegenerateSignatures pins the all-zero and all-one
// corners at the specialized widths: zero intersections, and the full
// 64·words intersection that peaks every byte lane the vector kernels
// accumulate in — under every count kernel the build and CPU provide.
func TestCountRunDegenerateSignatures(t *testing.T) {
	forEachKernel(t, testCountRunDegenerateSignatures)
}

func testCountRunDegenerateSignatures(t *testing.T) {
	for _, words := range []int{1, 7, 8, 16, 32, 33} {
		const n = 67
		zero := make([]uint64, words)
		ones := make([]uint64, words)
		for i := range ones {
			ones[i] = ^uint64(0)
		}
		slab := make([]uint64, n*words)
		counts := make([]int32, n)

		countRun(counts, ones, slab, words) // all-one query, all-zero slab
		for x := range counts {
			if counts[x] != 0 {
				t.Fatalf("words=%d all-zero slab: counts[%d]=%d", words, x, counts[x])
			}
		}
		for i := range slab {
			slab[i] = ^uint64(0)
		}
		countRun(counts, ones, slab, words) // saturated: every bit set
		for x := range counts {
			if int(counts[x]) != 64*words {
				t.Fatalf("words=%d saturated: counts[%d]=%d, want %d", words, x, counts[x], 64*words)
			}
		}
		countRun(counts, zero, slab, words) // all-zero query
		for x := range counts {
			if counts[x] != 0 {
				t.Fatalf("words=%d zero query: counts[%d]=%d", words, x, counts[x])
			}
		}
	}
}

// TestSelectKernel exercises the selection state machine: auto picks
// the best kernel, every kernel the CPU supports is selectable by name,
// "scalar" forces the reference path, an impossible explicit request
// errors with the available list and leaves scalar active, and
// AndCount keeps serving through every state.
func TestSelectKernel(t *testing.T) {
	defer restoreKernel()

	avail := Kernels()
	if avail[0] != "scalar" {
		t.Fatalf("Kernels() = %v, want scalar first", avail)
	}
	name, err := SelectKernel("")
	if err != nil {
		t.Fatalf("SelectKernel(auto): %v", err)
	}
	if name != KernelName() {
		t.Fatalf("SelectKernel returned %q but KernelName says %q", name, KernelName())
	}
	best := "scalar"
	if len(avail) > 1 {
		best = avail[1] // vector arms are listed best first
	}
	if name != best {
		t.Fatalf("auto selected %q, want the best of %v", name, avail)
	}
	t.Logf("auto selected kernel %s (available: %s)", name, strings.Join(avail, ", "))
	fold := "inactive, hash/crc32 only"
	if VectorCLMUL() {
		fold = "active"
	}
	t.Logf("persist CRC-32C fold kernel (avx512 + VPCLMULQDQ): %s", fold)

	for _, want := range avail {
		name, err := SelectKernel(want)
		if err != nil || name != want || KernelName() != want {
			t.Fatalf("SelectKernel(%s) = %q, %v (KernelName %q)", want, name, err, KernelName())
		}
		if Vectorized() != (want != "scalar") {
			t.Fatalf("kernel %s: Vectorized() = %v", want, Vectorized())
		}
		if VectorCLMUL() && want != "avx512" {
			t.Fatalf("kernel %s: VectorCLMUL() = true outside the avx512 arm", want)
		}
	}

	name, err = SelectKernel("no-such-kernel")
	if err == nil {
		t.Fatal("SelectKernel(no-such-kernel) did not error")
	}
	for _, k := range avail {
		if !strings.Contains(err.Error(), k) {
			t.Fatalf("error %q does not list available kernel %s", err, k)
		}
	}
	if name != "scalar" || KernelName() != "scalar" || Vectorized() {
		t.Fatalf("failed selection left kernel %q active, want scalar", KernelName())
	}

	if got := AndCount([]uint64{0xff00ff00ff00ff0f}, []uint64{0x00ff00ff00ff00ff}); got != 4 {
		t.Fatalf("AndCount under scalar = %d, want 4", got)
	}

	if _, err := SelectKernel("auto"); err != nil {
		t.Fatalf("SelectKernel(auto) after error state: %v", err)
	}
	if KernelName() != best {
		t.Fatalf("auto re-selection gave %q, want %q", KernelName(), best)
	}
}

// edgeLocal builds a kindBits Local whose members cycle through the
// signature shapes at the edges of the count and divide paths: sparse,
// uniform, dense, near-full (ones close to 64·words), saturated, and
// zero (a query with aOnes = 0, and unions of 0 against it).
func edgeLocal(rng *rand.Rand, m, words int) *Local {
	ids := make([]int32, m)
	for i := range ids {
		ids[i] = int32(i)
	}
	var loc Local
	sigs, ones := loc.InitBits(ids, words)
	for i := 0; i < m; i++ {
		row := sigs[i*words : (i+1)*words]
		for w := range row {
			switch i % 6 {
			case 0:
				row[w] = rng.Uint64() & rng.Uint64()
			case 1:
				row[w] = rng.Uint64()
			case 2:
				row[w] = rng.Uint64() | rng.Uint64() | rng.Uint64()
			case 3:
				row[w] = ^uint64(0) &^ (1 << (rng.Uint64() % 64))
			case 4:
				row[w] = ^uint64(0)
			case 5:
				row[w] = 0
			}
		}
		ones[i] = int32(refCount(row, row))
	}
	return &loc
}

// TestBitSimRowKernelsByteIdentical is the bit-identity contract test:
// every kernel the build and CPU provide must produce similarity rows
// byte-for-byte identical — not merely close — to the scalar oracle
// (refSim), over edge-case signatures, run lengths around the avx512
// 8-row block and the kernel chunk, and odd starting offsets j0.
func TestBitSimRowKernelsByteIdentical(t *testing.T) {
	forEachKernel(t, testBitSimRowKernelsByteIdentical)
}

func testBitSimRowKernelsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for _, words := range []int{1, 5, 8, 16, 32, 33} {
		const m = 140
		loc := edgeLocal(rng, m, words)
		got := make([]float64, m)
		for i := 0; i < m; i++ {
			if i >= 12 && i%7 != 0 {
				continue // every shape as query, then a sample
			}
			qi := loc.sigs[i*words : (i+1)*words]
			for _, n := range runLens {
				for _, j0 := range []int{0, 1, 3, 5} {
					if j0+n > m {
						continue
					}
					loc.SimRow(i, j0, j0+n, got)
					for x := 0; x < n; x++ {
						j := j0 + x
						want := refSim(qi, loc.sigs[j*words:(j+1)*words], loc.ones[i], loc.ones[j])
						if math.Float64bits(got[x]) != math.Float64bits(want) {
							t.Fatalf("kernel %s words=%d i=%d run=[%d,%d) x=%d: got %x, want %x",
								KernelName(), words, i, j0, j0+n, x,
								math.Float64bits(got[x]), math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// TestKernelAndCount pins the exported single-row dispatch to the
// oracle under every kernel, at the vector width and off it.
func TestKernelAndCount(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		for _, words := range []int{1, 7, 16, 33} {
			loc := edgeLocal(rng, 12, words)
			for i := 0; i < 12; i++ {
				for j := 0; j < 12; j++ {
					a, b := loc.sigs[i*words:(i+1)*words], loc.sigs[j*words:(j+1)*words]
					if got, want := KernelAndCount(a, b), refCount(a, b); got != want {
						t.Fatalf("kernel %s words=%d (%d,%d): %d, want %d", KernelName(), words, i, j, got, want)
					}
				}
			}
		}
	})
}

// BenchmarkBitSimRow scores one 1024-bit query against a 128-row run
// (one kernelChunk) under each available kernel, reporting ns per row:
// the unit BitSimRow's callers pay per scored pair.
func BenchmarkBitSimRow(b *testing.B) {
	defer restoreKernel()
	const m, words = 129, 16
	loc := edgeLocal(rand.New(rand.NewSource(3)), m, words)
	dst := make([]float64, m-1)
	for _, name := range Kernels() {
		b.Run(name, func(b *testing.B) {
			if _, err := SelectKernel(name); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				loc.SimRow(1, 1, m, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(m-1)), "ns/row")
		})
	}
}
