package similarity

import (
	"fmt"
	"math/bits"
	"os"
	"slices"
	"strings"
)

// This file is the count-kernel layer: every bit-signature similarity in
// the repository bottoms out in "popcount(a AND b)" evaluated either for
// one pair (AndCount) or for one signature against a contiguous run of
// slab rows (countRun). The run shape is where the time goes — the
// blocked cluster solvers and goldfinger's RowProvider score whole rows —
// and it is the shape the vectorized kernels accelerate: AVX2 on amd64
// (VPAND + VPSHUFB nibble popcount), AVX-512 on amd64 (VPANDQ +
// VPOPCNTQ on 512-bit vectors) and NEON on arm64 (VAND + VCNT +
// VUADDLV) process 4+ signature words per vector op instead of one
// scalar POPCNT each.
//
// The contract that keeps this layer safe to swap under the solvers:
// every kernel computes exact integer intersection counts, and every
// Jaccard is the IEEE-754 quotient float64(inter)/float64(union) of
// exact integers. Where that division happens depends on the arm:
//
//   - scalar, avx2, neon: the kernels return counts, and BitSimRow
//     divides in Go (CVTSI2SD + DIVSD on amd64).
//   - avx512: for 16-word signatures BitSimRow hands each run's 8-row
//     blocks to simRun16, which divides in-register (VCVTDQ2PD +
//     VDIVPD) and writes the float64s itself. Rows after the last
//     block, other widths and the single-row form use the avx2 count
//     kernels and the Go divide.
//
// Both divides give the same bits. The conversions are exact: inter
// and union are integers of at most 64·words (1024 at the paper
// width), far inside int32 and float64's 53-bit mantissa, and both
// CVTSI2SD and VCVTDQ2PD are exact on such integers.
// IEEE-754 division is correctly rounded, so VDIVPD and DIVSD return
// the one nearest float64 to the true quotient under the same rounding
// mode. Go runs with the default MXCSR (round to nearest even, no
// flush-to-zero or denormals-are-zero) and never changes it, and the
// quotients lie in [0, 1] with a nonzero union, so no lane sees a
// denormal, an infinity or a NaN. The frozen scalar reference plus
// the fuzz and cross-arm equivalence tests, which compare raw float
// bits, remain the correctness oracle for every arm.
//
// Kernel selection happens once at init: a dependency-free CPU feature
// probe (CPUID/XGETBV on amd64; NEON is ARMv8 baseline on arm64) picks
// the best vector kernel, and the C2_KERNEL environment variable
// overrides it ("scalar" forces the pure-Go path; a kernel name such
// as "avx2", "avx512" or "neon" demands that kernel and falls back to
// scalar with a warning when the hardware lacks it). The active kernel
// name is surfaced by KernelName — c2serve reports it in /statsz,
// c2bench prints it with the solve experiment — so a benchmark run
// always says which arm it measured.

// kernelChunk is the number of rows BitSimRow scores per count-kernel
// call: a [kernelChunk]int32 scratch lives on the caller's stack (512 B
// — small enough that the implicit zeroing is noise, large enough to
// amortize the kernel call to a fraction of a nanosecond per row).
const kernelChunk = 128

var (
	// kernelName is the active kernel ("scalar", "avx2", "avx512",
	// "neon").
	kernelName = "scalar"

	// useVector routes countRun/countOne into the per-arch assembly
	// kernels (countRunVector / countOneVector). It is a plain bool —
	// not a function value — so the assembly declarations' //go:noescape
	// stays visible to escape analysis and BitSimRow's stack counts
	// scratch never escapes.
	useVector bool

	// useFused routes BitSimRow's 16-word runs through simRun16, the
	// fused count+divide kernel. Only the amd64 avx512 arm has one.
	useFused bool
)

func init() {
	if _, err := SelectKernel(os.Getenv("C2_KERNEL")); err != nil {
		// An impossible explicit request (C2_KERNEL=neon on amd64, or a
		// typo) must not kill a serving process at import time: warn and
		// run scalar, which is always correct.
		fmt.Fprintf(os.Stderr, "c2knn/similarity: %v; using scalar kernel\n", err)
	}
}

// KernelName returns the name of the active similarity count kernel:
// "scalar", or a vector kernel such as "avx2" or "avx512" (amd64) or
// "neon" (arm64). Serving and benchmark surfaces report it so every
// recorded number is attributable to the kernel that produced it.
func KernelName() string { return kernelName }

// Vectorized reports whether a vector count kernel is active, i.e. any
// arm but "scalar". On amd64 every vector arm implies AVX2, so code
// with its own AVX assembly may key on this instead of on a kernel
// name.
func Vectorized() bool { return useVector }

// Kernels lists the kernels SelectKernel accepts on this build and CPU:
// "scalar" first, then the vector arms best first.
func Kernels() []string { return append([]string{"scalar"}, vectorNames()...) }

// SelectKernel activates the named count kernel and returns the name of
// the kernel actually in effect. "" and "auto" pick the best kernel the
// CPU supports; "scalar" forces the pure-Go reference path; an explicit
// vector name ("avx2", "avx512", "neon") selects that kernel when this
// build and CPU provide it, and otherwise returns an error listing the
// available kernels, leaving scalar active.
//
// Selection is process-global and not synchronized: call it at startup
// or between benchmark phases, never concurrently with scoring. All
// kernels produce bit-identical results, so a mid-run switch is a
// correctness no-op anyway; the restriction exists for the race
// detector, not for readers.
func SelectKernel(pref string) (string, error) {
	vec := vectorNames()
	name := "scalar"
	switch {
	case pref == "" || pref == "auto":
		if len(vec) > 0 {
			name = vec[0]
		}
	case pref == "scalar" || slices.Contains(vec, pref):
		name = pref
	default:
		kernelName, useVector, useFused = "scalar", false, false
		return kernelName, fmt.Errorf("kernel %q not available on this CPU (have %s)",
			pref, strings.Join(Kernels(), ", "))
	}
	kernelName, useVector, useFused = name, name != "scalar", name == "avx512"
	return kernelName, nil
}

// countRun writes counts[x] = popcount(a AND slab[x·words:(x+1)·words])
// for every x in [0, len(counts)). a must hold exactly `words` words and
// slab at least len(counts)·words. This is the single dispatch point of
// the run-shaped hot path: BitSimRow (and through it every blocked
// solver and goldfinger's RowProvider) calls it once per chunk of rows.
func countRun(counts []int32, a, slab []uint64, words int) {
	n := len(counts)
	if n == 0 {
		return
	}
	_ = a[words-1]
	_ = slab[n*words-1]
	if useVector {
		countRunVector(counts, a, slab, words)
		return
	}
	countRunScalar(counts, a, slab, words)
}

// countRunScalar is the pure-Go run kernel — the reference every vector
// kernel is fuzzed against, and the production path under
// C2_KERNEL=scalar or on ports without assembly. The paper-default 16
// and the 512-/2048-bit widths 8 and 32 dispatch to unrolled
// single-pair counts so common non-default signature sizes do not fall
// through to the word-at-a-time loop.
func countRunScalar(counts []int32, a, slab []uint64, words int) {
	switch words {
	case 16:
		ap := (*[16]uint64)(a)
		base := 0
		for x := range counts {
			counts[x] = int32(andCount16(ap, (*[16]uint64)(slab[base:])))
			base += 16
		}
	case 8:
		ap := (*[8]uint64)(a)
		base := 0
		for x := range counts {
			counts[x] = int32(andCount8(ap, (*[8]uint64)(slab[base:])))
			base += 8
		}
	case 32:
		ap := (*[32]uint64)(a)
		base := 0
		for x := range counts {
			counts[x] = int32(andCount32(ap, (*[32]uint64)(slab[base:])))
			base += 32
		}
	default:
		base := 0
		for x := range counts {
			counts[x] = int32(andCountWords(a, slab[base:base+words]))
			base += words
		}
	}
}

// countOne returns popcount(a AND row) through the active kernel: the
// batch-shaped path (SimBatch gathers scattered slab rows, so there is
// no contiguous run to hand the run kernels) still benefits from the
// vector kernel at the paper-default width, one single-row call at a
// time.
func countOne(a, row []uint64, words int) int {
	if useVector {
		if c, ok := countOneVector(a, row, words); ok {
			return c
		}
	}
	return AndCount(a, row)
}

// KernelAndCount is AndCount through the active count kernel's
// single-row form — the vector kernel at the paper-default width. For
// scattered per-pair callers outside this package, such as the delta
// layer's re-solve; counts are exact integers, so the result equals
// AndCount's under every kernel.
func KernelAndCount(a, b []uint64) int { return countOne(a, b[:len(a)], len(a)) }

// AndCount returns popcount(a AND b), the intersection cardinality of
// two equal-width bit signatures, through the scalar specializations
// (8/16/32 words unrolled, 4-wide loop otherwise). It is the per-pair
// form of the count kernels — goldfinger.Set.Sim and the gathered
// Local.Sim run on it.
func AndCount(a, b []uint64) int {
	switch len(a) {
	case 16:
		return andCount16((*[16]uint64)(a), (*[16]uint64)(b))
	case 8:
		return andCount8((*[8]uint64)(a), (*[8]uint64)(b))
	case 32:
		return andCount32((*[32]uint64)(a), (*[32]uint64)(b))
	}
	return andCountWords(a, b)
}

// andCount16 is the unrolled AND-popcount of the paper's default
// 1024-bit fingerprints — the single copy of the body that used to be
// pasted into Sim, BitSimRow and bitSimBatch. Fixed-size array views
// eliminate bounds checks; the 32-intrinsic body is far past the
// inliner's budget, so callers pay one call per pair — the run-shaped
// paths avoid even that by amortizing countRun over whole chunks.
func andCount16(a, b *[16]uint64) int {
	return bits.OnesCount64(a[0]&b[0]) + bits.OnesCount64(a[1]&b[1]) +
		bits.OnesCount64(a[2]&b[2]) + bits.OnesCount64(a[3]&b[3]) +
		bits.OnesCount64(a[4]&b[4]) + bits.OnesCount64(a[5]&b[5]) +
		bits.OnesCount64(a[6]&b[6]) + bits.OnesCount64(a[7]&b[7]) +
		bits.OnesCount64(a[8]&b[8]) + bits.OnesCount64(a[9]&b[9]) +
		bits.OnesCount64(a[10]&b[10]) + bits.OnesCount64(a[11]&b[11]) +
		bits.OnesCount64(a[12]&b[12]) + bits.OnesCount64(a[13]&b[13]) +
		bits.OnesCount64(a[14]&b[14]) + bits.OnesCount64(a[15]&b[15])
}

// andCount8 is the 512-bit specialization.
func andCount8(a, b *[8]uint64) int {
	return bits.OnesCount64(a[0]&b[0]) + bits.OnesCount64(a[1]&b[1]) +
		bits.OnesCount64(a[2]&b[2]) + bits.OnesCount64(a[3]&b[3]) +
		bits.OnesCount64(a[4]&b[4]) + bits.OnesCount64(a[5]&b[5]) +
		bits.OnesCount64(a[6]&b[6]) + bits.OnesCount64(a[7]&b[7])
}

// andCount32 is the 2048-bit specialization.
func andCount32(a, b *[32]uint64) int {
	return andCount16((*[16]uint64)(a[:16]), (*[16]uint64)(b[:16])) +
		andCount16((*[16]uint64)(a[16:]), (*[16]uint64)(b[16:]))
}

// andCountWords is the AND-popcount of two equally sized word slices,
// 4-wide unrolled for the common multiples-of-four widths.
func andCountWords(a, b []uint64) int {
	b = b[:len(a)] // bounds-check elimination in both loops below
	inter := 0
	k := 0
	for ; k+4 <= len(a); k += 4 {
		inter += bits.OnesCount64(a[k]&b[k]) + bits.OnesCount64(a[k+1]&b[k+1]) +
			bits.OnesCount64(a[k+2]&b[k+2]) + bits.OnesCount64(a[k+3]&b[k+3])
	}
	for ; k < len(a); k++ {
		inter += bits.OnesCount64(a[k] & b[k])
	}
	return inter
}
