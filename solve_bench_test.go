// The BenchmarkLocalSolve family tracks what the blocked row kernels
// buy inside one cluster solve: the *Scalar variants run the frozen
// pair-at-a-time formulations (one Sim call plus two ungated heap
// inserts per pair — the hot loop as it stood before the blocked
// kernels landed), the *Blocked variants run the production path
// (SimRow/SimBatch row scoring, dense threshold gates, panel-blocked
// sweep). Both share the gathered kernel and per-worker scratch, so the
// ratio isolates exactly the row-batching + threshold-gating win.
//
// Brute force is measured at two cluster sizes: 400 is the historical
// kernel-bench cluster, 1600 sits near the splitting threshold N=2000 —
// and since a solve costs O(m²), clusters of that size are where a real
// build's brute-force wall-clock concentrates. scripts/bench-solve.sh
// records the same comparison as benchmarks/BENCH_solve.json and
// bench-compare.sh gates the speedup and the zero-allocation contract.
// See EXPERIMENTS.md for measured numbers and the discussion of where
// the remaining time goes.
package c2knn_test

import (
	"fmt"
	"math/rand"
	"testing"

	"c2knn/internal/bruteforce"
	"c2knn/internal/hyrec"
	"c2knn/internal/similarity"
)

// solveCluster draws a deterministic pseudo-cluster of size m from the
// kernel-bench dataset and gathers it.
func solveCluster(b *testing.B, m int, loc *similarity.Local) {
	b.Helper()
	gf, _ := kernelBenchSetup(b)
	rng := rand.New(rand.NewSource(17))
	perm := rng.Perm(kernelBench.data.NumUsers())
	ids := make([]int32, m)
	for i := range ids {
		ids[i] = int32(perm[i])
	}
	similarity.GatherInto(gf, ids, loc)
}

// --- cluster-local brute force: pair-at-a-time vs blocked sweep ------

func BenchmarkLocalSolveBruteForceScalar(b *testing.B) {
	for _, m := range []int{400, 1600} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var loc similarity.Local
			var s bruteforce.Scratch
			solveCluster(b, m, &loc)
			bruteforce.LocalIntoScalar(&loc, 30, &s, nil) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bruteforce.LocalIntoScalar(&loc, 30, &s, nil)
			}
		})
	}
}

func BenchmarkLocalSolveBruteForceBlocked(b *testing.B) {
	for _, m := range []int{400, 1600} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var loc similarity.Local
			var s bruteforce.Scratch
			solveCluster(b, m, &loc)
			bruteforce.LocalInto(&loc, 30, &s, nil) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bruteforce.LocalInto(&loc, 30, &s, nil)
			}
		})
	}
}

// --- cluster-local Hyrec: scalar vs batched candidate scoring --------

func BenchmarkLocalSolveHyrecScalar(b *testing.B) {
	o := hyrec.Options{MaxIter: 5, Seed: 7}
	var loc similarity.Local
	var s hyrec.Scratch
	solveCluster(b, 400, &loc)
	hyrec.LocalIntoScalar(&loc, 30, o, &s) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hyrec.LocalIntoScalar(&loc, 30, o, &s)
	}
}

func BenchmarkLocalSolveHyrecBlocked(b *testing.B) {
	o := hyrec.Options{MaxIter: 5, Seed: 7}
	var loc similarity.Local
	var s hyrec.Scratch
	solveCluster(b, 400, &loc)
	hyrec.LocalInto(&loc, 30, o, &s) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hyrec.LocalInto(&loc, 30, o, &s)
	}
}

// --- row primitive: pairwise scoring through SimRow ------------------

// BenchmarkLocalSolveSimRow complements the pairwise Gathered bench in
// kernel_bench_test.go: the same triangular pair sweep served by whole
// SimRow calls instead of per-pair Sim.
func BenchmarkLocalSolveSimRow(b *testing.B) {
	var loc similarity.Local
	solveCluster(b, 400, &loc)
	m := loc.Len()
	row := make([]float64, m)
	var acc float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for x := 0; x < m-1; x++ {
			r := row[:m-1-x]
			loc.SimRow(x, x+1, m, r)
			for _, v := range r {
				acc += v
			}
		}
	}
	_ = acc
}
