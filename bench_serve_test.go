// Serving-layer benchmarks: the frozen CSR query path (what a serving
// process pays per request after loading a snapshot) against the
// mutable build structure it replaces. BenchmarkServeFrozenNeighbors vs
// BenchmarkServeGraphNeighbors is the acceptance pair — the frozen view
// must be allocation-free and at least 2x the alloc-and-sort path.
// `c2bench -exp serve` runs the same comparison and fails below its
// floors (ServeSummary.Floors).
package c2knn_test

import (
	"sync"
	"testing"

	"c2knn"
	"c2knn/internal/core"
	"c2knn/internal/knng"
	"c2knn/internal/recommend"
)

// serveState is built once per benchmark process: a C² graph over the
// shared benchEnv's ml1M dataset, its frozen form, and a serving index.
var (
	serveOnce sync.Once
	serveG    *knng.Graph
	serveF    *knng.Frozen
	serveIx   *c2knn.Index
)

func serveSetup(b *testing.B) {
	b.Helper()
	serveOnce.Do(func() {
		p := benchEnv.MustPrepare("ml1M")
		bb, t, n := benchEnv.C2Params("ml1M")
		serveG, _ = core.Build(p.Data, p.GF, core.Options{
			K: benchEnv.K, B: bb, T: t, MaxClusterSize: n,
			Workers: benchEnv.Workers, Seed: benchEnv.Seed,
		})
		serveF = serveG.Freeze()
		ix, err := c2knn.NewIndex(serveG, p.Data, p.GF)
		if err != nil {
			panic(err)
		}
		serveIx = ix
	})
}

func BenchmarkServeFrozenNeighbors(b *testing.B) {
	serveSetup(b)
	users := int32(serveF.NumUsers())
	var sink float32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sims := serveF.Neighbors(int32(i) % users)
		if len(sims) > 0 {
			sink += sims[0]
		}
	}
	_ = sink
}

func BenchmarkServeGraphNeighbors(b *testing.B) {
	serveSetup(b)
	users := int32(serveG.NumUsers())
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nbs := serveG.Neighbors(int32(i) % users)
		if len(nbs) > 0 {
			sink += nbs[0].Sim
		}
	}
	_ = sink
}

func BenchmarkServeRecommendFrozen(b *testing.B) {
	serveSetup(b)
	p := benchEnv.MustPrepare("ml1M")
	users := int32(p.Data.NumUsers())
	sc := recommend.NewScorer(p.Data.NumItems)
	rec := make([]int32, 0, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec = sc.Recommend(p.Data, serveF, int32(i)%users, 30, rec[:0])
	}
	_ = rec
}

func BenchmarkServeRecommendGraph(b *testing.B) {
	serveSetup(b)
	p := benchEnv.MustPrepare("ml1M")
	users := int32(p.Data.NumUsers())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recommend.Recommend(p.Data, serveG, int32(i)%users, 30)
	}
}

// BenchmarkServeIndexRecommendParallel is the request-handler shape:
// many goroutines hammering one Index, scratch served from its pool.
func BenchmarkServeIndexRecommendParallel(b *testing.B) {
	serveSetup(b)
	users := int32(serveIx.NumUsers())
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		u := int32(0)
		for pb.Next() {
			serveIx.Recommend(u%users, 30)
			u++
		}
	})
}

// BenchmarkServeLoadIndex measures the load-many side of the split: the
// time from snapshot bytes on disk to a servable index.
func BenchmarkServeLoadIndex(b *testing.B) {
	serveSetup(b)
	path := b.TempDir() + "/index.c2"
	if err := serveIx.Save(path); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := c2knn.LoadIndex(path)
		if err != nil {
			b.Fatal(err)
		}
		// Close releases the iteration's mapping (when mmap-loaded);
		// without it b.N mappings would accumulate for the benchmark's
		// lifetime.
		ix.Close()
	}
}
