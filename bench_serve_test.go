// Serving-layer benchmarks: what a serving process pays per request
// after loading a snapshot (frozen neighbor lookups, Scorer and Index
// recommendations) and the snapshot load itself. The zero-allocation
// tests of the frozen view and the Scorer pin allocation counts;
// perfbench's serve workload gates serving speed end to end.
package c2knn_test

import (
	"sync"
	"testing"

	"c2knn"
	"c2knn/internal/core"
	"c2knn/internal/knng"
	"c2knn/internal/recommend"
)

// serveState is built once per benchmark process: the frozen form of a
// C² graph over the shared benchEnv's ml1M dataset, and a serving index.
var (
	serveOnce sync.Once
	serveF    *knng.Frozen
	serveIx   *c2knn.Index
)

func serveSetup(b *testing.B) {
	b.Helper()
	serveOnce.Do(func() {
		p := benchEnv.MustPrepare("ml1M")
		bb, t, n := benchEnv.C2Params("ml1M")
		g, _ := core.Build(p.Data, p.GF, core.Options{
			K: benchEnv.K, B: bb, T: t, MaxClusterSize: n,
			Workers: benchEnv.Workers, Seed: benchEnv.Seed,
		})
		serveF = g.Freeze()
		ix, err := c2knn.NewIndex(g, p.Data, p.GF)
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
