// Benchmarks regenerating every table and figure of the paper at reduced
// scale. Each table/figure has at least one testing.B entry; the
// cmd/c2bench binary runs the same code paths at arbitrary scales with
// full paper-style reports. See EXPERIMENTS.md for paper-vs-measured
// notes.
package c2knn_test

import (
	"testing"

	"c2knn/internal/core"
	"c2knn/internal/experiments"
	"c2knn/internal/frh"
	"c2knn/internal/hyrec"
	"c2knn/internal/lsh"
	"c2knn/internal/nndescent"
	"c2knn/internal/recommend"
	"c2knn/internal/similarity"
)

// benchEnv is shared across benchmarks so datasets and exact graphs are
// generated once per `go test -bench` process.
var benchEnv = &experiments.Env{
	Scale:    0.02,
	MinUsers: 1200,
	Workers:  2,
	K:        30,
	Folds:    2,
	Seed:     42,
}

// --- Table I ---------------------------------------------------------

func BenchmarkTable1DatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := &experiments.Env{Scale: 0.02, MinUsers: 1200, Seed: int64(42 + i)}
		if _, err := env.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table II / Fig 4 / Fig 5 ---------------------------------------
// One benchmark per algorithm on a dense (ml10M) and a sparse (AM)
// dataset: the per-algorithm build is the quantity Table II times.

func benchAlgo(b *testing.B, name, algo string) {
	b.Helper()
	p := benchEnv.MustPrepare(name)
	bb, t, n := benchEnv.C2Params(name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch algo {
		case "C2":
			core.Build(p.Data, p.GF, core.Options{
				K: benchEnv.K, B: bb, T: t, MaxClusterSize: n,
				Workers: benchEnv.Workers, Seed: benchEnv.Seed,
			})
		case "Hyrec":
			hyrec.Build(p.Data.NumUsers(), p.GF, hyrec.Options{
				K: benchEnv.K, Workers: benchEnv.Workers, Seed: benchEnv.Seed,
			})
		case "NNDescent":
			nndescent.Build(p.Data.NumUsers(), p.GF, nndescent.Options{
				K: benchEnv.K, Workers: benchEnv.Workers, Seed: benchEnv.Seed,
			})
		case "LSH":
			lsh.Build(p.Data, p.GF, lsh.Options{
				K: benchEnv.K, Workers: benchEnv.Workers, Seed: benchEnv.Seed,
			})
		}
	}
}

func BenchmarkTable2C2ML10M(b *testing.B)        { benchAlgo(b, "ml10M", "C2") }
func BenchmarkTable2HyrecML10M(b *testing.B)     { benchAlgo(b, "ml10M", "Hyrec") }
func BenchmarkTable2NNDescentML10M(b *testing.B) { benchAlgo(b, "ml10M", "NNDescent") }
func BenchmarkTable2LSHML10M(b *testing.B)       { benchAlgo(b, "ml10M", "LSH") }
func BenchmarkTable2C2AM(b *testing.B)           { benchAlgo(b, "AM", "C2") }
func BenchmarkTable2HyrecAM(b *testing.B)        { benchAlgo(b, "AM", "Hyrec") }
func BenchmarkTable2LSHAM(b *testing.B)          { benchAlgo(b, "AM", "LSH") }

// --- Table III -------------------------------------------------------

func BenchmarkTable3RecommendC2(b *testing.B) {
	p := benchEnv.MustPrepare("ml1M")
	folds := recommend.Split(p.Data, 5, benchEnv.Seed)
	f := folds[0]
	gf := p.GF
	g, _ := core.Build(f.Train, gf, core.Options{
		K: benchEnv.K, Workers: benchEnv.Workers, Seed: benchEnv.Seed,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recommend.EvalRecall(f, g, 30, benchEnv.Workers)
	}
}

// --- Table IV --------------------------------------------------------

func BenchmarkTable4C2MinHashML10M(b *testing.B) {
	p := benchEnv.MustPrepare("ml10M")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Build(p.Data, p.GF, core.Options{
			K: benchEnv.K, T: 8, UseMinHash: true,
			Workers: benchEnv.Workers, Seed: benchEnv.Seed,
		})
	}
}

func BenchmarkTable4C2FRHML10M(b *testing.B) { benchAlgo(b, "ml10M", "C2") }

// --- Table V ---------------------------------------------------------

func BenchmarkTable5C2RawJaccard(b *testing.B) {
	p := benchEnv.MustPrepare("ml10M")
	bb, t, n := benchEnv.C2Params("ml10M")
	raw := similarity.NewJaccard(p.Data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Build(p.Data, raw, core.Options{
			K: benchEnv.K, B: bb, T: t, MaxClusterSize: n,
			Workers: benchEnv.Workers, Seed: benchEnv.Seed,
		})
	}
}

func BenchmarkTable5C2GoldFinger(b *testing.B) { benchAlgo(b, "ml10M", "C2") }

// --- Fig 6 -----------------------------------------------------------

func benchFig6(b *testing.B, bb, t int) {
	p := benchEnv.MustPrepare("ml10M")
	n := benchEnv.ScaledN(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Build(p.Data, p.GF, core.Options{
			K: benchEnv.K, B: bb, T: t, MaxClusterSize: n,
			Workers: benchEnv.Workers, Seed: benchEnv.Seed,
		})
	}
}

func BenchmarkFig6B512T1(b *testing.B)   { benchFig6(b, 512, 1) }
func BenchmarkFig6B512T8(b *testing.B)   { benchFig6(b, 512, 8) }
func BenchmarkFig6B2048T8(b *testing.B)  { benchFig6(b, 2048, 8) }
func BenchmarkFig6B8192T8(b *testing.B)  { benchFig6(b, 8192, 8) }
func BenchmarkFig6B8192T10(b *testing.B) { benchFig6(b, 8192, 10) }

// --- Fig 7 -----------------------------------------------------------

func benchFig7(b *testing.B, n int) {
	p := benchEnv.MustPrepare("ml10M")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Build(p.Data, p.GF, core.Options{
			K: benchEnv.K, B: 4096, T: 8, MaxClusterSize: benchEnv.ScaledN(n),
			Workers: benchEnv.Workers, Seed: benchEnv.Seed,
		})
	}
}

func BenchmarkFig7N500(b *testing.B)   { benchFig7(b, 500) }
func BenchmarkFig7N3000(b *testing.B)  { benchFig7(b, 3000) }
func BenchmarkFig7N10000(b *testing.B) { benchFig7(b, 10000) }

// --- Fig 8 -----------------------------------------------------------

func benchFig8(b *testing.B, maxSize int) {
	p := benchEnv.MustPrepare("ml10M")
	h := frh.NewHasher(p.Data.NumItems, frh.Options{B: 4096, T: 8, Seed: benchEnv.Seed})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clusters, _ := frh.BuildWithHasher(p.Data, h, frh.Options{
			B: 4096, T: 8, MaxSize: maxSize, Seed: benchEnv.Seed,
		})
		frh.TopSizes(clusters, 100)
	}
}

func BenchmarkFig8Raw(b *testing.B)      { benchFig8(b, -1) }
func BenchmarkFig8Split500(b *testing.B) { benchFig8(b, benchEnv.ScaledN(500)) }

// --- Ablations (design choices from DESIGN.md) -----------------------

func benchAblation(b *testing.B, mutate func(*core.Options)) {
	p := benchEnv.MustPrepare("ml10M")
	bb, t, n := benchEnv.C2Params("ml10M")
	opts := core.Options{
		K: benchEnv.K, B: bb, T: t, MaxClusterSize: n,
		Workers: benchEnv.Workers, Seed: benchEnv.Seed,
	}
	mutate(&opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Build(p.Data, p.GF, opts)
	}
}

func BenchmarkAblationNoSplitting(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.MaxClusterSize = -1 })
}

func BenchmarkAblationFIFOScheduling(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.Scheduling = core.ScheduleFIFO })
}

func BenchmarkAblationForceHyrec(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.LocalSolver = core.SolverHyrec })
}

// --- Similarity estimator comparison (GoldFinger vs alternatives) ----
// GoldFinger's pitch (§II-F) is being faster than minwise signatures at
// equal quality; these benches quantify the per-call gap on this
// hardware.

func benchEstimator(b *testing.B, sim similarity.Provider, n int32) {
	b.Helper()
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		u := int32(i) % n
		v := (u + 1) % n
		acc += sim.Sim(u, v)
	}
	_ = acc
}

func BenchmarkEstimatorGoldFinger1024(b *testing.B) {
	p := benchEnv.MustPrepare("ml10M")
	benchEstimator(b, p.GF, int32(p.Data.NumUsers()))
}

func BenchmarkEstimatorRawJaccard(b *testing.B) {
	p := benchEnv.MustPrepare("ml10M")
	benchEstimator(b, similarity.NewJaccard(p.Data), int32(p.Data.NumUsers()))
}
