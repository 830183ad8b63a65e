package core

import (
	"testing"

	"c2knn/internal/bruteforce"
	"c2knn/internal/dataset"
	"c2knn/internal/frh"
	"c2knn/internal/goldfinger"
	"c2knn/internal/knng"
	"c2knn/internal/schedule"
	"c2knn/internal/similarity"
	"c2knn/internal/synth"
)

// testData generates a small clustered dataset once per test binary.
func testData(t testing.TB) (*synthBundle, *similarity.Jaccard) {
	t.Helper()
	bundle := loadBundle()
	return bundle, bundle.raw
}

type synthBundle struct {
	data  *dataset.Dataset
	raw   *similarity.Jaccard
	gf    *goldfinger.Set
	exact *knng.Graph
}

var bundleCache *synthBundle

func loadBundle() *synthBundle {
	if bundleCache != nil {
		return bundleCache
	}
	cfg := synth.ML1M().Scale(0.08) // ≈ 480 users, small but structured
	d := synth.Generate(cfg)
	raw := similarity.NewJaccard(d)
	gf := goldfinger.MustNew(d, 512, 1)
	exact := bruteforce.Build(d.NumUsers(), 10, raw, 2)
	bundleCache = &synthBundle{data: d, raw: raw, gf: gf, exact: exact}
	return bundleCache
}

func TestBuildProducesReasonableGraph(t *testing.T) {
	b, raw := testData(t)
	g, stats := Build(b.data, b.gf, Options{K: 10, B: 256, T: 8, MaxClusterSize: 100, Workers: 2, Seed: 3})
	if g.NumUsers() != b.data.NumUsers() {
		t.Fatalf("graph size %d != users %d", g.NumUsers(), b.data.NumUsers())
	}
	q := knng.Quality(g, b.exact, raw)
	if q < 0.8 {
		t.Errorf("C2 quality = %.3f, want ≥ 0.8 on clustered data", q)
	}
	if stats.Clusters == 0 {
		t.Error("no clusters reported")
	}
	if stats.BruteForced+stats.Hyreced == 0 {
		t.Error("no clusters processed")
	}
	if got := stats.BruteForced + stats.Hyreced + stats.Skipped; got != stats.Clusters {
		t.Errorf("BruteForced+Hyreced+Skipped = %d, want Clusters = %d", got, stats.Clusters)
	}
}

func TestBuildBeatsRandomBaseline(t *testing.T) {
	b, raw := testData(t)
	g, _ := Build(b.data, b.gf, Options{K: 10, B: 256, T: 8, MaxClusterSize: 100, Workers: 2, Seed: 3})
	random := knng.New(b.data.NumUsers(), 10)
	knng.RandomInit(random, raw, 1)
	if g.AvgSim(raw) <= random.AvgSim(raw) {
		t.Error("C2 graph no better than a random graph")
	}
}

func TestSimilarityReuseNoRecomputation(t *testing.T) {
	// The number of similarity computations must not exceed the sum of
	// per-cluster pair counts (merging reuses stored values).
	b, _ := testData(t)
	counting := similarity.NewCounting(b.gf)
	_, stats := Build(b.data, counting, Options{K: 10, B: 256, T: 4, MaxClusterSize: 80, Workers: 2, Seed: 5})
	bound := int64(0)
	// Upper bound: every cluster at MaxClusterSize, brute forced.
	bound = int64(stats.Clusters) * bruteforce.PairCount(90)
	if counting.Count() > bound {
		t.Errorf("sims = %d exceed the cluster-pair bound %d", counting.Count(), bound)
	}
	if counting.Count() == 0 {
		t.Error("no similarities computed at all")
	}
}

func TestWorkerInvariance(t *testing.T) {
	b, raw := testData(t)
	opts := Options{K: 10, B: 256, T: 6, MaxClusterSize: 100, Seed: 7}
	o1 := opts
	o1.Workers = 1
	o4 := opts
	o4.Workers = 4
	g1, _ := Build(b.data, b.gf, o1)
	g4, _ := Build(b.data, b.gf, o4)
	q1 := knng.Quality(g1, b.exact, raw)
	q4 := knng.Quality(g4, b.exact, raw)
	if diff := q1 - q4; diff > 0.02 || diff < -0.02 {
		t.Errorf("quality depends on workers: %.3f vs %.3f", q1, q4)
	}
}

func TestSplittingImprovesBalance(t *testing.T) {
	b, _ := testData(t)
	_, withSplit := Build(b.data, b.gf, Options{K: 10, B: 64, T: 4, MaxClusterSize: 60, Workers: 2, Seed: 9})
	_, noSplit := Build(b.data, b.gf, Options{K: 10, B: 64, T: 4, MaxClusterSize: -1, Workers: 2, Seed: 9})
	if withSplit.Splits == 0 {
		t.Skip("dataset too small to trigger splitting at this B")
	}
	if withSplit.MaxCluster >= noSplit.MaxCluster {
		t.Errorf("splitting did not reduce the max cluster: %d vs %d",
			withSplit.MaxCluster, noSplit.MaxCluster)
	}
	if noSplit.Splits != 0 {
		t.Errorf("MaxClusterSize -1 still split %d times", noSplit.Splits)
	}
}

// TestNoSplittingRecordsN: a build with splitting off (a negative
// MaxClusterSize) makes no split and records N = −1 on the graph, the
// value upsert placement reads to leave buckets unsplit.
func TestNoSplittingRecordsN(t *testing.T) {
	b, _ := testData(t)
	g, st := Build(b.data, b.gf, Options{K: 10, B: 64, T: 4, MaxClusterSize: -1, Workers: 2, Seed: 9})
	if st.Splits != 0 {
		t.Errorf("%d splits with MaxClusterSize -1", st.Splits)
	}
	if want := (knng.Clustering{B: 64, T: 4, N: -1, Seed: 9}); g.Clustering != want {
		t.Errorf("Clustering = %+v, want %+v", g.Clustering, want)
	}
}

func TestSchedulingPolicies(t *testing.T) {
	b, raw := testData(t)
	for _, sched := range []Scheduling{ScheduleLargestFirst, ScheduleFIFO} {
		g, _ := Build(b.data, b.gf, Options{
			K: 10, B: 256, T: 4, MaxClusterSize: 100,
			Workers: 2, Seed: 11, Scheduling: sched,
		})
		if q := knng.Quality(g, b.exact, raw); q < 0.5 {
			t.Errorf("scheduling %v: quality %.3f collapsed", sched, q)
		}
	}
}

func TestLocalSolverPolicies(t *testing.T) {
	b, raw := testData(t)
	qualities := map[LocalSolver]float64{}
	for _, solver := range []LocalSolver{SolverHybrid, SolverBruteForce, SolverHyrec} {
		g, stats := Build(b.data, b.gf, Options{
			K: 10, B: 64, T: 4, MaxClusterSize: 2000, // large N keeps big clusters
			Workers: 2, Seed: 13, LocalSolver: solver,
		})
		qualities[solver] = knng.Quality(g, b.exact, raw)
		if solver == SolverBruteForce && stats.Hyreced != 0 {
			t.Error("SolverBruteForce still used Hyrec")
		}
	}
	for solver, q := range qualities {
		if q < 0.5 {
			t.Errorf("solver %v: quality %.3f collapsed", solver, q)
		}
	}
}

func TestUseMinHashVariant(t *testing.T) {
	b, raw := testData(t)
	g, stats := Build(b.data, b.gf, Options{K: 10, T: 6, UseMinHash: true, Workers: 2, Seed: 15})
	if stats.Splits != 0 {
		t.Error("MinHash variant must not split")
	}
	if q := knng.Quality(g, b.exact, raw); q < 0.5 {
		t.Errorf("MinHash variant quality %.3f collapsed", q)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	b, _ := testData(t)
	opts := Options{K: 10, B: 128, T: 4, MaxClusterSize: 100, Workers: 3, Seed: 17}
	g1, s1 := Build(b.data, b.gf, opts)
	g2, s2 := Build(b.data, b.gf, opts)
	if s1.Clusters != s2.Clusters || s1.Splits != s2.Splits {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
	for u := 0; u < g1.NumUsers(); u++ {
		a, c := g1.Neighbors(int32(u)), g2.Neighbors(int32(u))
		if len(a) != len(c) {
			t.Fatalf("user %d: neighbor counts differ", u)
		}
		for i := range a {
			if a[i].Sim != c[i].Sim {
				t.Fatalf("user %d: sims differ across identical runs", u)
			}
		}
	}
}

func TestStringers(t *testing.T) {
	if SolverHybrid.String() != "hybrid" || SolverBruteForce.String() != "bruteforce" || SolverHyrec.String() != "hyrec" {
		t.Error("LocalSolver.String broken")
	}
	if LocalSolver(99).String() == "" {
		t.Error("unknown solver should still render")
	}
	if ScheduleLargestFirst.String() != "largest-first" || ScheduleFIFO.String() != "fifo" {
		t.Error("Scheduling.String broken")
	}
}

func TestUseHyrecSwitch(t *testing.T) {
	o := Options{}
	o.setDefaults()
	if useHyrec(o, o.K+1) {
		t.Error("tiny cluster should brute force")
	}
	if useHyrec(o, Rho*o.K*o.K-1) {
		t.Error("below ρk² should brute force")
	}
	if !useHyrec(o, Rho*o.K*o.K) {
		t.Error("at ρk² should use Hyrec")
	}
}

func BenchmarkBuildC2Small(b *testing.B) {
	bundle := loadBundle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(bundle.data, bundle.gf, Options{K: 10, B: 256, T: 8, MaxClusterSize: 100, Workers: 2, Seed: 3})
	}
}

// dispatchOnly hides a provider's Localizer implementation, forcing the
// generic Provider-dispatch kernel — the reference path the gathered
// kernels must match bit-for-bit.
type dispatchOnly struct{ p similarity.Provider }

func (d dispatchOnly) Sim(u, v int32) float64 { return d.p.Sim(u, v) }

func graphsIdentical(t *testing.T, a, b *knng.Graph) {
	t.Helper()
	if a.NumUsers() != b.NumUsers() {
		t.Fatalf("graph sizes differ: %d vs %d", a.NumUsers(), b.NumUsers())
	}
	for u := range a.Lists {
		ha, hb := a.Lists[u].H, b.Lists[u].H
		if len(ha) != len(hb) {
			t.Fatalf("user %d: neighbor counts differ (%d vs %d)", u, len(ha), len(hb))
		}
		for i := range ha {
			if ha[i].ID != hb[i].ID || ha[i].Sim != hb[i].Sim {
				t.Fatalf("user %d slot %d: (%d, %v) vs (%d, %v)",
					u, i, ha[i].ID, ha[i].Sim, hb[i].ID, hb[i].Sim)
			}
		}
	}
}

// buildSerial is a serial driver of Build's per-cluster step: it solves
// frh.Build's configuration-major cluster list on the calling
// goroutine, stably sorted largest-first. That is the order the queue
// pops when every cluster is pushed before the first pop, so the merge
// order, and with it the graph, is fixed; Build's concurrent producers
// make even a one-worker pop order depend on scheduling. It covers
// FastRandomHash clustering under largest-first scheduling.
func buildSerial(d *dataset.Dataset, p similarity.Provider, o Options) *knng.Graph {
	o.setDefaults()
	c := o.clustering()
	clusters, _ := frh.Build(d, frh.Options{B: c.B, T: c.T, MaxSize: c.N, Seed: c.Seed})
	seqs := make([]int64, o.T)
	jobs := make([]clusterJob, len(clusters))
	for i, cl := range clusters {
		jobs[i] = clusterJob{users: cl.Users, seed: jobSeed(o.Seed, cl.Fn, seqs[cl.Fn])}
		seqs[cl.Fn]++
	}
	g := knng.New(d.NumUsers(), o.K)
	g.Clustering = c
	shared := knng.NewShared(g)
	var ws workerState
	for _, i := range schedule.LargestFirst(frh.Sizes(clusters)) {
		ws.solve(p, o, shared, jobs[i])
	}
	return g
}

// TestKernelEquivalenceBuild: for a fixed seed, building through the
// gathered fast-path kernels must produce a graph bit-identical — same
// heap layouts, same float64 similarities — to building through plain
// Provider dispatch. Both go through buildSerial, whose merge order is
// fixed, so the comparison is exact.
func TestKernelEquivalenceBuild(t *testing.T) {
	b, _ := testData(t)
	opts := Options{K: 10, B: 128, T: 6, MaxClusterSize: 120, Seed: 21}
	for _, tc := range []struct {
		name string
		p    similarity.Provider
	}{
		{"goldfinger", b.gf},
		{"jaccard", b.raw},
	} {
		if _, ok := tc.p.(similarity.Localizer); !ok {
			t.Fatalf("%s: provider lost its Localizer implementation", tc.name)
		}
		fast := buildSerial(b.data, tc.p, opts)
		slow := buildSerial(b.data, dispatchOnly{tc.p}, opts)
		graphsIdentical(t, fast, slow)
	}
}

// TestKernelEquivalenceSolvers repeats the bit-identity check with each
// local solver forced, so both the brute-force and the Hyrec kernels
// are exercised on large clusters.
func TestKernelEquivalenceSolvers(t *testing.T) {
	b, _ := testData(t)
	for _, solver := range []LocalSolver{SolverBruteForce, SolverHyrec} {
		opts := Options{
			K: 10, B: 32, T: 4, MaxClusterSize: 2000,
			Seed: 23, LocalSolver: solver,
		}
		fast := buildSerial(b.data, b.gf, opts)
		slow := buildSerial(b.data, dispatchOnly{b.gf}, opts)
		graphsIdentical(t, fast, slow)
	}
}

// TestScratchReuseConcurrent hammers the per-worker scratch-reuse path
// with many workers and repeated runs; under -race it proves gathered
// kernels and solver scratch never leak across goroutines, and the
// runs must stay deterministic.
func TestScratchReuseConcurrent(t *testing.T) {
	b, _ := testData(t)
	opts := Options{K: 10, B: 128, T: 6, MaxClusterSize: 100, Workers: 8, Seed: 29}
	ref, _ := Build(b.data, b.gf, opts)
	for run := 0; run < 3; run++ {
		g, _ := Build(b.data, b.gf, opts)
		for u := range g.Lists {
			if len(g.Lists[u].H) != len(ref.Lists[u].H) {
				t.Fatalf("run %d user %d: neighbor count drifted", run, u)
			}
		}
		if q := knng.Quality(g, b.exact, b.raw); q < 0.8 {
			t.Fatalf("run %d: quality %.3f collapsed under concurrency", run, q)
		}
	}
	// MinHash clustering exercises the singleton-skip emission path.
	mh := Options{K: 10, T: 6, UseMinHash: true, Workers: 8, Seed: 31}
	if g, _ := Build(b.data, b.gf, mh); g.NumUsers() != b.data.NumUsers() {
		t.Fatal("minhash concurrent build lost users")
	}
}
