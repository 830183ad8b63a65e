// Package core implements Cluster-and-Conquer (C²), the paper's primary
// contribution (§II). C² computes an approximate KNN graph in three
// steps:
//
//  1. Clustering — FastRandomHash partitions users into t×b clusters
//     (recursively split above MaxClusterSize), giving the computation a
//     high initial graph locality instead of the greedy algorithms'
//     random start.
//  2. Scheduling and local KNN — clusters are processed largest-first by
//     a worker pool; each cluster's partial KNN graph is computed in
//     isolation, by brute force when |C| < ρ·k² and by Hyrec otherwise
//     (Algorithm 2).
//  3. Merging — partial graphs are folded user-by-user into bounded
//     k-heaps, reusing the similarities already computed (Algorithm 3).
//
// Steps 2 and 3 share state: a brute-forced cluster starts each
// member's local list at the member's current global k-th similarity
// (its floor), because the merge rejects anything at or below it. This
// skips most of the local heap work once the global lists have warmed
// up and leaves every user's final similarities unchanged (the argument
// is in Build).
//
// The three steps are pipelined: the t clustering configurations run
// concurrently and stream finalized clusters into a size-prioritized
// queue (schedule.Queue) consumed by the solver pool, so the first
// clusters are being solved and merged while later configurations are
// still hashing — the overlap the paper's cost model (§II-F) assumes.
// Options.DisablePipeline restores the historical barrier behaviour
// (cluster everything serially, then solve), kept as the baseline of
// the pipeline equivalence tests and overlap benchmarks. The contract
// between the two paths, and between runs with different worker
// counts or scheduling, is the same cluster set and identical per-user
// sorted similarities; ids among equal similarities may differ.
//
// The package also exposes the ablations evaluated by the paper and by
// this repository's benchmarks: MinHash clustering in place of
// FastRandomHash (Table IV), splitting disabled, FIFO scheduling, and
// forced local solvers.
package core

import (
	"fmt"
	"sync"
	"time"

	"c2knn/internal/bruteforce"
	"c2knn/internal/dataset"
	"c2knn/internal/frh"
	"c2knn/internal/hyrec"
	"c2knn/internal/knng"
	"c2knn/internal/minhash"
	"c2knn/internal/schedule"
	"c2knn/internal/similarity"
)

// LocalSolver selects how each cluster's partial KNN graph is computed.
type LocalSolver int

const (
	// SolverHybrid applies the paper's rule: brute force when
	// |C| < ρ·k², Hyrec otherwise (Algorithm 2).
	SolverHybrid LocalSolver = iota
	// SolverBruteForce always brute-forces clusters (ablation).
	SolverBruteForce
	// SolverHyrec always runs Hyrec on clusters of more than k+1 users
	// (ablation).
	SolverHyrec
)

// String implements fmt.Stringer.
func (s LocalSolver) String() string {
	switch s {
	case SolverHybrid:
		return "hybrid"
	case SolverBruteForce:
		return "bruteforce"
	case SolverHyrec:
		return "hyrec"
	}
	return fmt.Sprintf("LocalSolver(%d)", int(s))
}

// Scheduling selects the order clusters are fed to the worker pool.
type Scheduling int

const (
	// ScheduleLargestFirst is the paper's decreasing-size priority
	// queue. Under the pipeline it applies to the clusters available at
	// pop time; with the pipeline disabled every cluster is available
	// and the order is the paper's global one.
	ScheduleLargestFirst Scheduling = iota
	// ScheduleFIFO processes clusters in production order (ablation).
	ScheduleFIFO
)

// String implements fmt.Stringer.
func (s Scheduling) String() string {
	if s == ScheduleFIFO {
		return "fifo"
	}
	return "largest-first"
}

// Options parameterizes a C² run. The zero value (after defaulting) is
// the paper's configuration: k=30, b=4096, t=8, N=2000, ρ=5, hybrid local
// solver, largest-first scheduling, recursive splitting on, pipelined
// clustering.
type Options struct {
	// K is the neighborhood size (default 30; K < 0 is treated as 0).
	K int
	// B is the number of clusters per hash function (default 4096).
	B int
	// T is the number of hash functions (default 8).
	T int
	// MaxClusterSize is the recursive-splitting threshold N
	// (default 2000). Ignored when DisableSplitting or UseMinHash is set.
	MaxClusterSize int
	// Rho is the ρ of the brute-force/Hyrec switch: brute force is chosen
	// when |C| < ρ·k² (default 5). It also caps the local Hyrec
	// iteration count, matching the cost model of §II-F.
	Rho int
	// Delta is the local Hyrec termination threshold (default 0.001).
	Delta float64
	// Workers sizes the cluster-processing pool (default 1).
	Workers int
	// Seed drives the hash family and local Hyrec initializations.
	Seed int64
	// DisableSplitting turns recursive splitting off (ablation).
	DisableSplitting bool
	// DisablePipeline restores the pre-pipeline barrier: every cluster
	// is materialized, serially, before the first worker starts
	// solving. For a fixed Seed the cluster set and every user's sorted
	// neighbor similarities are identical with and without the
	// pipeline; a cluster's local solution depends on the global
	// floors at the time it is solved, so which ids stand among
	// equal-similarity neighbors can differ.
	DisablePipeline bool
	// Scheduling selects the cluster processing order.
	Scheduling Scheduling
	// LocalSolver selects the per-cluster algorithm.
	LocalSolver LocalSolver
	// UseMinHash replaces FastRandomHash with classic MinHash functions
	// (one bucket per distinct min-hash value, no splitting) — the
	// C²/MinHash variant of Table IV.
	UseMinHash bool
}

func (o *Options) setDefaults() {
	if o.K <= 0 {
		o.K = 30
	}
	if o.B == 0 {
		o.B = frh.DefaultB
	}
	if o.T == 0 {
		o.T = frh.DefaultT
	}
	if o.MaxClusterSize == 0 {
		o.MaxClusterSize = frh.DefaultMaxSize
	}
	if o.Rho == 0 {
		o.Rho = 5
	}
	if o.Delta == 0 {
		o.Delta = 0.001
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
}

// Stats reports how a C² run unfolded, including the per-phase timings
// and clustering/solving overlap the paper's performance analysis
// (§II-F) rests on.
type Stats struct {
	// Clusters is the number of clusters produced by step 1.
	Clusters int
	// Splits counts recursive split operations.
	Splits int
	// MaxCluster is the largest produced cluster.
	MaxCluster int
	// BruteForced and Hyreced count solved clusters per local solver;
	// Skipped counts clusters of fewer than two users, which have no
	// pairs to evaluate. BruteForced + Hyreced + Skipped == Clusters.
	BruteForced int
	Hyreced     int
	Skipped     int
	// ClusterTime is the wall-clock duration of step 1 (first hash to
	// last emitted cluster). KNNTime is the wall-clock duration of
	// steps 2+3, measured from the first cluster a worker actually
	// popped — not from pool start, so time the pool spent blocked
	// waiting for the first cluster is excluded — to the last merge
	// (local KNN and merging overlap by design: each worker merges the
	// cluster it just solved).
	ClusterTime time.Duration
	KNNTime     time.Duration
	// TotalTime is the end-to-end wall-clock time of Build.
	TotalTime time.Duration
	// OverlapTime is how long clustering and solving were in progress
	// simultaneously: from the first solved cluster to the last emitted
	// one, clamped at zero — the serial latency the pipeline recovered.
	// Zero when DisablePipeline is set (solving starts after the last
	// emission by construction).
	OverlapTime time.Duration
	// MaxQueueDepth is the high-water mark of clusters waiting in the
	// pipeline queue — how far production ran ahead of the solver pool.
	// With DisablePipeline set it equals Clusters.
	MaxQueueDepth int
	// Pipelined records whether the streaming pipeline was used.
	Pipelined bool
}

// clusterJob is one unit of step-2 work: a finalized cluster plus the
// seed of its local solve. The seed derives from the cluster's
// configuration and per-configuration emission rank — both stable for a
// fixed Options.Seed regardless of worker count or pipeline
// interleaving — so the cluster set and every Hyrec-solved cluster's
// solution are identical between the pipelined and barrier paths.
// Brute-forced clusters start from the global floors of the moment they
// are popped, so their local lists can differ between runs; the per-row
// similarities they leave after the merge cannot (see Build).
type clusterJob struct {
	users []int32
	seed  int64
}

// jobSeed derives the local-solver seed of the seq-th cluster emitted
// by configuration fn. Configurations are spaced 2³² apart, far beyond
// any per-configuration cluster count.
func jobSeed(seed int64, fn int, seq int64) int64 {
	return seed + int64(fn+1)<<32 + seq
}

// Build computes the approximate KNN graph of d under options o, using p
// for all similarity evaluations (GoldFinger estimates in the paper's
// default setup, exact Jaccard for the Table V "raw data" variant).
func Build(d *dataset.Dataset, p similarity.Provider, o Options) (*knng.Graph, Stats) {
	o.setDefaults()
	var stats Stats
	stats.Pipelined = !o.DisablePipeline
	start := time.Now()

	q := schedule.NewQueue[clusterJob](o.Scheduling == ScheduleFIFO)
	// seqs[fn] is only ever touched by configuration fn's producer
	// goroutine, so per-element access is race-free.
	seqs := make([]int64, o.T)
	emit := func(c frh.Cluster) {
		seed := jobSeed(o.Seed, c.Fn, seqs[c.Fn])
		seqs[c.Fn]++
		q.Push(clusterJob{users: c.Users, seed: seed}, len(c.Users))
	}

	var clusterStats frh.Stats
	var clusterEnd time.Time
	produce := func() {
		if o.UseMinHash {
			clusterStats = minhashProduce(d, o, emit)
		} else {
			fo := frh.Options{B: o.B, T: o.T, MaxSize: o.MaxClusterSize, Seed: o.Seed}
			if o.DisableSplitting {
				fo.MaxSize = -1
			}
			if o.DisablePipeline {
				fo.Parallelism = 1 // the historical serial step 1
			}
			clusterStats = frh.Stream(d, fo, emit)
		}
		clusterEnd = time.Now()
		q.Close()
	}

	g := knng.New(d.NumUsers(), o.K)
	shared := knng.NewShared(g)
	// Each worker owns a scratch bundle — the gathered cluster-local
	// similarity kernel plus the local solvers' reusable buffers, so
	// steady-state cluster processing allocates nothing — and private
	// counters aggregated after the pool drains.
	workers := make([]workerState, o.Workers)
	// solveStart marks the first cluster a worker actually popped; the
	// Once write is read by the main goroutine only after the pool's
	// WaitGroup, so no further synchronization is needed.
	var solveOnce sync.Once
	var solveStart time.Time
	consume := func(worker int) {
		ws := &workers[worker]
		for {
			job, ok := q.Pop()
			if !ok {
				return
			}
			solveOnce.Do(func() { solveStart = time.Now() })
			if len(job.users) < 2 {
				ws.skipped++
				continue
			}
			similarity.GatherInto(p, job.users, &ws.loc)
			var lists []knng.List
			if useHyrec(o, len(job.users)) {
				ws.hyreced++
				lists = hyrec.LocalInto(&ws.loc, o.K, hyrec.Options{
					Delta:   o.Delta,
					MaxIter: o.Rho,
					Seed:    job.seed,
				}, &ws.hy)
			} else {
				ws.bruteForced++
				// Global floors: seed each member's local gate with
				// its current global threshold, so the solve keeps
				// only candidates the merge could still accept. Let T
				// be a row's final k-th similarity without floors, and
				// t_c a cluster's own k-th candidate value.
				//  - A floor f_c is a past global minimum (or -1), and
				//    the minimum only rises: the merge's strict
				//    sim > min would reject whatever f_c cuts.
				//  - t_c ≤ T (k distinct candidates above T would all
				//    reach the row), and f_c ≤ T (floored candidates
				//    are a subset, so the floored row's minimum cannot
				//    pass T). So every candidate above T survives its
				//    cluster's floored solve: the row holds the same
				//    values above T.
				//  - The rest of the row is T-valued. If some f_c = T,
				//    the row was already full at T when it was read.
				//    Otherwise every T-valued candidate clears the
				//    floor; a cluster with t_c = T keeps at least
				//    k − #(row values above T) of them, and a cluster
				//    with t_c < T keeps them all.
				// Hence each row's similarity multiset is unchanged;
				// only which ids stand among equal similarities can
				// differ, as merge order already lets them.
				ws.floors = similarity.GrowRow(ws.floors, len(job.users))
				for i, u := range job.users {
					ws.floors[i] = shared.Floor(u)
				}
				lists = bruteforce.LocalInto(&ws.loc, o.K, &ws.bf, ws.floors)
			}
			for i := range lists {
				shared.MergeUser(job.users[i], lists[i].H)
			}
		}
	}

	if o.DisablePipeline {
		// Barrier: step 1 completes (and the queue holds every cluster,
		// so largest-first is global) before the pool starts.
		produce()
		runPool(o.Workers, consume)
	} else {
		var producerWG sync.WaitGroup
		producerWG.Add(1)
		go func() {
			defer producerWG.Done()
			produce()
		}()
		runPool(o.Workers, consume)
		producerWG.Wait()
	}
	end := time.Now()

	stats.Clusters = clusterStats.Clusters
	stats.Splits = clusterStats.Splits
	stats.MaxCluster = clusterStats.MaxCluster
	for i := range workers {
		stats.BruteForced += workers[i].bruteForced
		stats.Hyreced += workers[i].hyreced
		stats.Skipped += workers[i].skipped
	}
	stats.ClusterTime = clusterEnd.Sub(start)
	stats.TotalTime = end.Sub(start)
	if !solveStart.IsZero() {
		stats.KNNTime = end.Sub(solveStart)
		// Solving started before the last cluster was emitted ⇒ the two
		// phases genuinely ran concurrently for the difference. Under
		// the barrier solveStart follows clusterEnd, clamping to zero.
		if overlap := clusterEnd.Sub(solveStart); overlap > 0 {
			stats.OverlapTime = overlap
		}
	}
	stats.MaxQueueDepth = q.MaxDepth()
	return g, stats
}

// workerState is one worker's reusable state: the gathered similarity
// kernel, both local solvers' scratch buffers (each carrying the scored
// similarity row of its blocked sweep alongside the neighbor lists),
// and private counters.
type workerState struct {
	loc similarity.Local
	bf  bruteforce.Scratch
	hy  hyrec.Scratch
	// floors holds the popped cluster's members' global thresholds
	// (knng.Shared.Floor), parallel to the cluster's users.
	floors []float64

	bruteForced int
	hyreced     int
	skipped     int
}

// runPool runs consume(worker) on `workers` goroutines and returns when
// all have drained the queue.
func runPool(workers int, consume func(worker int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			consume(worker)
		}(w)
	}
	wg.Wait()
}

// useHyrec applies Algorithm 2's switch rule under the configured solver
// policy. Tiny clusters (≤ k+1 users) are always brute-forced: Hyrec's
// random initialization already connects everyone to everyone there.
func useHyrec(o Options, size int) bool {
	if size <= o.K+1 {
		return false
	}
	switch o.LocalSolver {
	case SolverBruteForce:
		return false
	case SolverHyrec:
		return true
	default:
		return size >= o.Rho*o.K*o.K
	}
}

// minhashProduce emits the clusters of the C²/MinHash ablation (§V-C):
// users bucketed by t MinHash functions, one bucket set per function,
// without splitting. Each configuration emits its buckets in increasing
// hash order (minhash.Buckets) through the same fan-out frh's producers
// use: concurrent configurations in pipeline mode, the historical
// serial loop under DisablePipeline.
func minhashProduce(d *dataset.Dataset, o Options, emit func(frh.Cluster)) frh.Stats {
	fam := minhash.New(o.T, o.Seed)
	parallelism := 0
	if o.DisablePipeline {
		parallelism = 1
	}
	return frh.MergeStats(frh.ForEachFn(o.T, parallelism, func(fn int) frh.Stats {
		var s frh.Stats
		for _, b := range fam.Buckets(fn, d.Profiles) {
			s.Clusters++
			if len(b.Users) > s.MaxCluster {
				s.MaxCluster = len(b.Users)
			}
			emit(frh.Cluster{Fn: fn, Index: b.Value, Users: b.Users})
		}
		return s
	}))
}
