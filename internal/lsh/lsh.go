// Package lsh implements the Locality-Sensitive-Hashing baseline of the
// paper (§IV-B3): each user is hashed into one bucket per MinHash
// function, and her neighbors are selected among users sharing a bucket.
// Following the paper's implementation choice, each hash function creates
// its own buckets ("rather than having one bucket per item"), local KNN
// lists are computed per bucket, and the per-bucket results are merged —
// the same merge machinery C² uses.
package lsh

import (
	"sort"

	"c2knn/internal/bruteforce"
	"c2knn/internal/dataset"
	"c2knn/internal/knng"
	"c2knn/internal/minhash"
	"c2knn/internal/schedule"
	"c2knn/internal/similarity"
)

// Options parameterizes an LSH run. Zero fields take the paper's
// defaults.
type Options struct {
	// K is the neighborhood size (default 30; K < 0 is treated as 0).
	K int
	// T is the number of MinHash functions (default 10, §IV-C).
	T int
	// Workers sizes the bucket-processing pool (default 1).
	Workers int
	// Seed selects the MinHash family.
	Seed int64
}

func (o *Options) setDefaults() {
	if o.K <= 0 {
		o.K = 30
	}
	if o.T == 0 {
		o.T = 10
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
}

// Stats describes an LSH run.
type Stats struct {
	// Buckets is the number of non-trivial buckets (≥ 2 users) processed.
	Buckets int
	// MaxBucket is the largest bucket size — LSH's known weakness on
	// skewed datasets, the cost the paper's Table II exposes.
	MaxBucket int
	// Singletons counts users that ended alone in a bucket for some
	// function (the fragmentation effect of large item universes).
	Singletons int
}

// Build computes an approximate KNN graph of d using similarity provider
// p (typically GoldFinger estimates, as in the paper's setup where "all
// competitors use the GoldFinger compact datastructure").
func Build(d *dataset.Dataset, p similarity.Provider, o Options) (*knng.Graph, Stats) {
	o.setDefaults()
	n := d.NumUsers()
	g := knng.New(n, o.K)
	fam := minhash.New(o.T, o.Seed)

	var buckets [][]int32
	var stats Stats
	for fn := 0; fn < o.T; fn++ {
		byHash := make(map[uint32][]int32, n/2)
		for u := 0; u < n; u++ {
			v, ok := fam.Value(fn, d.Profiles[u])
			if !ok {
				continue
			}
			byHash[v] = append(byHash[v], int32(u))
		}
		// Visit buckets in sorted key order for run-to-run determinism.
		keys := make([]uint32, 0, len(byHash))
		for k := range byHash {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			users := byHash[k]
			if len(users) < 2 {
				stats.Singletons += len(users)
				continue
			}
			buckets = append(buckets, users)
			if len(users) > stats.MaxBucket {
				stats.MaxBucket = len(users)
			}
		}
	}
	stats.Buckets = len(buckets)

	shared := knng.NewShared(g)
	sizes := make([]int, len(buckets))
	for i := range buckets {
		sizes[i] = len(buckets[i])
	}
	// Per-worker scratch: buckets are gathered once into a cluster-local
	// similarity kernel and solved with reusable buffers, so steady-state
	// bucket processing allocates nothing.
	type workerScratch struct {
		loc similarity.Local
		bf  bruteforce.Scratch
	}
	scratches := make([]workerScratch, o.Workers)
	order := schedule.LargestFirst(sizes)
	schedule.Run(o.Workers, len(order), func(worker, i int) {
		ids := buckets[order[i]]
		ws := &scratches[worker]
		similarity.GatherInto(p, ids, &ws.loc)
		lists := bruteforce.LocalInto(&ws.loc, o.K, &ws.bf, nil)
		for i := range lists {
			shared.MergeUser(ids[i], lists[i].H)
		}
	})
	return g, stats
}
