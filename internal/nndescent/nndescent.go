// Package nndescent implements NN-Descent (Dong, Moses, Li — WWW 2011;
// Bratić et al., WIMS 2018), the second greedy competitor of the paper
// (§IV-B2). Where Hyrec compares u against its neighbors-of-neighbors,
// NN-Descent compares all pairs (u_i, u_j) among u's neighbors and updates
// both. This implementation includes the standard refinements of the
// original algorithm: reverse neighbors and new/old flags, so converged
// regions stop generating candidate pairs.
package nndescent

import (
	"math/rand"
	"sync/atomic"

	"c2knn/internal/knng"
	"c2knn/internal/schedule"
	"c2knn/internal/similarity"
)

// Options parameterizes an NN-Descent run. Zero fields take the paper's
// defaults.
type Options struct {
	// K is the neighborhood size (default 30; K < 0 is treated as 0).
	K int
	// Delta is the termination threshold: stop when an iteration performs
	// fewer than Delta·K·n updates (default 0.001).
	Delta float64
	// MaxIter caps the number of iterations (default 30).
	MaxIter int
	// SampleK caps how many reverse neighbors are considered per user and
	// iteration (default K; the original paper's ρ·K with ρ=1).
	SampleK int
	// Workers sizes the worker pool (default 1; below 1 means 1).
	Workers int
	// Seed drives the random initial graph and reverse sampling.
	Seed int64
}

func (o *Options) setDefaults() {
	if o.K <= 0 {
		o.K = 30
	}
	if o.Delta == 0 {
		o.Delta = 0.001
	}
	if o.MaxIter == 0 {
		o.MaxIter = 30
	}
	if o.SampleK == 0 {
		o.SampleK = o.K
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
}

// Result reports how a run unfolded.
type Result struct {
	Iterations int
	Updates    []int
	Converged  bool
}

// Build constructs an approximate KNN graph over users 0..n-1.
func Build(n int, p similarity.Provider, o Options) (*knng.Graph, Result) {
	o.setDefaults()
	g := knng.New(n, o.K)
	knng.RandomInit(g, p, o.Seed)
	res := refine(g, p, o)
	return g, res
}

func refine(g *knng.Graph, p similarity.Provider, o Options) Result {
	n := g.NumUsers()
	res := Result{}
	if n < 2 {
		return res
	}
	threshold := int64(o.Delta * float64(o.K) * float64(n))
	shared := knng.NewShared(g)
	rng := rand.New(rand.NewSource(o.Seed + 1))

	newFwd := make([][]int32, n) // fresh forward neighbors
	oldFwd := make([][]int32, n) // settled forward neighbors
	newRev := make([][]int32, n) // fresh reverse neighbors (sampled)
	oldRev := make([][]int32, n) // settled reverse neighbors (sampled)
	// Per-worker scratch for a user's deduplicated candidate sets.
	newSets, oldSets := make([][]int32, o.Workers), make([][]int32, o.Workers)

	for iter := 0; iter < o.MaxIter; iter++ {
		for u := 0; u < n; u++ {
			newRev[u] = newRev[u][:0]
			oldRev[u] = oldRev[u][:0]
		}
		for u := 0; u < n; u++ {
			l := &g.Lists[u]
			newFwd[u] = l.ResetNew(newFwd[u][:0])
			oldFwd[u] = oldFwd[u][:0]
			for i := range l.H {
				if !contains(newFwd[u], l.H[i].ID) {
					oldFwd[u] = append(oldFwd[u], l.H[i].ID)
				}
			}
		}
		// Build sampled reverse lists from the snapshots.
		for u := 0; u < n; u++ {
			for _, v := range newFwd[u] {
				newRev[v] = reservoirAppend(newRev[v], int32(u), o.SampleK, rng)
			}
			for _, v := range oldFwd[u] {
				oldRev[v] = reservoirAppend(oldRev[v], int32(u), o.SampleK, rng)
			}
		}
		var updates atomic.Int64
		schedule.Run(o.Workers, n, func(w, u int) {
			newSet := dedupUnion(newSets[w][:0], newFwd[u], newRev[u])
			oldSet := dedupUnion(oldSets[w][:0], oldFwd[u], oldRev[u])
			newSets[w], oldSets[w] = newSet, oldSet
			// new × new pairs.
			for i := 0; i < len(newSet); i++ {
				for j := i + 1; j < len(newSet); j++ {
					updates.Add(compare(shared, p, newFwd, oldFwd, newSet[i], newSet[j]))
				}
			}
			// new × old pairs.
			for _, a := range newSet {
				for _, b := range oldSet {
					if a == b {
						continue
					}
					updates.Add(compare(shared, p, newFwd, oldFwd, a, b))
				}
			}
		})
		res.Iterations++
		u := int(updates.Load())
		res.Updates = append(res.Updates, u)
		if int64(u) < threshold {
			res.Converged = true
			break
		}
	}
	return res
}

// compare evaluates sim(a, b) once and offers it to both endpoints,
// returning the number of neighborhoods that changed. The already-linked
// pre-check reads the per-iteration snapshots (immutable while workers
// run) rather than the live lists, so it is race-free; Insert re-checks
// membership under the stripe lock.
func compare(shared *knng.Shared, p similarity.Provider, newFwd, oldFwd [][]int32, a, b int32) int64 {
	if (contains(newFwd[a], b) || contains(oldFwd[a], b)) &&
		(contains(newFwd[b], a) || contains(oldFwd[b], a)) {
		return 0
	}
	s := p.Sim(a, b)
	var upd int64
	if shared.Insert(a, b, s) {
		upd++
	}
	if shared.Insert(b, a, s) {
		upd++
	}
	return upd
}

// reservoirAppend keeps at most cap elements using reservoir sampling so
// popular users do not accumulate unbounded reverse lists.
func reservoirAppend(dst []int32, v int32, capN int, rng *rand.Rand) []int32 {
	if len(dst) < capN {
		return append(dst, v)
	}
	if j := rng.Intn(len(dst) + 1); j < capN {
		dst[j] = v
	}
	return dst
}

func contains(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// dedupUnion appends the union of a and b (deduplicated, order arbitrary)
// to dst.
func dedupUnion(dst, a, b []int32) []int32 {
	dst = append(dst, a...)
	for _, v := range b {
		if !contains(dst, v) {
			dst = append(dst, v)
		}
	}
	return dst
}
