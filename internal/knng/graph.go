package knng

import (
	"math/rand"
	"sync"

	"c2knn/internal/similarity"
)

// Graph is a directed KNN graph: one bounded best-k List per user.
type Graph struct {
	K     int
	Lists []List
}

// New returns an empty graph over n users with neighborhoods of size k.
func New(n, k int) *Graph {
	g := &Graph{K: k, Lists: make([]List, n)}
	for i := range g.Lists {
		g.Lists[i].K = k
	}
	return g
}

// NumUsers returns the number of users the graph is defined over.
func (g *Graph) NumUsers() int { return len(g.Lists) }

// Insert offers the directed edge (u → v, sim) and reports whether u's
// neighborhood changed. Self edges are ignored.
func (g *Graph) Insert(u, v int32, sim float64) bool {
	if u == v {
		return false
	}
	return g.Lists[u].Insert(v, sim)
}

// Neighbors returns u's current neighbors sorted by decreasing
// similarity, ties by ascending id (the same canonical order Freeze
// uses). The result is freshly allocated — this is the build-time
// inspection path; serving hot paths should Freeze the graph and read
// through Frozen.Neighbors, which is a zero-allocation view.
func (g *Graph) Neighbors(u int32) []Neighbor {
	l := g.Lists[u]
	out := make([]Neighbor, len(l.H))
	copy(out, l.H)
	sortNeighbors(out)
	return out
}

// RandomInit connects every user to k distinct random peers, computing the
// corresponding similarities with p. This is the random starting
// configuration of the greedy algorithms (§II-B); the paper's C²
// contribution is precisely about replacing it with a cluster-aware one.
func RandomInit(g *Graph, p similarity.Provider, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	FillRandom(g.Lists, rng, func(u, v int) float64 { return p.Sim(int32(u), int32(v)) })
}

// FillRandom connects every list to up to its K random distinct peers
// with similarities from sim over indices [0, len(lists)) — the shared
// random start of RandomInit and the local solvers' in-cluster
// initialization (which runs it over local kernel indices; for a given
// rng state both produce the same draw sequence).
//
// An insert that passes the self/duplicate guards can only fail because
// sim returned a degenerate (NaN or negative) value, which List.Insert
// rejects; those failures are bounded so a misbehaving similarity
// source degrades to partially filled lists instead of spinning the
// fill loop forever. Well-behaved sources never trip the bound, keeping
// the draw sequence unchanged.
func FillRandom(lists []List, rng *rand.Rand, sim func(u, v int) float64) {
	n := len(lists)
	for u := range lists {
		rejects := 0
		for lists[u].Len() < lists[u].K && lists[u].Len() < n-1 && rejects < n+lists[u].K {
			v := rng.Intn(n)
			if v == u || lists[u].Contains(int32(v)) {
				continue
			}
			if !lists[u].Insert(int32(v), sim(u, v)) {
				rejects++
			}
		}
	}
}

// AvgSim recomputes every stored edge's similarity with p and returns the
// average over k×n edge slots (Eq. 1 of the paper: absent edges count as
// zero). Passing the exact raw-profile metric here yields the paper's
// quality numerator even for graphs built on GoldFinger estimates.
func (g *Graph) AvgSim(p similarity.Provider) float64 {
	if g.NumUsers() == 0 || g.K == 0 {
		return 0
	}
	total := 0.0
	for u := range g.Lists {
		for _, nb := range g.Lists[u].H {
			total += p.Sim(int32(u), nb.ID)
		}
	}
	return total / float64(g.K*g.NumUsers())
}

// AvgStoredSim averages the similarities recorded on the edges themselves
// (whatever metric built the graph), again over k×n slots.
func (g *Graph) AvgStoredSim() float64 {
	if g.NumUsers() == 0 || g.K == 0 {
		return 0
	}
	total := 0.0
	for u := range g.Lists {
		total += g.Lists[u].SumSim()
	}
	return total / float64(g.K*g.NumUsers())
}

// Quality returns avg_sim(approx)/avg_sim(exact), both recomputed with p
// (Eq. 2 of the paper). A value close to 1 means the approximate graph can
// stand in for the exact one.
func Quality(approx, exact *Graph, p similarity.Provider) float64 {
	denom := exact.AvgSim(p)
	if denom == 0 {
		return 0
	}
	return approx.AvgSim(p) / denom
}

// Recall returns the average fraction of exact KNN edges recovered by
// approx — a stricter metric than Quality, reported as a supplementary
// diagnostic by the harness.
func Recall(approx, exact *Graph) float64 {
	if approx.NumUsers() == 0 {
		return 0
	}
	total := 0.0
	counted := 0
	for u := range exact.Lists {
		el := &exact.Lists[u]
		if el.Len() == 0 {
			continue
		}
		hits := 0
		for _, nb := range el.H {
			if approx.Lists[u].Contains(nb.ID) {
				hits++
			}
		}
		total += float64(hits) / float64(el.Len())
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// Shared wraps a Graph with striped per-user locking so independent
// workers can merge partial results concurrently (C² step 3: merging is
// "performed at the granularity of individual users").
type Shared struct {
	g  *Graph
	mu []sync.Mutex
}

// NewShared wraps g. The stripe count bounds contention; 256 stripes keep
// the memory cost negligible while making collisions rare for the worker
// counts involved.
func NewShared(g *Graph) *Shared {
	return &Shared{g: g, mu: make([]sync.Mutex, 256)}
}

// Insert offers (u → v, sim) under u's stripe lock.
func (s *Shared) Insert(u, v int32, sim float64) bool {
	m := &s.mu[int(u)&(len(s.mu)-1)]
	m.Lock()
	ok := s.g.Insert(u, v, sim)
	m.Unlock()
	return ok
}

// InsertRun offers the directed edges (u → v0+x, sims[x]) for every x
// under a single acquisition of u's stripe lock — the row-batched
// insert of the exact brute-force baseline, which scores user u against
// a contiguous id run and previously paid one lock round-trip per pair.
// Insertion order within the run matches the equivalent per-pair loop,
// so tie-breaking among equal similarities is unchanged.
func (s *Shared) InsertRun(u, v0 int32, sims []float64) {
	m := &s.mu[int(u)&(len(s.mu)-1)]
	m.Lock()
	l := &s.g.Lists[u]
	for x, sim := range sims {
		// WouldAccept pre-gate: skip the insert call outright for sims
		// that cannot change the list (Insert would reject them with
		// the same comparison, but only after a call and a self-check).
		if l.WouldAccept(sim) {
			s.g.Insert(u, v0+int32(x), sim)
		}
	}
	m.Unlock()
}

// Floor returns u's List.Min() read under u's stripe lock: the
// similarity a candidate must strictly beat to enter u's list now. A
// full list's minimum never falls, so a candidate at or below the floor
// is rejected by every later MergeUser or Insert as well — the property
// C² uses to seed its cluster solves (see core.Build).
func (s *Shared) Floor(u int32) float64 {
	m := &s.mu[int(u)&(len(s.mu)-1)]
	m.Lock()
	f := s.g.Lists[u].Min()
	m.Unlock()
	return f
}

// MergeUser folds a batch of candidate neighbors into u's list under one
// lock acquisition, reusing the similarities already computed by the
// partial graphs (the paper is "careful to reuse similarity values").
func (s *Shared) MergeUser(u int32, neigh []Neighbor) {
	m := &s.mu[int(u)&(len(s.mu)-1)]
	m.Lock()
	l := &s.g.Lists[u]
	for _, nb := range neigh {
		// WouldAccept pre-gate, as in InsertRun: once a user's global
		// list has warmed past a cluster's partial sims, the whole
		// batch merges with one comparison per neighbor.
		if l.WouldAccept(nb.Sim) {
			s.g.Insert(u, nb.ID, nb.Sim)
		}
	}
	m.Unlock()
}

// Graph returns the underlying graph; callers must ensure all concurrent
// merging has completed.
func (s *Shared) Graph() *Graph { return s.g }
