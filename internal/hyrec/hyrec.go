// Package hyrec implements Hyrec (Boutet et al., Middleware 2014), the
// state-of-the-art greedy KNN-graph algorithm the paper uses both as a
// standalone competitor and as Cluster-and-Conquer's local solver for
// large clusters. Starting from a random k-degree graph, each iteration
// compares every user u against its neighbors-of-neighbors and keeps the k
// best; iteration stops when fewer than δ·k·n updates occur or after a
// fixed number of iterations (§IV-B2).
package hyrec

import (
	"math/rand"
	"sync/atomic"

	"c2knn/internal/knng"
	"c2knn/internal/schedule"
	"c2knn/internal/similarity"
)

// Options parameterizes a Hyrec run. Zero fields take the paper's
// defaults.
type Options struct {
	// K is the neighborhood size (default 30; K < 0 is treated as 0).
	K int
	// Delta is the termination threshold: stop when an iteration performs
	// fewer than Delta·K·n updates (default 0.001).
	Delta float64
	// MaxIter caps the number of iterations (default 30, §IV-C).
	MaxIter int
	// Workers sizes the worker pool (default 1).
	Workers int
	// Seed drives the random initial graph.
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
	if o.Workers < 1 {
		o.Workers = 1
	}
}

// Result reports how a run unfolded.
type Result struct {
	// Iterations is the number of refinement passes executed.
	Iterations int
	// Updates records the number of neighborhood changes per iteration.
	Updates []int
	// Converged is true when the run stopped on the δ·k·n criterion
	// rather than on MaxIter.
	Converged bool
}

// Build constructs an approximate KNN graph over users 0..n-1.
func Build(n int, p similarity.Provider, o Options) (*knng.Graph, Result) {
	o.setDefaults()
	g := knng.New(n, o.K)
	knng.RandomInit(g, p, o.Seed)
	res := refine(g, p, o)
	return g, res
}

// denseSet deduplicates candidate ids over a dense 0..n-1 universe
// using epoch stamps: mark[v] == epoch means v is already present this
// round, so begin resets the set in O(1). It replaces the per-user
// map[int32]struct{} of earlier versions; unlike map iteration, cand
// preserves insertion order, making candidate generation deterministic.
type denseSet struct {
	mark  []uint32
	epoch uint32
	cand  []int32
}

// resize prepares the set for a universe of n members, reusing prior
// storage when possible.
func (d *denseSet) resize(n int) {
	if cap(d.mark) < n {
		d.mark = make([]uint32, n)
		d.epoch = 0
	} else {
		d.mark = d.mark[:n]
	}
}

// begin starts a new round, discarding the previous round's members.
func (d *denseSet) begin() {
	d.epoch++
	if d.epoch == 0 { // wrapped: all stamps are stale
		// Clear the full capacity: slots beyond the current universe
		// may hold pre-wrap stamps a later resize would re-expose.
		clear(d.mark[:cap(d.mark)])
		d.epoch = 1
	}
	d.cand = d.cand[:0]
}

// stamp marks v as present without collecting it as a candidate.
func (d *denseSet) stamp(v int32) { d.mark[v] = d.epoch }

// add collects v unless already present.
func (d *denseSet) add(v int32) {
	if d.mark[v] != d.epoch {
		d.mark[v] = d.epoch
		d.cand = append(d.cand, v)
	}
}

// collectCandidates stamps u's current neighborhood and gathers u's
// neighbors-of-neighbors into ds.cand: through a fresh u→v edge all of
// v's neighbors qualify, through a stale edge only v's fresh neighbors
// do (the new-flag optimization). The caller must have called ds.begin
// and stamped u itself.
func collectCandidates(ds *denseSet, allSnap, newSnap [][]int32, u int) {
	for _, v := range allSnap[u] {
		ds.stamp(v)
	}
	for _, v := range newSnap[u] {
		for _, w2 := range allSnap[v] {
			ds.add(w2)
		}
	}
	for _, v := range allSnap[u] {
		for _, w2 := range newSnap[v] {
			ds.add(w2)
		}
	}
}

// refine is the core loop shared by Build and Local. It uses the standard
// new-flag optimization: a pair (u, w) reached through v is evaluated only
// if the edge u→v or the edge v→w appeared during the previous iteration,
// so converged regions stop paying for candidate generation.
func refine(g *knng.Graph, p similarity.Provider, o Options) Result {
	n := g.NumUsers()
	res := Result{}
	if n < 2 {
		return res
	}
	threshold := int64(o.Delta * float64(o.K) * float64(n))
	shared := knng.NewShared(g)
	allSnap := make([][]int32, n)
	newSnap := make([][]int32, n)
	// One dense candidate set per worker; the sets persist across
	// iterations, so the O(n) zeroing is paid once per run, not per
	// iteration.
	sets := make([]denseSet, o.Workers)
	for w := range sets {
		sets[w].resize(n)
	}
	for iter := 0; iter < o.MaxIter; iter++ {
		// Snapshot neighborhoods and consume the New flags set during the
		// previous iteration.
		for u := 0; u < n; u++ {
			allSnap[u] = g.Lists[u].IDs(allSnap[u][:0])
			newSnap[u] = g.Lists[u].ResetNew(newSnap[u][:0])
		}
		var updates atomic.Int64
		schedule.Run(o.Workers, n, func(w, u int) {
			ds := &sets[w]
			uid := int32(u)
			// Pre-stamp self and u's snapshot so they never enter the
			// candidate list; the snapshot is immutable during the
			// iteration so this read is race-free (Insert re-checks
			// under the stripe lock).
			ds.begin()
			ds.stamp(uid)
			collectCandidates(ds, allSnap, newSnap, u)
			for _, w2 := range ds.cand {
				s := p.Sim(uid, w2)
				ok1 := shared.Insert(uid, w2, s)
				ok2 := shared.Insert(w2, uid, s)
				if ok1 {
					updates.Add(1)
				}
				if ok2 {
					updates.Add(1)
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

// Scratch holds the reusable per-worker state of LocalInto: the local
// neighbor lists, the per-iteration snapshots, the epoch-stamped dense
// candidate set, the scored candidate row of the batched refinement,
// and the RNG. The zero value is ready to use; reusing one Scratch
// across clusters makes steady-state solving allocation-free.
type Scratch struct {
	lists   []knng.List
	allSnap [][]int32
	newSnap [][]int32
	set     denseSet
	row     []float64
	mins    []float64
	rng     *rand.Rand
}

// reuseRows recycles a slice of row buffers, preserving the capacity of
// previously grown rows.
func reuseRows(rows [][]int32, n int) [][]int32 {
	if cap(rows) < n {
		grown := make([][]int32, n)
		copy(grown, rows[:cap(rows)])
		return grown
	}
	return rows[:n]
}

// LocalInto runs Hyrec restricted to the gathered cluster loc: the
// candidate universe is loc's members, similarities are served by loc's
// zero-dispatch kernel on local indices, and the returned lists
// (parallel to loc.IDs()) reference global ids. The lists alias s's
// scratch and are valid only until the next LocalInto call on s. This
// is C²'s local solver for clusters at least ρ·k² strong; it is
// sequential (o.Workers is ignored) — parallelism comes from processing
// many clusters at once.
func LocalInto(loc *similarity.Local, k int, o Options, s *Scratch) []knng.List {
	return localInto(loc, k, o, s, refineLocal)
}

// LocalIntoScalar is LocalInto on the frozen pair-at-a-time refinement
// loop (refineLocalScalar) instead of the batched one. It exists for
// the blocked-vs-scalar equivalence tests and the BenchmarkLocalSolve*
// regression family; production callers use LocalInto.
func LocalIntoScalar(loc *similarity.Local, k int, o Options, s *Scratch) []knng.List {
	return localInto(loc, k, o, s, refineLocalScalar)
}

func localInto(loc *similarity.Local, k int, o Options, s *Scratch,
	refineFn func(*similarity.Local, []knng.List, Options, *Scratch)) []knng.List {
	o.K = k
	o.setDefaults()
	m := loc.Len()
	s.lists = knng.ReuseLists(s.lists, m, k)
	lists := s.lists
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(o.Seed))
	} else {
		s.rng.Seed(o.Seed)
	}
	// Random k-degree start over local indices; knng.FillRandom is the
	// same loop RandomInit runs, so a given seed yields the same draw
	// sequence, and its reject bound keeps a kernel yielding degenerate
	// sims from hanging the worker.
	knng.FillRandom(lists, s.rng, loc.Sim)
	refineFn(loc, lists, o, s)
	for i := range lists {
		h := lists[i].H
		for x := range h {
			h[x].ID = loc.ID(int(h[x].ID))
		}
	}
	return lists
}

// refineLocal is the sequential, allocation-free counterpart of refine
// for cluster-local graphs: no stripe locks, no atomics, candidates
// deduplicated through the scratch's epoch-stamped dense set. Each
// user's candidate batch is scored in one SimBatch call into the
// scratch row, then offered to both endpoints' lists behind a dense
// threshold gate: mins[v] mirrors lists[v].Min() across the whole
// refinement, so a below-threshold candidate costs one compare of two
// scratch reads instead of an Insert call chasing into the target
// list's heap. The gate is conservative-exact (mins is -1 while a list
// has room; Insert still arbitrates duplicates and degenerate sims), so
// candidate order, tie-breaking, and the per-iteration update count
// match the pair-at-a-time reference (refineLocalScalar) exactly.
func refineLocal(loc *similarity.Local, lists []knng.List, o Options, s *Scratch) {
	m := len(lists)
	if m < 2 {
		return
	}
	threshold := int64(o.Delta * float64(o.K) * float64(m))
	s.allSnap = reuseRows(s.allSnap, m)
	s.newSnap = reuseRows(s.newSnap, m)
	s.set.resize(m)
	s.mins = similarity.GrowRow(s.mins, m)
	mins := s.mins
	for u := range lists {
		mins[u] = lists[u].Min() // account for the random init's inserts
	}
	for iter := 0; iter < o.MaxIter; iter++ {
		for u := 0; u < m; u++ {
			s.allSnap[u] = lists[u].IDs(s.allSnap[u][:0])
			s.newSnap[u] = lists[u].ResetNew(s.newSnap[u][:0])
		}
		updates := int64(0)
		for u := 0; u < m; u++ {
			s.set.begin()
			s.set.stamp(int32(u))
			collectCandidates(&s.set, s.allSnap, s.newSnap, u)
			cand := s.set.cand
			if len(cand) == 0 {
				continue
			}
			s.row = similarity.GrowRow(s.row, len(cand))
			row := s.row[:len(cand)]
			loc.SimBatch(u, cand, row)
			lu := &lists[u]
			minU := mins[u]
			for x, w2 := range cand {
				sim := row[x]
				if sim > minU {
					if lu.Insert(w2, sim) {
						updates++
						minU = lu.Min()
					}
				}
				if sim > mins[w2] {
					if lists[w2].Insert(int32(u), sim) {
						updates++
						mins[w2] = lists[w2].Min()
					}
				}
			}
			mins[u] = minU
		}
		if updates < threshold {
			return
		}
	}
}

// refineLocalScalar is the frozen pair-at-a-time refinement loop: one
// Sim call and two ungated Insert calls per candidate. Kept as the
// reference the batched refineLocal is proven bit-identical to and as
// the baseline of the BenchmarkLocalSolveHyrec* regression pair.
func refineLocalScalar(loc *similarity.Local, lists []knng.List, o Options, s *Scratch) {
	m := len(lists)
	if m < 2 {
		return
	}
	threshold := int64(o.Delta * float64(o.K) * float64(m))
	s.allSnap = reuseRows(s.allSnap, m)
	s.newSnap = reuseRows(s.newSnap, m)
	s.set.resize(m)
	for iter := 0; iter < o.MaxIter; iter++ {
		for u := 0; u < m; u++ {
			s.allSnap[u] = lists[u].IDs(s.allSnap[u][:0])
			s.newSnap[u] = lists[u].ResetNew(s.newSnap[u][:0])
		}
		updates := int64(0)
		for u := 0; u < m; u++ {
			s.set.begin()
			s.set.stamp(int32(u))
			collectCandidates(&s.set, s.allSnap, s.newSnap, u)
			for _, w2 := range s.set.cand {
				sim := loc.Sim(u, int(w2))
				if lists[u].Insert(w2, sim) {
					updates++
				}
				if lists[w2].Insert(int32(u), sim) {
					updates++
				}
			}
		}
		if updates < threshold {
			return
		}
	}
}

// Local runs Hyrec restricted to the users in ids, gathering p into a
// fresh cluster-local kernel first. The returned lists are parallel to
// ids and hold global ids. Hot callers (core) use LocalInto with
// per-worker scratch instead.
func Local(ids []int32, k int, p similarity.Provider, o Options) []knng.List {
	var loc similarity.Local
	similarity.GatherInto(p, ids, &loc)
	var s Scratch
	return LocalInto(&loc, k, o, &s)
}
