// Package recommend implements the item-recommendation application of
// §V-B: a user-based collaborative filtering procedure on top of a KNN
// graph, evaluated by recall under 5-fold cross-validation. It is how the
// paper demonstrates that C²'s approximate graphs can replace exact ones
// "with almost no discernible impact".
package recommend

import (
	"cmp"
	"math/rand"
	"slices"

	"c2knn/internal/dataset"
	"c2knn/internal/knng"
	"c2knn/internal/schedule"
	"c2knn/internal/sets"
)

// Fold is one train/test split of a cross-validation: Train is a dataset
// with the test items removed from each profile, Test[u] holds user u's
// held-out items (sorted).
type Fold struct {
	Train *dataset.Dataset
	Test  [][]int32
}

// Split produces a k-fold cross-validation of d: each user's profile is
// shuffled once and partitioned into folds; fold i holds out part i.
// Users with fewer items than folds keep everything in Train (their Test
// is empty) so training profiles never vanish.
func Split(d *dataset.Dataset, folds int, seed int64) []Fold {
	if folds < 2 {
		panic("recommend: need at least 2 folds")
	}
	rng := rand.New(rand.NewSource(seed))
	n := d.NumUsers()
	// One shuffled copy per user, partitioned identically across folds.
	shuffled := make([][]int32, n)
	for u, p := range d.Profiles {
		cp := make([]int32, len(p))
		copy(cp, p)
		rng.Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
		shuffled[u] = cp
	}
	out := make([]Fold, folds)
	for f := 0; f < folds; f++ {
		train := make([][]int32, n)
		test := make([][]int32, n)
		for u, cp := range shuffled {
			if len(cp) < folds {
				train[u] = append([]int32(nil), cp...)
				continue
			}
			lo := len(cp) * f / folds
			hi := len(cp) * (f + 1) / folds
			test[u] = append([]int32(nil), cp[lo:hi]...)
			train[u] = append(append([]int32(nil), cp[:lo]...), cp[hi:]...)
		}
		for u := range test {
			test[u] = sets.Normalize(test[u])
		}
		out[f] = Fold{
			Train: dataset.New(d.Name, train, d.NumItems),
			Test:  test,
		}
	}
	return out
}

// scored pairs an item with its aggregated neighbor score.
type scored struct {
	item  int32
	score float64
}

// compareScored is the recommendation order: decreasing score, ties by
// ascending item id. Items are distinct, so the order is total and
// every top-n is unique.
func compareScored(a, b scored) int {
	if a.score != b.score {
		if a.score > b.score {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.item, b.item)
}

// Scorer is the reusable per-worker scratch of the frozen serving path:
// a dense per-item score accumulator, the touched-item list, and an
// n-slot selection heap. A query costs O(R) for the R row entries it
// scores plus O(T·log n) to select the top n of the T items it
// touches — no sort of all T. After the first few queries a Scorer
// stops allocating (beyond the caller's result slice). A Scorer is not
// safe for concurrent use; give each goroutine its own (c2knn.Index
// pools them).
type Scorer struct {
	scores  []float64 // dense accumulator, indexed by item id; ownMark on u's own items mid-query
	touched []int32   // items with non-zero score this query
	ranked  []scored  // bounded top-n heap, then the sorted result
}

// ownMark is the score u's own items carry while a query accumulates:
// rows skip any item scored below zero. Accumulated sums of positive
// similarities are strictly positive, so the mark never collides with
// a real score.
const ownMark = -1

// NewScorer returns a Scorer for datasets with up to numItems items;
// it grows transparently if a query meets a larger universe.
func NewScorer(numItems int32) *Scorer {
	return &Scorer{scores: make([]float64, numItems)}
}

// Recommend returns up to n items for user u by user-based
// collaborative filtering (classic §V-B CF): every item in a
// positive-similarity neighbor's training profile but not in u's own,
// scored by the sum of the recommending neighbors' similarities, ties
// by ascending item id. It reads the CSR adjacency and accumulates into
// the dense scratch — no per-query map, no per-query allocation when
// dst is recycled. The item ids are appended to dst; the extended slice
// is returned. n ≤ 0 appends nothing.
//
// u's own items are excluded by marking them in the dense scratch for
// the duration of the query, so each row item costs one load. Items are
// visited — and scores summed — in the same order as the package
// tests' map-based oracle, and the top n are selected under the same
// total order, so the result is bit-identical to it.
func (s *Scorer) Recommend(train *dataset.Dataset, g *knng.Frozen, u int32, n int, dst []int32) []int32 {
	return recommendFrom(s, frozenPair{train, g}, u, n, dst)
}

// Source is the read surface RecommendSource scores over: a graph-and-
// profiles view that may be merged from several storages (the delta
// overlay's base + patch view is the motivating implementation; a plain
// dataset + frozen pair satisfies it trivially). Neighbors must return
// rows sorted by decreasing similarity, Profile a sorted duplicate-free
// item set, and NumItems a bound on every item id either returns.
type Source interface {
	NumItems() int32
	Profile(u int32) []int32
	Neighbors(u int32) ([]int32, []float32)
}

// frozenPair is the Source of Scorer.Recommend: a dataset and the
// frozen graph built over it.
type frozenPair struct {
	train *dataset.Dataset
	g     *knng.Frozen
}

func (p frozenPair) NumItems() int32                        { return p.train.NumItems }
func (p frozenPair) Profile(u int32) []int32                { return p.train.Profiles[u] }
func (p frozenPair) Neighbors(u int32) ([]int32, []float32) { return p.g.Neighbors(u) }

// RecommendSource is Recommend over a Source instead of a concrete
// dataset + frozen pair — semantics (scores, exclusion, tie order) are
// identical; only the storage the rows and profiles come from differs.
// It is c2knn.Index's serving path: neighbor rows and profiles resolve
// through the index's delta view, so recommendations reflect absorbed
// upserts immediately. Appends to dst and returns the extended slice;
// allocation-free when dst is recycled. n ≤ 0 appends nothing.
func (s *Scorer) RecommendSource(src Source, u int32, n int, dst []int32) []int32 {
	return recommendFrom(s, src, u, n, dst)
}

// recommendFrom is the scoring loop of Recommend and RecommendSource.
// It is generic rather than taking a Source so that Recommend's
// frozenPair is passed by value instead of escaping to the heap.
func recommendFrom[S Source](s *Scorer, src S, u int32, n int, dst []int32) []int32 {
	if n <= 0 {
		return dst
	}
	if int(src.NumItems()) > len(s.scores) {
		s.scores = make([]float64, src.NumItems())
	}
	own := src.Profile(u)
	s.mark(own, ownMark)
	ids, sims := src.Neighbors(u)
	for i, v := range ids {
		if sim := float64(sims[i]); sim > 0 {
			s.accumulateRow(src.Profile(v), sim)
		}
	}
	s.mark(own, 0)
	return s.drain(n, dst)
}

// mark sets the score of every item of own to v: ownMark before a
// query accumulates, 0 after, leaving the scratch all-zero.
func (s *Scorer) mark(own []int32, v float64) {
	for _, it := range own {
		s.scores[it] = v
	}
}

// accumulateRow adds sim to the dense score of every item of row that
// does not carry ownMark.
func (s *Scorer) accumulateRow(row []int32, sim float64) {
	for _, it := range row {
		sc := s.scores[it]
		if sc < 0 {
			continue
		}
		// Accumulated similarities are strictly positive, so a zero
		// score means "first touch" — no separate seen-set needed.
		if sc == 0 {
			s.touched = append(s.touched, it)
		}
		s.scores[it] = sc + sim
	}
}

// drain moves every touched item's score out of the dense scratch,
// zeroing it for the next query, and keeps the n best under
// compareScored in s.ranked: a heap whose root is the worst item kept,
// so a candidate is one comparison against the root and, if it wins,
// one sift. Only the kept items are then sorted and their ids appended
// to dst. Same result as a full sort of all touched items, truncated
// to n.
func (s *Scorer) drain(n int, dst []int32) []int32 {
	h := s.ranked[:0]
	for _, it := range s.touched {
		c := scored{it, s.scores[it]}
		s.scores[it] = 0
		if len(h) < n {
			h = append(h, c)
			siftUp(h, len(h)-1)
		} else if compareScored(c, h[0]) < 0 {
			h[0] = c
			siftDown(h, 0)
		}
	}
	s.touched = s.touched[:0]
	s.ranked = h
	slices.SortFunc(h, compareScored)
	dst = slices.Grow(dst, len(h))
	for _, r := range h {
		dst = append(dst, r.item)
	}
	return dst
}

// siftUp and siftDown maintain the worst-at-root heap of drain: every
// parent ranks behind (compares greater than) its children.
func siftUp(h []scored, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if compareScored(h[i], h[p]) <= 0 {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDown(h []scored, i int) {
	for {
		w := 2*i + 1
		if w >= len(h) {
			return
		}
		if r := w + 1; r < len(h) && compareScored(h[r], h[w]) > 0 {
			w = r
		}
		if compareScored(h[w], h[i]) <= 0 {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// Recall returns |rec ∩ test| / |test|, or -1 when test is empty (the
// user does not participate in the average).
func Recall(rec, test []int32) float64 {
	if len(test) == 0 {
		return -1
	}
	hits := 0
	for _, it := range rec {
		if sets.Contains(test, it) {
			hits++
		}
	}
	return float64(hits) / float64(len(test))
}

// EvalRecall recommends n items to every user of the fold and returns the
// mean recall over users with a non-empty test set. n ≤ 0 recommends
// nothing, so the recall is 0. The graph is frozen once and evaluation
// runs on the CSR serving path; pass an existing Frozen to
// EvalRecallFrozen to skip the flattening.
func EvalRecall(f Fold, g *knng.Graph, n, workers int) float64 {
	return EvalRecallFrozen(f, g.Freeze(), n, workers)
}

// EvalRecallFrozen is EvalRecall over a frozen graph, with the same
// n ≤ 0 rule. Each worker owns a Scorer and a recycled result slice, so
// the evaluation's allocations do not grow with the user count beyond
// one recall per user. The recalls are summed in user order, so the
// result does not depend on workers.
func EvalRecallFrozen(f Fold, g *knng.Frozen, n, workers int) float64 {
	workers = max(workers, 1)
	recalls := make([]float64, f.Train.NumUsers())
	scorers := make([]*Scorer, workers)
	recs := make([][]int32, workers)
	schedule.Run(workers, len(recalls), func(w, u int) {
		if len(f.Test[u]) == 0 {
			recalls[u] = -1
			return
		}
		if scorers[w] == nil {
			scorers[w] = NewScorer(f.Train.NumItems)
		}
		recs[w] = scorers[w].Recommend(f.Train, g, int32(u), n, recs[w][:0])
		recalls[u] = Recall(recs[w], f.Test[u])
	})
	total, cnt := 0.0, 0
	for _, r := range recalls {
		if r >= 0 {
			total += r
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return total / float64(cnt)
}
