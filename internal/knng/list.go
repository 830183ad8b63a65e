// Package knng provides the KNN-graph substrate shared by every algorithm
// in this repository: bounded best-k neighbor lists, the graph itself,
// random initialization (the greedy algorithms' starting point), the
// user-by-user merge used by Cluster-and-Conquer's step 3, and the
// average-similarity / quality metrics of §II-A.
package knng

// Neighbor is one directed edge of a KNN graph together with the
// similarity that justified it. Fields are ordered widest-first so the
// struct packs into 16 bytes (instead of 24 with Sim in the middle) —
// graphs store k·n of these.
type Neighbor struct {
	Sim float64
	ID  int32
	// New marks entries that were inserted since the last ResetNew call;
	// the greedy algorithms (Hyrec, NNDescent) use it to avoid
	// re-examining pairs that were already compared.
	New bool
}

// List is a bounded set of the k best neighbors seen so far, maintained as
// a binary min-heap keyed on Sim so the worst retained neighbor is O(1)
// away. The zero List with K set is ready to use.
type List struct {
	K int
	// H is the heap storage; element 0 is the worst neighbor once the
	// list is full. Exposed for read-only iteration.
	H []Neighbor
}

// Len returns the number of neighbors currently held.
func (l *List) Len() int { return len(l.H) }

// Worst returns the smallest similarity currently retained, or -1 when
// the list is not yet full (any candidate is then acceptable).
func (l *List) Worst() float64 {
	if len(l.H) < l.K {
		return -1
	}
	return l.H[0].Sim
}

// Min returns the similarity a candidate must strictly beat to enter
// the list: the heap minimum once the list is full, -1 while it still
// has room. It is Worst under the name the threshold-gating solvers
// use.
func (l *List) Min() float64 { return l.Worst() }

// WouldAccept reports whether Insert(_, sim) could possibly change the
// list: false exactly when Insert is guaranteed to reject sim without
// looking at the candidate id (degenerate sim, or a full list whose
// minimum sim does not strictly beat). It is the O(1) gate of the
// blocked solvers' insertion loops — two inlined comparisons instead of
// an Insert call for the overwhelming majority of candidates once lists
// warm up. WouldAccept true does not promise acceptance: Insert still
// rejects duplicates, so gating with WouldAccept before Insert leaves
// the list's state evolution bit-identical to calling Insert on every
// candidate.
func (l *List) WouldAccept(sim float64) bool {
	if len(l.H) >= l.K {
		// A NaN fails this comparison too, mirroring Insert's rejection.
		return sim > l.H[0].Sim
	}
	// Not yet full: anything non-degenerate enters (NaN fails >= as well).
	return sim >= 0
}

// Contains reports whether v is already a neighbor. Linear scan: k is
// small (30 in the paper) and the slice is contiguous.
func (l *List) Contains(v int32) bool {
	for i := range l.H {
		if l.H[i].ID == v {
			return true
		}
	}
	return false
}

// Insert offers (v, sim) to the list and reports whether the list changed.
// A candidate is rejected when it is already present or when the list is
// full and sim does not strictly beat the current worst similarity
// (strictness guarantees greedy refinement loops terminate). The O(1)
// threshold rejection runs before the O(k) duplicate scan: on a full
// list — the steady state of every solver's hot loop — most candidates
// are dismissed with a single comparison.
//
// Degenerate similarities are rejected outright: every metric in this
// repository maps into [0, 1], a NaN would slip past the `sim <= worst`
// rejection below (all comparisons with NaN are false) and then poison
// the heap ordering the merge and refinement loops rely on, and a
// negative sim would defeat Worst()'s -1 "not yet full" sentinel.
func (l *List) Insert(v int32, sim float64) bool {
	if sim != sim || sim < 0 {
		return false
	}
	if len(l.H) >= l.K {
		if sim <= l.H[0].Sim || l.Contains(v) {
			return false
		}
		l.H[0] = Neighbor{ID: v, Sim: sim, New: true}
		l.siftDown(0)
		return true
	}
	if l.Contains(v) {
		return false
	}
	l.H = append(l.H, Neighbor{ID: v, Sim: sim, New: true})
	l.siftUp(len(l.H) - 1)
	return true
}

// siftUp and siftDown restore the heap invariant hole-push style: the
// displaced element rides in a register while blockers shift one slot,
// one write per level instead of a full 16-byte swap. Level-by-level
// decisions (including the prefer-left tie rule on equal children) are
// those of the classic swap formulation, so the resulting array layout
// is identical.
func (l *List) siftUp(i int) {
	h := l.H
	item := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if h[p].Sim <= item.Sim {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = item
}

func (l *List) siftDown(i int) {
	h := l.H
	n := len(h)
	item := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		// Child selection reads both siblings and picks via conditional
		// move — the left/right choice is data-dependent and effectively
		// random, so a branch here would mispredict half the time.
		if c2 := c + 1; c2 < n {
			cs, c2s := h[c].Sim, h[c2].Sim
			if c2s < cs {
				c = c2
			}
		}
		if h[c].Sim >= item.Sim {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = item
}

// checkHeap verifies the min-heap invariant; used by tests.
func (l *List) checkHeap() bool {
	for i := 1; i < len(l.H); i++ {
		if l.H[(i-1)/2].Sim > l.H[i].Sim {
			return false
		}
	}
	return true
}

// ResetNew appends the ids of neighbors flagged New to dst, clears their
// flags, and returns the extended slice.
func (l *List) ResetNew(dst []int32) []int32 {
	for i := range l.H {
		if l.H[i].New {
			l.H[i].New = false
			dst = append(dst, l.H[i].ID)
		}
	}
	return dst
}

// IDs appends all neighbor ids to dst and returns the extended slice.
func (l *List) IDs(dst []int32) []int32 {
	for i := range l.H {
		dst = append(dst, l.H[i].ID)
	}
	return dst
}

// ReuseLists returns n empty Lists with capacity k, recycling both the
// slice and each List's heap storage from lists. It is the allocation-
// free reset the per-worker cluster solvers rely on: after the first
// few clusters a worker's lists stop allocating entirely.
func ReuseLists(lists []List, n, k int) []List {
	if cap(lists) < n {
		grown := make([]List, n)
		copy(grown, lists[:cap(lists)])
		lists = grown
	} else {
		lists = lists[:n]
	}
	for i := range lists {
		lists[i].K = k
		lists[i].H = lists[i].H[:0]
	}
	return lists
}

// ReuseListsIn is ReuseLists with every heap carved out of one
// contiguous Neighbor slab (list i owns slab[i·k : (i+1)·k], handed out
// empty with capacity k). Solvers that stream inserts across many lists
// — the blocked brute-force sweep touches lists j, j+1, … in order —
// get sequential heap storage instead of n scattered allocations, which
// is where a large share of their sift time went. The possibly regrown
// slab is returned alongside the lists for the caller's scratch.
func ReuseListsIn(lists []List, slab []Neighbor, n, k int) ([]List, []Neighbor) {
	if cap(lists) < n {
		lists = make([]List, n)
	} else {
		lists = lists[:n]
	}
	if need := n * k; cap(slab) < need {
		slab = make([]Neighbor, need)
	} else {
		slab = slab[:need]
	}
	for i := range lists {
		lists[i].K = k
		lists[i].H = slab[i*k : i*k : (i+1)*k]
	}
	return lists, slab
}

// SumSim returns the sum of retained similarities.
func (l *List) SumSim() float64 {
	s := 0.0
	for i := range l.H {
		s += l.H[i].Sim
	}
	return s
}
