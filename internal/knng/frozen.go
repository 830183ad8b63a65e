package knng

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// Frozen is the immutable serving representation of a KNN graph: the
// per-user neighbor lists of a Graph flattened into CSR form, with each
// user's adjacency pre-sorted by decreasing similarity (ties broken by
// ascending neighbor id). Where Graph is built for cheap bounded
// inserts — a binary min-heap per user, mutated millions of times
// during construction — Frozen is built for reads: Neighbors is a
// zero-allocation slice view, the whole structure is three flat arrays
// that persist verbatim to disk, and because nothing ever mutates it,
// any number of goroutines may query it concurrently without locks.
//
// The exported fields describe the CSR layout and exist for the
// persistence codec and tests; treat them as read-only. Use NewFrozen
// to construct a Frozen from slices assembled outside Freeze — it
// checks every structural invariant Freeze guarantees.
type Frozen struct {
	// K is the neighborhood bound the graph was built with; individual
	// users may hold fewer neighbors.
	K int
	// Offsets has NumUsers+1 entries: user u's adjacency occupies
	// IDs[Offsets[u]:Offsets[u+1]] and Sims likewise.
	Offsets []int64
	// IDs holds all neighbor ids, concatenated per user.
	IDs []int32
	// Sims holds the similarity of each corresponding edge in IDs,
	// narrowed to float32 (every metric maps into [0, 1], where float32
	// keeps ~7 significant digits — far below estimator noise).
	Sims []float32
}

// sortNeighbors orders s by decreasing similarity, ties by ascending id,
// the canonical adjacency order shared by Graph.Neighbors and Freeze
// (deterministic ties make the two representations comparable
// edge-for-edge).
func sortNeighbors(s []Neighbor) {
	slices.SortFunc(s, func(a, b Neighbor) int {
		if a.Sim != b.Sim {
			if a.Sim > b.Sim {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// sortNeighborsNarrowed orders s like sortNeighbors but compares the
// similarities after narrowing to float32 — the values a Frozen
// actually stores. Freeze must sort this way: two float64 sims that
// are distinct but collapse to the same float32 are a tie in the CSR,
// and sorting them by the pre-narrowing values could order them
// id-descending, violating the canonical (sim desc, id asc) invariant
// Validate enforces.
func sortNeighborsNarrowed(s []Neighbor) {
	slices.SortFunc(s, func(a, b Neighbor) int {
		as, bs := float32(a.Sim), float32(b.Sim)
		if as != bs {
			if as > bs {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// SortCanonical orders s into the adjacency order a Frozen stores —
// decreasing float32-narrowed similarity, ties by ascending id (see
// sortNeighborsNarrowed). Exported for the delta overlay, whose patched
// rows must interleave with frozen rows edge-for-edge.
func SortCanonical(s []Neighbor) { sortNeighborsNarrowed(s) }

// Freeze flattens the graph into its immutable CSR serving form. The
// graph itself is not modified and may keep evolving afterwards; the
// returned Frozen shares no storage with it.
//
// Offsets come first, from the list lengths alone; every user's slot in
// the edge arrays is then fixed, so disjoint user ranges are sorted and
// filled on up to GOMAXPROCS goroutines. Each row is written exactly as
// a serial pass would write it, so the output does not depend on the
// goroutine count.
func (g *Graph) Freeze() *Frozen {
	n := g.NumUsers()
	offsets := make([]int64, n+1)
	for u := range g.Lists {
		offsets[u+1] = offsets[u] + int64(g.Lists[u].Len())
	}
	f := &Frozen{
		K:       g.K,
		Offsets: offsets,
		IDs:     make([]int32, offsets[n]),
		Sims:    make([]float32, offsets[n]),
	}
	parts := min(runtime.GOMAXPROCS(0), (n+freezeChunk-1)/freezeChunk)
	if parts <= 1 {
		g.freezeRange(f, 0, n)
		return f
	}
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			g.freezeRange(f, lo, hi)
		}(p*n/parts, (p+1)*n/parts)
	}
	wg.Wait()
	return f
}

// freezeChunk is the fewest users Freeze hands a goroutine, so that a
// goroutine's sorting outweighs its start-up cost.
const freezeChunk = 512

// freezeRange sorts users [lo, hi) into canonical order and writes them
// into f's preallocated edge arrays at their offsets.
func (g *Graph) freezeRange(f *Frozen, lo, hi int) {
	scratch := make([]Neighbor, 0, g.K)
	for u := lo; u < hi; u++ {
		scratch = append(scratch[:0], g.Lists[u].H...)
		sortNeighborsNarrowed(scratch)
		ids, sims := f.IDs[f.Offsets[u]:f.Offsets[u+1]], f.Sims[f.Offsets[u]:f.Offsets[u+1]]
		for i, nb := range scratch {
			ids[i], sims[i] = nb.ID, float32(nb.Sim)
		}
	}
}

// NewFrozen assembles a Frozen from raw CSR slices, validating every
// invariant Freeze guarantees (delta compaction builds its graphs this
// way): a Frozen that exists is a Frozen the serving paths can index
// into without bounds anxiety.
func NewFrozen(k int, offsets []int64, ids []int32, sims []float32) (*Frozen, error) {
	f := &Frozen{K: k, Offsets: offsets, IDs: ids, Sims: sims}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// Validate checks the CSR invariants: well-formed monotone offsets,
// matching array lengths, per-user degrees within K, neighbor ids in
// range and non-self, similarities finite and non-negative, and each
// adjacency sorted by decreasing similarity with ties by ascending id.
func (f *Frozen) Validate() error {
	if f.K < 0 {
		return fmt.Errorf("knng: frozen graph has negative k %d", f.K)
	}
	if len(f.Offsets) == 0 || f.Offsets[0] != 0 {
		return fmt.Errorf("knng: frozen graph offsets must start with 0")
	}
	n := len(f.Offsets) - 1
	if int64(len(f.IDs)) != f.Offsets[n] || len(f.Sims) != len(f.IDs) {
		return fmt.Errorf("knng: frozen graph arrays disagree: offsets end %d, %d ids, %d sims",
			f.Offsets[n], len(f.IDs), len(f.Sims))
	}
	for u := 0; u < n; u++ {
		lo, hi := f.Offsets[u], f.Offsets[u+1]
		if hi < lo {
			return fmt.Errorf("knng: frozen graph offsets decrease at user %d", u)
		}
		if hi-lo > int64(f.K) {
			return fmt.Errorf("knng: user %d has %d neighbors, exceeding k=%d", u, hi-lo, f.K)
		}
		for i := lo; i < hi; i++ {
			id, sim := f.IDs[i], f.Sims[i]
			if id < 0 || int(id) >= n {
				return fmt.Errorf("knng: user %d has neighbor id %d outside [0,%d)", u, id, n)
			}
			if int(id) == u {
				return fmt.Errorf("knng: user %d has a self edge", u)
			}
			if sim != sim || sim < 0 {
				return fmt.Errorf("knng: user %d edge %d has degenerate similarity %v", u, id, sim)
			}
			if i > lo {
				prev, prevSim := f.IDs[i-1], f.Sims[i-1]
				if sim > prevSim || (sim == prevSim && id <= prev) {
					return fmt.Errorf("knng: user %d adjacency not sorted (sim desc, id asc) at edge %d", u, i-lo)
				}
			}
		}
	}
	return nil
}

// NewFrozenView assembles a Frozen from CSR slices that may alias
// read-only storage (a memory-mapped snapshot section), checking only
// the bounds invariants that make every serving-path access
// memory-safe: offsets anchored at 0, monotone, ending exactly at
// len(ids); array lengths agreeing; every neighbor id in [0, NumUsers).
// idMax must be sets.MaxU32(ids), the ids' maximum compared unsigned:
// the snapshot loader computes it while it checksums the id slab, so
// the ids are not read a second time here.
//
// It does not check the value-level invariants Validate does (degree ≤
// K, no self edges, finite similarities, sort order) — violating those
// yields wrong answers, never out-of-bounds access, and checking them
// touches every edge twice on a path whose whole point is to avoid
// touching the edge arrays at load time. The caller must have integrity
// evidence for the bytes (the snapshot loader checksums every section
// before building views); data of unknown provenance goes through
// NewFrozen.
func NewFrozenView(k int, offsets []int64, ids []int32, sims []float32, idMax uint32) (*Frozen, error) {
	if k < 0 {
		return nil, fmt.Errorf("knng: frozen graph has negative k %d", k)
	}
	if len(offsets) == 0 || offsets[0] != 0 {
		return nil, fmt.Errorf("knng: frozen graph offsets must start with 0")
	}
	n := len(offsets) - 1
	if int64(len(ids)) != offsets[n] || len(sims) != len(ids) {
		return nil, fmt.Errorf("knng: frozen graph arrays disagree: offsets end %d, %d ids, %d sims",
			offsets[n], len(ids), len(sims))
	}
	for u := 0; u < n; u++ {
		if offsets[u+1] < offsets[u] {
			return nil, fmt.Errorf("knng: frozen graph offsets decrease at user %d", u)
		}
	}
	// Unsigned compare folds the id < 0 and id >= n checks into one test
	// (negative ids map high); only a failing maximum pays for the walk
	// that names the offending edge.
	if len(ids) > 0 && idMax >= uint32(n) {
		for i, id := range ids {
			if uint32(id) >= uint32(n) {
				return nil, fmt.Errorf("knng: edge %d has neighbor id %d outside [0,%d)", i, id, n)
			}
		}
	}
	return &Frozen{K: k, Offsets: offsets, IDs: ids, Sims: sims}, nil
}

// NumUsers returns the number of users the graph is defined over.
func (f *Frozen) NumUsers() int { return len(f.Offsets) - 1 }

// NumEdges returns the total number of directed edges stored.
func (f *Frozen) NumEdges() int { return len(f.IDs) }

// Degree returns the number of neighbors stored for u.
func (f *Frozen) Degree(u int32) int {
	return int(f.Offsets[u+1] - f.Offsets[u])
}

// Neighbors returns views of u's neighbor ids and similarities, sorted
// by decreasing similarity. The slices alias the graph's storage — do
// not mutate them — and the call performs no allocation, so it is safe
// and cheap on every query of a serving hot path.
func (f *Frozen) Neighbors(u int32) (ids []int32, sims []float32) {
	lo, hi := f.Offsets[u], f.Offsets[u+1]
	return f.IDs[lo:hi], f.Sims[lo:hi]
}

// TopK appends u's best min(k, Degree(u)) neighbors to dst as Neighbor
// values and returns the extended slice; pass a recycled dst for
// allocation-free use.
func (f *Frozen) TopK(u int32, k int, dst []Neighbor) []Neighbor {
	ids, sims := f.Neighbors(u)
	if k > len(ids) {
		k = len(ids)
	}
	for i := 0; i < k; i++ {
		dst = append(dst, Neighbor{ID: ids[i], Sim: float64(sims[i])})
	}
	return dst
}

// AvgStoredSim averages the similarities recorded on the edges over k×n
// slots, mirroring Graph.AvgStoredSim (absent edges count as zero).
func (f *Frozen) AvgStoredSim() float64 {
	n := f.NumUsers()
	if n == 0 || f.K == 0 {
		return 0
	}
	total := 0.0
	for _, s := range f.Sims {
		total += float64(s)
	}
	return total / float64(f.K*n)
}
