package c2knn

import (
	"fmt"
	"sync"
	"sync/atomic"

	"c2knn/internal/dataset"
	"c2knn/internal/delta"
	"c2knn/internal/frh"
	"c2knn/internal/goldfinger"
	"c2knn/internal/knng"
	"c2knn/internal/persist"
	"c2knn/internal/recommend"
)

// Typed snapshot-loading failures, re-exported from the persistence
// layer so daemons can react to the two cases differently: a version
// mismatch means "this snapshot needs a rebuild with the current
// binary", while corruption means "this file is damaged — restore it".
// Test with errors.Is against errors returned by LoadIndex.
var (
	// ErrSnapshotVersion tags snapshots written by an incompatible
	// format version (rebuild needed).
	ErrSnapshotVersion = persist.ErrVersion
	// ErrSnapshotCorrupt tags malformed or damaged snapshot bytes
	// (bad magic, checksum mismatch, truncation, invalid structure).
	ErrSnapshotCorrupt = persist.ErrCorrupt
)

// FrozenGraph is the immutable CSR serving form of a Graph; see Freeze.
type FrozenGraph = knng.Frozen

// Freeze flattens g into its immutable serving representation: flat
// neighbor-id and similarity arrays with per-user offsets, each
// adjacency pre-sorted by decreasing similarity. A FrozenGraph answers
// Neighbors queries without allocating and is safe for unlimited
// concurrent readers.
func Freeze(g *Graph) *FrozenGraph { return g.Freeze() }

// Index is the serving bundle of the §V-B application: a frozen KNN
// graph, the training dataset its recommendations score against, and
// (optionally) the GoldFinger fingerprints the graph was built with.
// Every query reads through one delta.View: the overlay's current view
// when upserts are enabled, otherwise a base view with no patches, so
// read-only and writable indexes share one read path. All methods are
// safe for concurrent use — views are immutable and per-query scratch
// is pooled — so one Index can serve any number of request goroutines.
// Build one with NewIndex, persist it with Save, and load it in
// milliseconds with LoadIndex: the build/serve split that lets one
// expensive graph construction serve many processes.
type Index struct {
	graph   *knng.Frozen
	train   *dataset.Dataset
	gf      *goldfinger.Set
	buckets *frh.Table  // the snapshot's coarse FastRandomHash buckets, nil when it carries none
	base    *delta.View // the artifacts above, unpatched
	scorers sync.Pool

	// mapping is non-nil when the artifacts above are views over a
	// memory-mapped snapshot; the Index holds the mapping's creation
	// reference until Close. Nil for built or copy-loaded indexes.
	mapping *persist.Mapping
	closed  atomic.Bool

	// overlay is the optional delta layer for incrementally maintained
	// indexes (see EnableUpserts); nil on plain read-only indexes,
	// which serve base.
	overlay atomic.Pointer[delta.Overlay]
}

// NewIndex freezes g and bundles it with its training dataset. sim may
// carry the GoldFinger provider the graph was built with (it is kept
// and persisted if it is a *goldfinger.Set); pass nil otherwise.
func NewIndex(g *Graph, train *Dataset, sim Similarity) (*Index, error) {
	if g == nil || train == nil {
		return nil, fmt.Errorf("c2knn: index needs both a graph and a training dataset")
	}
	if g.NumUsers() != train.NumUsers() {
		return nil, fmt.Errorf("c2knn: graph has %d users, dataset %d", g.NumUsers(), train.NumUsers())
	}
	gf, _ := sim.(*goldfinger.Set)
	return newFrozenIndex(g.Freeze(), train, gf)
}

func newFrozenIndex(f *knng.Frozen, train *dataset.Dataset, gf *goldfinger.Set) (*Index, error) {
	ix := &Index{graph: f, train: train, gf: gf, base: delta.NewView(f, train, gf)}
	ix.scorers.New = func() any { return recommend.NewScorer(train.NumItems) }
	return ix, nil
}

// LoadMode selects how LoadIndexMode materializes a snapshot file;
// re-exported from the persistence layer.
type LoadMode = persist.LoadMode

const (
	// LoadAuto memory-maps when the platform allows it (unix
	// little-endian hosts) and copy-decodes otherwise.
	LoadAuto = persist.LoadAuto
	// LoadCopy always decode-and-copies; the index owns heap memory and
	// needs no lifetime discipline.
	LoadCopy = persist.LoadCopy
	// LoadMMap requires the zero-copy mapped path and fails when it is
	// unavailable (non-mmap platform, big-endian host).
	LoadMMap = persist.LoadMMap
)

// ParseLoadMode parses "auto" (or ""), "copy", or "mmap" — the values
// the c2serve -load flag and the C2_LOAD environment variable accept.
func ParseLoadMode(s string) (LoadMode, error) { return persist.ParseLoadMode(s) }

// LoadIndex reads an Index from a snapshot file written by Save (or by
// c2build -snap), honoring the C2_LOAD environment variable ("auto"
// when unset). The snapshot must carry at least a graph and a dataset;
// loading validates structure, checksums and cross-section consistency,
// so a corrupt file returns an error and never a partially usable
// index.
//
// The returned index may serve directly from a memory mapping (see
// Mapped); callers that discard an index while other goroutines might
// still be querying it must use the Retain/Release protocol and Close
// it when done. Indexes built in process or copy-loaded are unaffected
// (Close is a no-op, Retain always succeeds).
func LoadIndex(path string) (*Index, error) {
	snap, err := persist.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return indexFromSnapshot(path, snap)
}

// LoadIndexMode is LoadIndex with an explicit load mode, ignoring
// C2_LOAD.
func LoadIndexMode(path string, mode LoadMode) (*Index, error) {
	snap, err := persist.LoadFileMode(path, mode)
	if err != nil {
		return nil, err
	}
	return indexFromSnapshot(path, snap)
}

// indexFromSnapshot wraps a loaded snapshot, taking over its mapping
// reference (if any): from here the Index owns the mapping and releases
// it in Close.
func indexFromSnapshot(path string, snap *persist.Snapshot) (*Index, error) {
	if snap.Graph == nil || snap.Train == nil {
		snap.Close()
		return nil, fmt.Errorf("c2knn: snapshot %s lacks a graph or dataset section; not servable", path)
	}
	ix, err := newFrozenIndex(snap.Graph, snap.Train, snap.GoldFinger)
	if err != nil {
		snap.Close()
		return nil, err
	}
	ix.buckets = snap.Buckets
	ix.mapping = snap.Mapping
	return ix, nil
}

// Mapped reports whether the index serves directly from a memory-mapped
// snapshot (and therefore needs the Retain/Release/Close lifetime
// protocol when hot-swapped).
func (ix *Index) Mapped() bool { return ix.mapping != nil }

// Retain takes a reference for the duration of a request, reporting
// success. For unmapped indexes it always succeeds at no cost. For
// mapped indexes it fails once Close has begun tearing the mapping
// down — the caller must then re-resolve the current index (a hot swap
// has replaced this one) instead of touching its views.
func (ix *Index) Retain() bool {
	if ix.mapping == nil {
		return true
	}
	// The closed check, not just the refcount, gates new queries: while
	// earlier retains are still draining the mapping's count stays
	// positive, and without this a request racing a hot swap could start
	// on the retired epoch instead of re-resolving the current one.
	if ix.closed.Load() {
		return false
	}
	return ix.mapping.Retain()
}

// Release drops a reference taken by a successful Retain.
func (ix *Index) Release() {
	if ix.mapping != nil {
		ix.mapping.Release()
	}
}

// Close releases the index's own reference to its backing mapping; the
// mapping is unmapped once the last in-flight Retain is Released.
// Queries must not start after Close (Retain refuses), but queries that
// retained before Close drain safely. Idempotent; a no-op for unmapped
// indexes.
func (ix *Index) Close() error {
	if ix.mapping == nil || !ix.closed.CompareAndSwap(false, true) {
		return nil
	}
	ix.mapping.Release()
	return nil
}

// Save writes the index to path in the snapshot format (atomically:
// encode to a temp file, then rename). Only the base artifacts are
// written; an attached delta overlay is not folded in — use CompactInto
// for that.
func (ix *Index) Save(path string) error {
	return persist.WriteFile(path, &persist.Snapshot{
		Graph:      ix.graph,
		Train:      ix.train,
		GoldFinger: ix.gf,
	})
}

// view returns the View a query reads: the overlay's current one when
// upserts are enabled, the base view otherwise.
func (ix *Index) view() *delta.View {
	if ov := ix.overlay.Load(); ov != nil {
		return ov.View()
	}
	return ix.base
}

// NumUsers returns the number of users the index serves, including
// delta users absorbed through Upsert.
func (ix *Index) NumUsers() int { return ix.view().NumUsers() }

// K returns the neighborhood bound the graph was built with.
func (ix *Index) K() int { return ix.graph.K }

// Graph returns the frozen graph. Read-only.
func (ix *Index) Graph() *FrozenGraph { return ix.graph }

// Train returns the training dataset. Read-only.
func (ix *Index) Train() *Dataset { return ix.train }

// Similarity returns the fingerprint provider bundled with the index,
// or nil when the snapshot carried none.
func (ix *Index) Similarity() Similarity {
	if ix.gf == nil {
		return nil
	}
	return ix.gf
}

// Neighbors returns views of u's neighbor ids and similarities, sorted
// by decreasing similarity, or empty views when u is out of range — a
// malformed or stale request gets an empty answer, not a panic. Zero
// allocations; the slices alias index storage and must not be mutated.
// The row comes from the index's one view, so with upserts enabled
// patched and delta users resolve to their overlay rows.
func (ix *Index) Neighbors(u int32) (ids []int32, sims []float32) {
	return ix.view().Neighbors(u)
}

// TopK returns u's best min(k, degree) neighbors as Neighbor values,
// or nil when u is out of range.
func (ix *Index) TopK(u int32, k int) []Neighbor {
	return topK(ix.view(), u, k, nil)
}

// topK appends u's best min(k, degree) neighbors in v to dst.
func topK(v *delta.View, u int32, k int, dst []Neighbor) []Neighbor {
	ids, sims := v.Neighbors(u)
	for i := range min(k, len(ids)) {
		dst = append(dst, Neighbor{ID: ids[i], Sim: float64(sims[i])})
	}
	return dst
}

// Recommend returns up to n items for user u by user-based
// collaborative filtering over the index's view: items in neighbors'
// training profiles (but not u's own), scored by the sum of the
// recommending neighbors' similarities, ties broken by ascending item
// id. Out-of-range users and n ≤ 0 get nil. A query costs one pass
// over the neighbors' profiles plus O(T·log n) to keep the best n of
// the T items it touches. Safe for concurrent use; scoring scratch is
// pooled per calling goroutine, so steady-state cost is the returned
// slice only.
func (ix *Index) Recommend(u int32, n int) []int32 {
	v := ix.view()
	if !v.Valid(u) {
		return nil
	}
	sc := ix.scorers.Get().(*recommend.Scorer)
	out := sc.RecommendSource(v, u, n, nil)
	ix.scorers.Put(sc)
	return out
}

// TopKBatch answers TopK for every user of users in one call, sharing a
// single backing array across all per-user result slices (one
// allocation per batch instead of one per user). Out-of-range ids yield
// nil entries. The per-user results are identical to calling TopK user
// by user.
func (ix *Index) TopKBatch(users []int32, k int) [][]Neighbor {
	out := make([][]Neighbor, len(users))
	if k <= 0 {
		return out
	}
	v := ix.view()
	total := 0
	for _, u := range users {
		ids, _ := v.Neighbors(u)
		total += min(k, len(ids))
	}
	buf := make([]Neighbor, 0, total)
	for i, u := range users {
		if v.Valid(u) {
			start := len(buf)
			buf = topK(v, u, k, buf)
			out[i] = buf[start:len(buf):len(buf)]
		}
	}
	return out
}

// RecommendBatch answers Recommend for every user of users with one
// pooled Scorer checked out for the whole batch — the serving batch
// path: dense scoring scratch is reused across the batch rather than
// fetched per query. Out-of-range ids, and every id when n ≤ 0, yield
// nil entries. The per-user results are identical to calling Recommend
// user by user.
func (ix *Index) RecommendBatch(users []int32, n int) [][]int32 {
	v := ix.view()
	sc := ix.scorers.Get().(*recommend.Scorer)
	out := make([][]int32, len(users))
	for i, u := range users {
		if v.Valid(u) {
			out[i] = sc.RecommendSource(v, u, n, nil)
		}
	}
	ix.scorers.Put(sc)
	return out
}
