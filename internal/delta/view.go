package delta

import (
	"c2knn/internal/dataset"
	"c2knn/internal/goldfinger"
	"c2knn/internal/knng"
)

// View is one immutable published state of an overlay: the base
// artifacts plus one patch record for every user an upsert has
// touched. All methods are read-only, lock-free and allocation-free,
// and a View stays internally consistent forever — readers resolve one
// View per request and see a single point in the upsert sequence,
// whatever writers do meanwhile. A View with no patches (NewView) is
// simply the base, which is how a read-only index serves.
type View struct {
	graph *knng.Frozen
	train *dataset.Dataset
	gf    *goldfinger.Set

	baseN    int32 // users covered by the base snapshot
	numUsers int32 // baseN + delta users
	numItems int32 // item-universe bound across base and delta profiles
	seq      uint64

	// patches holds the record of every patched base user and every
	// delta user. Records are shared between views and never mutated.
	patches map[int32]*patch
}

// patch is one user's record: a full row that supersedes the base row,
// and the user's profile and fingerprint once an upsert changed them
// (nil before: reads fall through to the base). seq is the upsert that
// last wrote the row; every upsert of the user re-rows it, so a record
// kept past a compaction marker carries a newer profile or the one the
// compacted base holds.
type patch struct {
	ids   []int32
	sims  []float32
	items []int32
	words []uint64
	ones  int32
	seq   uint64
}

// NewView returns the view of the base artifacts with no patches: the
// read path of an index without upserts and the first view of every
// overlay. The artifacts must be mutually consistent (equal user
// counts); gf may be nil when nothing will score against it.
func NewView(graph *knng.Frozen, train *dataset.Dataset, gf *goldfinger.Set) *View {
	n := int32(train.NumUsers())
	return &View{graph: graph, train: train, gf: gf, baseN: n, numUsers: n, numItems: train.NumItems}
}

// NumUsers returns the number of users served: base plus delta.
func (v *View) NumUsers() int { return int(v.numUsers) }

// BaseUsers returns the number of users the base snapshot covers.
func (v *View) BaseUsers() int { return int(v.baseN) }

// NumItems returns the item-universe bound across base and delta
// profiles (every item id is below it). It implements part of
// recommend.Source.
func (v *View) NumItems() int32 { return v.numItems }

// Seq returns the upsert sequence number this view reflects.
func (v *View) Seq() uint64 { return v.seq }

// Valid reports whether u is a served user id.
func (v *View) Valid(u int32) bool { return u >= 0 && u < v.numUsers }

// Neighbors returns u's merged neighbor row — the patched row when an
// upsert touched u, the base CSR row otherwise — sorted in the
// canonical (sim desc, id asc) order. Out-of-range users get empty
// views. Zero allocations; the slices alias view storage and must not
// be mutated.
func (v *View) Neighbors(u int32) ([]int32, []float32) {
	if !v.Valid(u) {
		return nil, nil
	}
	if p := v.patches[u]; p != nil {
		return p.ids, p.sims
	}
	if u < v.baseN {
		return v.graph.Neighbors(u)
	}
	return nil, nil
}

// Profile returns u's merged training profile (sorted, duplicate-free).
// Out-of-range users get nil. Zero allocations.
func (v *View) Profile(u int32) []int32 {
	if !v.Valid(u) {
		return nil
	}
	if p := v.patches[u]; p != nil && p.items != nil {
		return p.items
	}
	if u < v.baseN {
		return v.train.Profiles[u]
	}
	return nil
}

// signature returns u's fingerprint words and popcount, preferring the
// patch record. Callers guarantee u is valid and fingerprinted (base
// users by construction, delta users by Upsert).
func (v *View) signature(u int32) ([]uint64, int32) {
	if p := v.patches[u]; p != nil && p.words != nil {
		return p.words, p.ones
	}
	return v.gf.Signature(u), int32(v.gf.Ones(u))
}
