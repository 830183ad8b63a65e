// Package delta implements the incremental maintenance layer of the
// serving stack: a mutable overlay on top of a frozen KNN graph that
// absorbs new users and new ratings in sub-second time, without a
// rebuild.
//
// The idea follows the local-clustering literature (Spielman–Teng's
// nearly-linear local clustering, Peng's robust clustering oracle):
// cluster structure can be updated with sublinear, local work. C²'s
// FastRandomHash buckets are exactly the locality handle needed — a new
// profile hashes to one bucket per configuration, so only those
// clusters' members can be its neighbors under the C² approximation.
// An upsert therefore costs t localized cluster re-solves (a few
// thousand SIMD AND-popcounts), not a build.
//
// Structure, from the reader inward:
//
//   - View is an immutable published snapshot of the overlay: the base
//     artifacts (frozen graph, training profiles, fingerprints) plus
//     three patch maps — materialized neighbor rows, profiles, and
//     fingerprints — covering every user an upsert has touched. Readers
//     load the current View with one atomic pointer read and never take
//     a lock; every access after that is a map probe or a base-array
//     view, so the merged read path allocates nothing.
//   - Overlay owns the writer state: the FRH hasher, the per-
//     configuration coarse bucket membership of every base user, and
//     the sequence counter. Upsert runs under a single writer mutex,
//     builds fresh copies of the patch maps (copy-on-write — bounded by
//     the compaction depth), and publishes a new View atomically.
//     Concurrent readers keep whichever View they loaded; a View, once
//     published, is never mutated.
//   - Compact folds base + delta into fresh build artifacts (validated
//     end to end) that the caller persists and hot-swaps; Rebase then
//     re-anchors the overlay on the new artifacts, dropping every patch
//     the snapshot absorbed (sequence numbers ≤ the compaction marker)
//     and keeping patches that raced in during the fold. Delta user ids
//     are assigned contiguously after the base ids and survive
//     compaction unchanged, so clients never observe an id remap.
//
// Placement and re-solve, per upsert:
//
//  1. The merged profile is hashed with every configuration's
//     generative function (items the build never saw hash through the
//     same seeded family).
//  2. Within each configuration the coarse bucket is narrowed by the
//     recursive splitting rule (§II-D) — the upserted profile descends
//     the same η-filtered partition the build used, so the candidate
//     set is the cluster the user would have joined, not the whole
//     bucket.
//  3. Candidates from all configurations (plus delta users sharing a
//     bucket and, for profile updates, the user's current neighbors)
//     are deduplicated and scored with the blocked AND-popcount kernel
//     against base and delta fingerprints; the best K become the user's
//     row.
//  4. The edge is symmetrized locally: each new neighbor's row is
//     patched (copy, insert, truncate to K) when the new user beats its
//     worst retained edge — the same strict-improvement rule the
//     builder's bounded heaps apply.
//
// The overlay is an approximation with a deliberate bound: rows of
// users that are *not* among the upserted user's top-K are left
// untouched (reverse edges beyond the local patch appear only at the
// next full rebuild), and a profile update does not re-score rows that
// held the user before the update. The equivalence experiment
// (experiments.Update, BENCH_update.json) measures the effect: recall
// after absorbing a user stream stays within the golden band of a
// from-scratch build.
package delta

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"c2knn/internal/dataset"
	"c2knn/internal/frh"
	"c2knn/internal/goldfinger"
	"c2knn/internal/knng"
	"c2knn/internal/sets"
	"c2knn/internal/similarity"
)

// Config parameterizes an overlay. The FRH options should match the
// parameters the base graph was built with: any consistent family
// yields correct (locality-preserving) placement, but matching the
// build's B/T/MaxSize/Seed makes the candidate clusters the very ones
// the builder solved.
type Config struct {
	// K is the neighborhood bound; zero takes the base graph's K, any
	// other value must equal it (rows merge edge-for-edge).
	K int
	// FRH configures the generative hash family used for placement.
	// Zero fields take the paper's defaults.
	FRH frh.Options
	// GFSeed is the fingerprint item-hash seed the base fingerprints
	// were built with. Snapshots do not record it (fingerprints are
	// self-contained for scoring); it only matters for summarizing
	// incoming profiles, and a mismatched seed degrades placement
	// quality, never safety.
	GFSeed uint32
	// MaxItems bounds accepted item ids: an upsert carrying an item id
	// ≥ MaxItems is rejected. This caps the growth of every per-item
	// structure (scorer scratch, compacted datasets). Zero defaults to
	// twice the base item universe, with a 4096-id floor of headroom.
	MaxItems int32
	// now stubs time.Now in tests.
	now func() time.Time
}

// Overlay is the mutable delta layer over one base snapshot. Reads go
// through View (lock-free, allocation-free); writes serialize on an
// internal mutex. Safe for any number of concurrent readers alongside
// one or more writers.
type Overlay struct {
	cfg   Config
	bits  int // fingerprint width
	words int // fingerprint words (bits/64)

	view atomic.Pointer[View]

	mu          sync.Mutex
	hasher      *frh.Hasher
	buckets     [][][]int32          // [fn][idx] → base users coarsely hashing to idx
	deltaCoarse []map[uint32][]int32 // [fn][idx] → delta users coarsely hashing to idx
	seq         uint64               // last assigned upsert sequence number
	marker      uint64               // highest sequence number absorbed by compaction
	upserts     uint64
	compactions uint64
	pending     time.Time // arrival of the oldest un-compacted upsert (zero: none)

	cand []int32         // candidate scratch, writer-only
	heap []knng.Neighbor // row-sort scratch, writer-only
}

// Result reports one absorbed upsert.
type Result struct {
	// User is the id the profile landed on; for inserts (user < 0) it is
	// the newly assigned id, contiguous after the base ids.
	User int32 `json:"user"`
	// Seq is the overlay sequence number after this upsert; reads made
	// against a view at or above it observe the write.
	Seq uint64 `json:"seq"`
	// Created reports whether a new user id was assigned.
	Created bool `json:"created,omitempty"`
	// Candidates is the number of cluster-local candidates scored.
	Candidates int `json:"candidates,omitempty"`
	// Patched is the number of existing neighbor rows the upsert edited.
	Patched int `json:"patched,omitempty"`
}

// Stats is the observability snapshot of an overlay.
type Stats struct {
	// Depth is the number of upserts not yet folded into a snapshot.
	Depth int `json:"depth"`
	// Users is the number of delta users beyond the base snapshot.
	Users int `json:"users"`
	// PatchedRows is the number of materialized row patches held.
	PatchedRows int `json:"patched_rows"`
	// AgeSec is the age of the oldest un-compacted upsert in seconds.
	AgeSec float64 `json:"age_sec"`
	// Upserts and Compactions are lifetime counters.
	Upserts     uint64 `json:"upserts"`
	Compactions uint64 `json:"compactions"`
	// Seq and Marker expose the sequence cursor and the last compaction
	// marker (Depth = Seq − Marker).
	Seq    uint64 `json:"seq"`
	Marker uint64 `json:"marker"`
}

// Attach builds an overlay over the given base artifacts. The one-time
// cost is hashing every base user into its coarse buckets (linear in
// the ratings); after that each upsert touches only its own clusters.
// The artifacts must be mutually consistent (equal user counts) and gf
// must be present — fingerprints are what upserts are scored with.
func Attach(graph *knng.Frozen, train *dataset.Dataset, gf *goldfinger.Set, cfg Config) (*Overlay, error) {
	if graph == nil || train == nil || gf == nil {
		return nil, fmt.Errorf("delta: attach needs a graph, a dataset and fingerprints (rebuild the snapshot with fingerprints to enable upserts)")
	}
	n := train.NumUsers()
	if graph.NumUsers() != n || gf.NumUsers() != n {
		return nil, fmt.Errorf("delta: inconsistent base: %d graph users, %d profiles, %d fingerprints",
			graph.NumUsers(), n, gf.NumUsers())
	}
	if cfg.K == 0 {
		cfg.K = graph.K
	}
	if cfg.K != graph.K {
		return nil, fmt.Errorf("delta: k=%d does not match the base graph's k=%d", cfg.K, graph.K)
	}
	if cfg.FRH.B == 0 {
		cfg.FRH.B = frh.DefaultB
	}
	if cfg.FRH.T == 0 {
		cfg.FRH.T = frh.DefaultT
	}
	if cfg.FRH.MaxSize == 0 {
		cfg.FRH.MaxSize = frh.DefaultMaxSize
	}
	if cfg.MaxItems <= 0 {
		cfg.MaxItems = train.NumItems + max(train.NumItems, 4096)
	}
	if cfg.MaxItems < train.NumItems {
		return nil, fmt.Errorf("delta: MaxItems=%d below the base item universe %d", cfg.MaxItems, train.NumItems)
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	o := &Overlay{
		cfg:    cfg,
		bits:   gf.Bits(),
		words:  gf.Bits() / 64,
		hasher: frh.NewHasher(train.NumItems, cfg.FRH),
	}
	t := cfg.FRH.T
	o.buckets = make([][][]int32, t)
	o.deltaCoarse = make([]map[uint32][]int32, t)
	frh.ForEachFn(t, cfg.FRH.Parallelism, func(fn int) frh.Stats {
		b := make([][]int32, cfg.FRH.B+1) // index 0 unused; hashes ∈ [1, B]
		for u, p := range train.Profiles {
			if idx, ok := o.hasher.UserHash(fn, p); ok {
				b[idx] = append(b[idx], int32(u))
			}
		}
		o.buckets[fn] = b
		o.deltaCoarse[fn] = make(map[uint32][]int32)
		return frh.Stats{}
	})
	o.view.Store(&View{
		graph:    graph,
		train:    train,
		gf:       gf,
		baseN:    int32(n),
		numUsers: int32(n),
		numItems: train.NumItems,
		rows:     map[int32]rowEntry{},
		profiles: map[int32]profEntry{},
		sigs:     map[int32]sigEntry{},
	})
	return o, nil
}

// View returns the current published view. The result is immutable and
// remains fully usable (and consistent) for as long as the caller holds
// it, however many upserts or compactions happen afterwards.
func (o *Overlay) View() *View { return o.view.Load() }

// Stats snapshots the overlay's counters.
func (o *Overlay) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	v := o.view.Load()
	s := Stats{
		Depth:       int(o.seq - o.marker),
		Users:       int(v.numUsers - v.baseN),
		PatchedRows: len(v.rows),
		Upserts:     o.upserts,
		Compactions: o.compactions,
		Seq:         o.seq,
		Marker:      o.marker,
	}
	if !o.pending.IsZero() {
		s.AgeSec = o.cfg.now().Sub(o.pending).Seconds()
	}
	return s
}

// Upsert absorbs one profile. user < 0 inserts a new user (the assigned
// id is returned); an existing id merges items into that user's profile
// and re-solves it. Items must be non-negative and below
// Config.MaxItems. The absorbed write is visible to every View loaded
// after Upsert returns. Safe for concurrent use with readers and other
// upserters (writers serialize).
func (o *Overlay) Upsert(user int32, items []int32) (Result, error) {
	norm := sets.Normalize(slices.Clone(items))
	if len(norm) == 0 {
		return Result{}, fmt.Errorf("delta: upsert needs a non-empty item set")
	}
	if norm[0] < 0 || norm[len(norm)-1] >= o.cfg.MaxItems {
		return Result{}, fmt.Errorf("delta: item ids must lie in [0, %d)", o.cfg.MaxItems)
	}

	o.mu.Lock()
	defer o.mu.Unlock()
	cur := o.view.Load()

	u := user
	created := false
	var oldProfile []int32
	if user < 0 {
		u = cur.numUsers
		created = true
	} else {
		if user >= cur.numUsers {
			return Result{}, fmt.Errorf("delta: user %d does not exist (upsert with user=-1 to insert)", user)
		}
		oldProfile = cur.Profile(u)
		merged := sets.Union(oldProfile, norm)
		if sets.Equal(merged, oldProfile) {
			// Nothing new: report the current cursor without burning a
			// sequence number or republishing.
			return Result{User: u, Seq: cur.seq}, nil
		}
		norm = merged
	}

	// Fingerprint the merged profile with the base family so it scores
	// against the snapshot's signature slab bit-for-bit.
	sig := make([]uint64, o.words)
	ones := goldfinger.Summarize(norm, o.bits, o.cfg.GFSeed, sig)

	// Localize: the clusters this profile hashes into, across every
	// configuration, plus same-bucket delta users and (for updates) the
	// current neighbors. Sorted + deduplicated for a deterministic solve.
	cand := o.cand[:0]
	for fn := 0; fn < o.cfg.FRH.T; fn++ {
		idx, ok := o.hasher.UserHashAny(fn, norm)
		if !ok {
			continue
		}
		cand = append(cand, o.descend(cur, fn, idx, norm)...)
		cand = append(cand, o.deltaCoarse[fn][idx]...)
	}
	if !created {
		ids, _ := cur.Neighbors(u)
		cand = append(cand, ids...)
	}
	slices.Sort(cand)
	cand = slices.Compact(cand)
	o.cand = cand[:0:cap(cand)]

	// Localized re-solve: score u against the candidates through the
	// active count kernel's single-row form (the candidates are
	// scattered, so there is no contiguous run to block), keeping the
	// best K in a bounded heap — the same acceptance rules the
	// builder's solvers apply.
	list := knng.List{K: o.cfg.K, H: o.heap[:0]}
	scored := 0
	for _, v := range cand {
		if v == u {
			continue
		}
		sigV, onesV := cur.signature(v)
		inter := similarity.KernelAndCount(sig, sigV)
		union := int(ones) + int(onesV) - inter
		scored++
		if union > 0 {
			list.Insert(v, float64(inter)/float64(union))
		}
	}
	o.heap = list.H[:0:cap(list.H)]

	// Materialize u's row in canonical frozen order.
	row := slices.Clone(list.H)
	knng.SortCanonical(row)
	rowIDs := make([]int32, len(row))
	rowSims := make([]float32, len(row))
	for i, nb := range row {
		rowIDs[i] = nb.ID
		rowSims[i] = float32(nb.Sim)
	}

	// Copy-on-write: fresh maps, then the new entries. Readers holding
	// the previous view never observe any of this.
	seq := o.seq + 1
	rows := make(map[int32]rowEntry, len(cur.rows)+1+len(rowIDs))
	for k, e := range cur.rows {
		rows[k] = e
	}
	profiles := make(map[int32]profEntry, len(cur.profiles)+1)
	for k, e := range cur.profiles {
		profiles[k] = e
	}
	sigs := make(map[int32]sigEntry, len(cur.sigs)+1)
	for k, e := range cur.sigs {
		sigs[k] = e
	}
	rows[u] = rowEntry{ids: rowIDs, sims: rowSims, seq: seq}
	profiles[u] = profEntry{items: norm, seq: seq}
	sigs[u] = sigEntry{words: sig, ones: ones, seq: seq}

	// Symmetrize locally: offer (u, sim) to each new neighbor's row.
	patched := 0
	for i, v := range rowIDs {
		if ids, sims, ok := patchRow(cur, v, u, rowSims[i], o.cfg.K); ok {
			rows[v] = rowEntry{ids: ids, sims: sims, seq: seq}
			patched++
		}
	}

	next := &View{
		graph:    cur.graph,
		train:    cur.train,
		gf:       cur.gf,
		baseN:    cur.baseN,
		numUsers: cur.numUsers,
		numItems: max(cur.numItems, norm[len(norm)-1]+1),
		seq:      seq,
		rows:     rows,
		profiles: profiles,
		sigs:     sigs,
	}
	if created {
		next.numUsers++
	}
	o.view.Store(next)

	// Writer-side bucket maintenance (readers never see these).
	if created {
		for fn := 0; fn < o.cfg.FRH.T; fn++ {
			if idx, ok := o.hasher.UserHashAny(fn, norm); ok {
				o.deltaCoarse[fn][idx] = append(o.deltaCoarse[fn][idx], u)
			}
		}
	} else {
		o.moveBuckets(u, oldProfile, norm, u < cur.baseN)
	}
	o.seq = seq
	o.upserts++
	if o.pending.IsZero() {
		o.pending = o.cfg.now()
	}
	return Result{User: u, Seq: seq, Created: created, Candidates: scored, Patched: patched}, nil
}

// descend narrows a coarse bucket to the final cluster the profile
// would have joined, replaying the recursive splitting rule (§II-D) on
// the bucket's current members: at each level the members partition by
// their hash above η, the profile follows its own hash — or the
// remainder when no item hashes above η, exactly as the builder leaves
// such users in C. Singleton children return to the remainder, also
// mirroring the builder.
func (o *Overlay) descend(cur *View, fn int, idx uint32, profile []int32) []int32 {
	members := o.buckets[fn][idx]
	if o.cfg.FRH.MaxSize < 0 {
		return members
	}
	eta := idx
	for len(members) > o.cfg.FRH.MaxSize {
		target, ok := o.hasher.UserHashAboveAny(fn, profile, eta)
		var child, remainder []int32
		for _, v := range members {
			hv, vok := o.hasher.UserHashAboveAny(fn, cur.Profile(v), eta)
			switch {
			case !vok:
				remainder = append(remainder, v)
			case ok && hv == target:
				child = append(child, v)
			}
		}
		if !ok || len(child) == 0 {
			// The profile stays in (or returns as a singleton to) the
			// remainder cluster, which is final.
			return remainder
		}
		members, eta = child, target
	}
	return members
}

// moveBuckets re-files a user whose profile changed: its coarse bucket
// in a configuration may have moved (the min-hash can only decrease or
// stay when items are added to the tables' range, but new items beyond
// them hash anywhere). base selects which side (base buckets vs delta
// coarse map) the user is filed on.
func (o *Overlay) moveBuckets(u int32, oldProfile, newProfile []int32, base bool) {
	for fn := 0; fn < o.cfg.FRH.T; fn++ {
		oldIdx, oldOK := o.hasher.UserHashAny(fn, oldProfile)
		newIdx, newOK := o.hasher.UserHashAny(fn, newProfile)
		if oldOK == newOK && oldIdx == newIdx {
			continue
		}
		if oldOK {
			if base {
				o.buckets[fn][oldIdx] = removeID(o.buckets[fn][oldIdx], u)
			} else {
				o.deltaCoarse[fn][oldIdx] = removeID(o.deltaCoarse[fn][oldIdx], u)
			}
		}
		if newOK {
			if base {
				o.buckets[fn][newIdx] = append(o.buckets[fn][newIdx], u)
			} else {
				o.deltaCoarse[fn][newIdx] = append(o.deltaCoarse[fn][newIdx], u)
			}
		}
	}
}

func removeID(s []int32, u int32) []int32 {
	for i, v := range s {
		if v == u {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// patchRow offers the edge (u, sim) to v's current row and, when it is
// accepted, returns a fresh patched row in canonical order. Acceptance
// mirrors the builder's bounded heaps: a room-for-more row takes any
// non-negative sim, a full row only a strict improvement over its worst
// edge; an existing (v → u) edge is re-scored in place when the
// similarity changed (a profile update shifted it).
func patchRow(cur *View, v, u int32, sim float32, k int) ([]int32, []float32, bool) {
	if k <= 0 || sim < 0 || sim != sim {
		return nil, nil, false
	}
	ids, sims := cur.Neighbors(v)
	at := -1
	for i, id := range ids {
		if id == u {
			at = i
			break
		}
	}
	if at >= 0 && sims[at] == sim {
		return nil, nil, false // already present at this similarity
	}
	if at < 0 && len(ids) >= k && sim <= sims[len(sims)-1] {
		return nil, nil, false // full row, no strict improvement
	}
	merged := make([]knng.Neighbor, 0, len(ids)+1)
	for i, id := range ids {
		if i == at {
			continue
		}
		merged = append(merged, knng.Neighbor{ID: id, Sim: float64(sims[i])})
	}
	merged = append(merged, knng.Neighbor{ID: u, Sim: float64(sim)})
	knng.SortCanonical(merged)
	if len(merged) > k {
		merged = merged[:k]
	}
	outIDs := make([]int32, len(merged))
	outSims := make([]float32, len(merged))
	for i, nb := range merged {
		outIDs[i] = nb.ID
		outSims[i] = float32(nb.Sim)
	}
	return outIDs, outSims, true
}
