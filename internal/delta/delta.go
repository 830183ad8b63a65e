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
// An upsert therefore costs t localized cluster re-solves, not a build:
// BenchmarkUpsert, streaming 1,024 users into an ml10M lookalike at the
// paper's B, T and N, scores 4,050 candidates per upsert at 6.2–7.9 ms
// per upsert (medians of two sets of 6 and 10 runs on a 2-vCPU x86-64
// VM, avx512 arm). About 60 % of that CPU is placement, which
// re-partitions each oversized bucket.
//
// Structure, from the reader inward:
//
//   - View is an immutable published snapshot of the overlay: the base
//     artifacts (frozen graph, training profiles, fingerprints) plus
//     one map holding a patch record per user an upsert has touched —
//     the materialized neighbor row and, where the user's profile
//     changed, the profile and its fingerprint. Readers load the
//     current View with one atomic pointer read and never take a lock;
//     every access after that is a map probe or a base-array view, so
//     the merged read path allocates nothing. A View with no records
//     (NewView) is the base alone: read-only indexes serve through it
//     too, so there is one read path whether or not upserts are on.
//   - Overlay owns the writer state: the FRH hasher, the per-
//     configuration coarse bucket membership of every user, base and
//     delta, under its current profile, and the sequence counter. The
//     hasher is the family the base graph records (knng.Clustering:
//     B, T, N, seed), and incoming profiles are fingerprinted with the
//     base fingerprints' seed; an overlay takes no configuration, so
//     placement cannot drift from the build. A graph without the
//     record cannot be attached.
//     Attach takes the bucket membership from the table a C² snapshot
//     carries (frh.Table): a copy it owns, checked in O(n·T) and on a
//     re-hashed sample, 0.3 ms on an ml1M lookalike and 2.2 ms on
//     ml10M (see Attach). Without a table it computes one in a pass
//     over the base ratings, 0.8 ms and 9.5 ms. Upserts never write the
//     table: the first re-filing into or out of a bucket copies that
//     bucket, and later ones edit the copy. Upsert runs under a
//     single writer mutex, copies the one record map (copy-on-write —
//     bounded by the compaction depth), writes fresh records for the
//     user and the neighbors whose rows it patches, and publishes a new
//     View atomically.
//     Concurrent readers keep whichever View they loaded; a View, once
//     published, is never mutated.
//   - Compact folds base + delta into fresh build artifacts (validated
//     end to end) that the caller persists and hot-swaps; Rebase then
//     re-anchors the overlay on the new artifacts, dropping every
//     record the snapshot absorbed (sequence numbers ≤ the compaction
//     marker) and keeping records that raced in during the fold. Delta
//     user ids are assigned contiguously after the base ids and survive
//     compaction unchanged, so clients never observe an id remap.
//
// Placement and re-solve, per upsert:
//
//  1. The merged profile is hashed with every configuration's
//     generative function (items the build never saw hash through the
//     same seeded family).
//  2. The user is re-filed under its new coarse buckets, and within
//     each configuration frh.Hasher.Place narrows its bucket by the
//     recursive splitting rule (§II-D), through the same partition
//     routine the builder splits with. The candidate set is the cluster
//     a build over every user's current profile would put the user in,
//     not the whole bucket.
//  3. Candidates from all configurations (plus, for profile updates,
//     the user's current neighbors) are deduplicated and scored with
//     the AND-popcount kernel against base and delta fingerprints; the
//     best K become the user's row.
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
// (experiments.Update, `c2bench -exp update`) measures the effect: recall
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

// config is what Attach reads off the base artifacts. Nothing in it is
// a caller's choice: an overlay places and scores exactly as the build
// did.
type config struct {
	// Clustering is the placement family: the FastRandomHash family the
	// base graph records, so every upsert lands in the cluster the
	// builder would put it in over the current profiles
	// (TestDescendMatchesBuilder pins this).
	Clustering knng.Clustering
	// GFSeed is the item-hash seed of the base fingerprints, which
	// incoming profiles are summarized with.
	GFSeed uint32
	// K is the base graph's neighborhood bound (rows merge
	// edge-for-edge).
	K int
	// MaxItems bounds accepted item ids: an upsert carrying an item id
	// ≥ MaxItems is rejected. This caps the growth of every per-item
	// structure (scorer scratch, compacted datasets): twice the base
	// item universe, with a 4096-id floor of headroom.
	MaxItems int32
	// now stubs time.Now in tests.
	now func() time.Time
}

// Overlay is the mutable delta layer over one base snapshot. Reads go
// through View (lock-free, allocation-free); writes serialize on an
// internal mutex. Safe for any number of concurrent readers alongside
// one or more writers.
type Overlay struct {
	cfg   config
	bits  int // fingerprint width
	words int // fingerprint words (bits/64)

	view atomic.Pointer[View]

	mu     sync.Mutex
	hasher *frh.Hasher
	// buckets files every base user under its base profile; the overlay
	// owns it and never writes it. moved holds each (configuration,
	// bucket) an upsert has re-filed a user into or out of, keyed by
	// bucketKey: a copy of the base bucket made at the first such write,
	// which every later one edits. Together they list every user, base or
	// delta, under its current profile.
	buckets     *frh.Table
	moved       map[uint32][]int32
	seq         uint64 // last assigned upsert sequence number
	marker      uint64 // highest sequence number absorbed by compaction
	upserts     uint64
	compactions uint64
	pending     time.Time // arrival of the oldest un-compacted upsert (zero: none)
	source      string    // where Attach took the buckets from (Stats.Buckets)
	attach      time.Duration

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
	// Placement is the FastRandomHash family upserts are placed with:
	// the one the base graph records.
	Placement knng.Clustering `json:"placement"`
	// Buckets says where Attach took the base users' coarse buckets
	// from: "snapshot" when it copied the table a C² snapshot carries,
	// "computed" when it hashed every profile.
	Buckets string `json:"buckets"`
	// AttachMS is how long Attach took, in milliseconds.
	AttachMS float64 `json:"attach_ms"`
}

// Attach builds an overlay over the given base artifacts. The one-time
// cost is the base users' coarse bucket in every configuration. buckets
// is the table a C² snapshot carries (persist.Snapshot.Buckets), or nil:
//
//   - From a table, Attach copies it into memory the overlay owns, so no
//     Rebase or unmap can leave the overlay holding a dead view, and
//     checks the copy (frh.Hasher.CopyTable): its shape in O(n·T), and
//     the buckets of a fixed sample of users in every configuration
//     against their hashes. A table that fails is refused with an error.
//   - Without one, frh.Hasher.Table computes it in one pass over the
//     ratings for all t configurations: the function the snapshot writer
//     persists the table with.
//
// Measured in-process on a 2-vCPU x86-64 VM (avx512 arm, B = 4096,
// T = 8), the p50 from the table is 0.31 ms on an ml1M lookalike (592k
// ratings, BenchmarkAttach) and 2.2 ms on ml10M (5.9M ratings);
// computing it takes 0.8 and 9.5 ms. EXPERIMENTS.md, "Attaching from
// the snapshot's bucket table", has the runs. After that each upsert
// touches only its own clusters.
//
// Upserts are placed with the FastRandomHash family graph records
// (knng.Frozen.Clustering) and fingerprinted with gf's item-hash seed,
// so an upsert lands where a rebuild would put it. Attach refuses a
// graph that records no family (a baseline's, or one from a snapshot
// written before the record existed) and one whose record fails
// knng.Clustering.Check (B outside [1, 65535], T outside [1, 64], N of
// 0 or below −1). The artifacts must be mutually consistent
// (equal user counts) and gf must be present — fingerprints are what
// upserts are scored with.
func Attach(graph *knng.Frozen, train *dataset.Dataset, gf *goldfinger.Set, buckets *frh.Table) (*Overlay, error) {
	start := time.Now()
	if graph == nil || train == nil || gf == nil {
		return nil, fmt.Errorf("delta: attach needs a graph, a dataset and fingerprints (rebuild the snapshot with fingerprints to enable upserts)")
	}
	n := train.NumUsers()
	if graph.NumUsers() != n || gf.NumUsers() != n {
		return nil, fmt.Errorf("delta: inconsistent base: %d graph users, %d profiles, %d fingerprints",
			graph.NumUsers(), n, gf.NumUsers())
	}
	c := graph.Clustering
	if c == (knng.Clustering{}) {
		return nil, fmt.Errorf("delta: the graph records no FastRandomHash clustering to place upserts with; rebuild the snapshot with c2build -algo c2")
	}
	if err := c.Check(); err != nil {
		return nil, fmt.Errorf("delta: %w", err)
	}
	o := &Overlay{
		cfg: config{
			Clustering: c,
			GFSeed:     gf.Seed(),
			K:          graph.K,
			MaxItems:   train.NumItems + max(train.NumItems, 4096),
			now:        time.Now,
		},
		bits:   gf.Bits(),
		words:  gf.Bits() / 64,
		hasher: frh.NewHasher(train.NumItems, frh.Options{B: c.B, T: c.T, Seed: c.Seed}),
		moved:  make(map[uint32][]int32),
	}
	if buckets != nil {
		tab, err := o.hasher.CopyTable(buckets, train.Profiles)
		if err != nil {
			return nil, fmt.Errorf("delta: snapshot %w", err)
		}
		o.buckets, o.source = tab, "snapshot"
	} else {
		o.buckets, o.source = o.hasher.Table(train.Profiles), "computed"
	}
	o.view.Store(NewView(graph, train, gf))
	o.attach = time.Since(start)
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
		PatchedRows: len(v.patches),
		Upserts:     o.upserts,
		Compactions: o.compactions,
		Seq:         o.seq,
		Marker:      o.marker,
		Placement:   o.cfg.Clustering,
		Buckets:     o.source,
		AttachMS:    o.attach.Seconds() * 1e3,
	}
	if !o.pending.IsZero() {
		s.AgeSec = o.cfg.now().Sub(o.pending).Seconds()
	}
	return s
}

// Upsert absorbs one profile. user < 0 inserts a new user (the assigned
// id is returned); an existing id merges items into that user's profile
// and re-solves it. Items must be non-negative and below the item-id
// bound (config.MaxItems). The absorbed write is visible to every View
// loaded after Upsert returns. Safe for concurrent use with readers and
// other upserters (writers serialize).
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

	// Localize: file u under its new profile, then take the cluster the
	// builder would put u in within each configuration, plus (for
	// updates) the current neighbors. Sorted + deduplicated for a
	// deterministic solve.
	o.moveBuckets(u, oldProfile, norm)
	profile := func(v int32) []int32 {
		if v == u {
			return norm
		}
		return cur.Profile(v)
	}
	cand := o.cand[:0]
	for fn := 0; fn < o.cfg.Clustering.T; fn++ {
		cand = append(cand, o.place(fn, u, profile)...)
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

	// Copy-on-write: a fresh map, then fresh records. Readers holding
	// the previous view never observe any of this, and records already
	// published stay as they are: a patched neighbor gets a new copy of
	// its record.
	seq := o.seq + 1
	patches := make(map[int32]*patch, len(cur.patches)+1+len(rowIDs))
	for k, p := range cur.patches {
		patches[k] = p
	}
	patches[u] = &patch{ids: rowIDs, sims: rowSims, items: norm, words: sig, ones: ones, seq: seq}

	// Symmetrize locally: offer (u, sim) to each new neighbor's row.
	patched := 0
	for i, v := range rowIDs {
		if ids, sims, ok := patchRow(cur, v, u, rowSims[i], o.cfg.K); ok {
			p := &patch{}
			if old := cur.patches[v]; old != nil {
				*p = *old
			}
			p.ids, p.sims, p.seq = ids, sims, seq
			patches[v] = p
			patched++
		}
	}

	next := *cur
	next.numItems = max(cur.numItems, norm[len(norm)-1]+1)
	next.seq = seq
	next.patches = patches
	if created {
		next.numUsers++
	}
	o.view.Store(&next)
	o.seq = seq
	o.upserts++
	if o.pending.IsZero() {
		o.pending = o.cfg.now()
	}
	return Result{User: u, Seq: seq, Created: created, Candidates: scored, Patched: patched}, nil
}

// place returns the final cluster u belongs to in configuration fn, as
// the builder would split u's coarse bucket over every filed user's
// current profile. profile must return u's new profile, and u must
// already be filed under it.
func (o *Overlay) place(fn int, u int32, profile func(int32) []int32) []int32 {
	idx, ok := o.hasher.UserHash(fn, profile(u))
	if !ok {
		return nil // an empty profile is in no cluster
	}
	return o.hasher.Place(fn, idx, o.bucket(fn, idx), u, o.cfg.Clustering.N, profile)
}

// bucketKey keys moved: idx ≤ 65535 and fn < 64.
func bucketKey(fn int, idx uint32) uint32 { return uint32(fn)<<16 | idx }

// bucket returns the members of bucket idx in configuration fn. The
// result aliases the overlay's state and must not be modified.
func (o *Overlay) bucket(fn int, idx uint32) []int32 {
	if b, ok := o.moved[bucketKey(fn, idx)]; ok {
		return b
	}
	return o.buckets.Bucket(fn, idx)
}

// Cluster returns the cluster user u belongs to in configuration fn of
// the placement family: the one a build over every user's current
// profile would put u in. The slice is the caller's.
func (o *Overlay) Cluster(fn int, u int32) []int32 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return slices.Clone(o.place(fn, u, o.view.Load().Profile))
}

// moveBuckets re-files u from the coarse buckets of its old profile (nil
// for a new user) to those of its new one, in every configuration where
// the two differ.
func (o *Overlay) moveBuckets(u int32, oldProfile, newProfile []int32) {
	for fn := 0; fn < o.cfg.Clustering.T; fn++ {
		oldIdx, oldOK := o.hasher.UserHash(fn, oldProfile)
		newIdx, _ := o.hasher.UserHash(fn, newProfile)
		if oldOK && oldIdx == newIdx {
			continue
		}
		if oldOK {
			o.moved[bucketKey(fn, oldIdx)] = removeID(o.ownBucket(fn, oldIdx), u)
		}
		o.moved[bucketKey(fn, newIdx)] = append(o.ownBucket(fn, newIdx), u)
	}
}

// ownBucket returns bucket idx of configuration fn for editing: its
// entry in moved, made on the first call as a copy of the base bucket.
func (o *Overlay) ownBucket(fn int, idx uint32) []int32 {
	key := bucketKey(fn, idx)
	b, ok := o.moved[key]
	if !ok {
		b = slices.Clone(o.buckets.Bucket(fn, idx))
		o.moved[key] = b
	}
	return b
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
