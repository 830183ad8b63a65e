// Package frh implements FastRandomHash, the clustering scheme at the
// heart of Cluster-and-Conquer (§II-D). A generative hash function
// h : I → [1, b] maps items to a small bounded range; a user's hash is the
// minimum hash over her profile, H(u) = min_{i∈P_u} h(i). Each of t
// independent generative functions yields one clustering configuration of
// b clusters, so similar users — who share items — collide in at least one
// configuration with probability growing exponentially in t (Theorem 1).
//
// The min aggregation biases users towards low cluster indices, so
// oversized clusters are recursively split (§II-D, Fig. 3): a cluster C
// with index η_C larger than MaxSize redistributes its users by
// H\η_C(u) = min{h(i) : i ∈ P_u, h(i) > η_C}. Users with no item hashed
// above η_C (in particular single-item users) and users who would land
// alone in their new cluster remain in C.
//
// Hashing is one pass over the ratings for all t configurations. The
// Hasher stores the item hashes item-major, eight configurations to a
// 16-byte row, so a user's coarse hashes in a group of eight are the
// lane-wise minimum of its profile's rows: one VPMINUW per rating on
// amd64 with a vector similarity kernel active, a Go loop otherwise.
// Each configuration then counting-sorts its column into its B buckets
// of a Table. Build and Stream bucket through this pass, and so does the
// snapshot writer, which persists the Table a C² snapshot carries for
// the delta overlay to attach from; only the recursive splitting walks
// profiles per configuration.
//
// One routine, partition, applies a level of the splitting rule. Build
// recurses over it to emit every cluster; Place follows one user's
// branch of it, which is how the delta overlay finds the cluster an
// upserted profile belongs to. Both therefore agree on every user's
// cluster by construction.
package frh

import (
	"runtime"
	"slices"
	"sort"

	"c2knn/internal/dataset"
	"c2knn/internal/jenkins"
	"c2knn/internal/schedule"
)

// Options parameterizes the clustering. Zero fields take the paper's
// defaults.
type Options struct {
	// B is the number of clusters per hash function (default 4096).
	B int
	// T is the number of hash functions, i.e. clustering configurations
	// (default 8; the paper uses 15 on DBLP and Gowalla).
	T int
	// MaxSize is the recursive-splitting threshold N (default 2000).
	// Negative disables splitting.
	MaxSize int
	// Seed selects the family of generative hash functions.
	Seed int64
}

// DefaultB, DefaultT and DefaultMaxSize are the paper's default
// parameters (§IV-C).
const (
	DefaultB       = 4096
	DefaultT       = 8
	DefaultMaxSize = 2000
)

func (o *Options) setDefaults() {
	if o.B == 0 {
		o.B = DefaultB
	}
	if o.T == 0 {
		o.T = DefaultT
	}
	if o.MaxSize == 0 {
		o.MaxSize = DefaultMaxSize
	}
}

// Cluster is one cluster of one clustering configuration.
type Cluster struct {
	// Fn identifies the generative hash function (configuration) in
	// [0, T).
	Fn int
	// Index is the FastRandomHash value η_C shared by the cluster's
	// users, in [1, B]. After a split, the index of a child cluster is
	// the (higher) hash value that formed it.
	Index uint32
	// Users lists the member user ids.
	Users []int32
}

// Stats describes the outcome of a clustering run.
type Stats struct {
	// Clusters is the total number of clusters across all configurations.
	Clusters int
	// Splits counts split operations performed.
	Splits int
	// MaxCluster is the size of the largest final cluster.
	MaxCluster int
	// Depth is the deepest recursion reached by the splitting.
	Depth int
	// PerFn is the number of clusters per configuration.
	PerFn []int
}

// lanes is the number of configurations one table row carries: eight
// uint16 hashes fill one 16-byte vector register.
const lanes = 8

// Hasher precomputes the hash of every item under every configuration
// in one item-major table. Configurations are packed eight to a group:
// rows[g][item] holds h_{8g}(item), …, h_{8g+7}(item) in eight uint16
// lanes, and the lanes of the last group past T are padded with 0xFFFF.
// A user's hashes under all eight configurations of a group are then
// the lane-wise minimum of its profile's rows — one 16-byte load and
// one VPMINUW per rating on amd64 — so hashAll walks the ratings once
// per group instead of once per configuration. ItemHash, UserHash and
// UserHashAbove read single lanes of the same table, and hash items
// beyond it directly with the same per-configuration seeds.
type Hasher struct {
	b     int
	t     int
	rows  [][][lanes]uint16 // rows[fn/lanes][item][fn%lanes] ∈ [1, b]
	seeds []uint32          // per-configuration seeds, for items beyond the table
}

// NewHasher builds the item hash table for a dataset. b must be at
// most 65535 (values are stored in uint16; the paper's default is 4096).
// The table is filled row by row, all eight lanes of an item at once
// (see hashRows), with the items split into contiguous ranges over up
// to GOMAXPROCS goroutines.
func NewHasher(numItems int32, o Options) *Hasher {
	o.setDefaults()
	if o.B > 0xffff {
		panic("frh: B must fit in 16 bits")
	}
	fam := jenkins.NewFamily(o.T, o.Seed)
	groups := (o.T + lanes - 1) / lanes
	h := &Hasher{b: o.B, t: o.T, rows: make([][][lanes]uint16, groups), seeds: make([]uint32, o.T)}
	for fn := range h.seeds {
		h.seeds[fn] = fam.Seed(fn)
	}
	for g := range h.rows {
		h.rows[g] = make([][lanes]uint16, numItems)
	}
	n := int(numItems)
	parts := max(min(runtime.GOMAXPROCS(0), n/minItemsPerPart), 1)
	schedule.Run(parts, parts, func(_, part int) {
		lo, hi := part*n/parts, (part+1)*n/parts
		for g, tab := range h.rows {
			hashRows(h.seeds[g*lanes:min((g+1)*lanes, o.T)], uint32(o.B), lo, tab[lo:hi])
		}
	})
	return h
}

// hashRowsGo fills rows[i] with h_fn(lo+i) for the configurations whose
// seeds are given, one lane each; lanes past them hold 0xFFFF, which no
// minimum takes. It is the portable form of hashRows.
func hashRowsGo(seeds []uint32, b uint32, lo int, rows [][lanes]uint16) {
	for i := range rows {
		row := [lanes]uint16{0xffff, 0xffff, 0xffff, 0xffff, 0xffff, 0xffff, 0xffff, 0xffff}
		for lane, seed := range seeds {
			row[lane] = uint16(itemHash(int32(lo+i), seed, b))
		}
		rows[i] = row
	}
}

// itemHash returns the generative hash h(item) ∈ [1, b] of the
// configuration with the given seed: the one Go form of it, which
// ItemHash and hashRowsGo share (hashRowsAVX is its vector form).
func itemHash(item int32, seed, b uint32) uint32 {
	return jenkins.Hash32(uint32(item), seed)%b + 1
}

// minItemsPerPart is the fewest items NewHasher gives a goroutine: below
// it, starting one costs more than hashing the range.
const minItemsPerPart = 1024

// B returns the number of clusters per configuration.
func (h *Hasher) B() int { return h.b }

// T returns the number of configurations.
func (h *Hasher) T() int { return h.t }

// ItemHash returns h_fn(item) ∈ [1, B] for any non-negative item id: a
// table lookup inside the precomputed universe, a direct hash beyond it.
// Profiles upserted into the delta overlay may carry items the build
// never saw; both ranges use the same seeded hash, so a Hasher over a
// larger item universe returns the same value for every item.
func (h *Hasher) ItemHash(fn int, item int32) uint32 {
	if tab := h.rows[fn/lanes]; int(item) < len(tab) {
		return uint32(tab[item][fn%lanes])
	}
	return itemHash(item, h.seeds[fn], uint32(h.b))
}

// UserHash returns H_fn(u) = min over the profile's item hashes: the
// coarse bucket the one-pass bucketing files the user under. Empty
// profiles report ok=false.
func (h *Hasher) UserHash(fn int, profile []int32) (uint32, bool) {
	if len(profile) == 0 {
		return 0, false
	}
	best := h.ItemHash(fn, profile[0])
	for _, it := range profile[1:] {
		best = min(best, h.ItemHash(fn, it))
	}
	return best, true
}

// UserHashAbove returns H\η(u) = min{h(i) : h(i) > η}, the splitting hash
// of §II-D. ok is false when no item hashes above η (such users remain in
// the cluster being split).
func (h *Hasher) UserHashAbove(fn int, profile []int32, eta uint32) (uint32, bool) {
	tab, lane := h.rows[fn/lanes], fn%lanes
	best := uint32(0)
	for _, it := range profile {
		// The table read is ItemHash inlined: the builder's splits walk
		// every profile of an oversized bucket through this loop.
		var v uint32
		if int(it) < len(tab) {
			v = uint32(tab[it][lane])
		} else {
			v = h.ItemHash(fn, it)
		}
		if v > eta && (best == 0 || v < best) {
			best = v
		}
	}
	return best, best != 0
}

// hashAll returns every user's hash under every configuration, computed
// in one pass over the ratings: all[g*n+u][lane] = H_{8g+lane}(u) for
// the n = len(profiles) users. An empty profile gets an all-zero row
// (zero is no hash value, so no bucket takes it). Users are split into
// contiguous ranges over up to GOMAXPROCS goroutines, bounded by
// parallelism when positive.
func (h *Hasher) hashAll(profiles [][]int32, parallelism int) [][lanes]uint16 {
	n := len(profiles)
	all := make([][lanes]uint16, len(h.rows)*n)
	parts := runtime.GOMAXPROCS(0)
	if parallelism > 0 {
		parts = min(parts, parallelism)
	}
	parts = max(min(parts, n), 1)
	schedule.Run(parts, parts, func(_, part int) {
		lo, hi := part*n/parts, (part+1)*n/parts
		for g, tab := range h.rows {
			out := all[g*n : (g+1)*n]
			for u := lo; u < hi; u++ {
				if p := profiles[u]; len(p) > 0 {
					minRows(tab, p, &out[u])
				}
			}
		}
	})
	return all
}

// minRowsGo sets *out to the lane-wise minimum of tab's rows for the
// non-empty items: the portable form of minRows. The accumulator lives
// in eight 32-bit scalars: the compiler keeps an array in memory, and
// 16-bit conditional moves stall on partial registers.
func minRowsGo(tab [][lanes]uint16, items []int32, out *[lanes]uint16) {
	a0, a1, a2, a3, a4, a5, a6, a7 := uint32(0xffff), uint32(0xffff), uint32(0xffff), uint32(0xffff),
		uint32(0xffff), uint32(0xffff), uint32(0xffff), uint32(0xffff)
	for _, it := range items {
		r := &tab[it]
		a0, a1, a2, a3 = min(a0, uint32(r[0])), min(a1, uint32(r[1])), min(a2, uint32(r[2])), min(a3, uint32(r[3]))
		a4, a5, a6, a7 = min(a4, uint32(r[4])), min(a5, uint32(r[5])), min(a6, uint32(r[6])), min(a7, uint32(r[7]))
	}
	*out = [lanes]uint16{uint16(a0), uint16(a1), uint16(a2), uint16(a3), uint16(a4), uint16(a5), uint16(a6), uint16(a7)}
}

// Build runs the full clustering of d: t configurations of b clusters
// each, recursively splitting clusters larger than MaxSize. Users with an
// empty profile are skipped: their hash is undefined, and since they
// cannot share an item with anyone their similarity to every other user
// is zero, so clustering them (historically into cluster 1 of every
// configuration) only inflated that cluster's O(|C|²) local work with
// guaranteed-zero-similarity pairs. The algorithm's guarantees only
// concern users that share items, so skipping preserves them.
func Build(d *dataset.Dataset, o Options) ([]Cluster, Stats) {
	o.setDefaults()
	h := NewHasher(d.NumItems, o)
	return BuildWithHasher(d, h, o)
}

// BuildWithHasher is Build with a caller-provided Hasher, so experiments
// sweeping MaxSize (Fig. 7 and 8) reuse the same hash tables across runs.
// The t configurations are clustered concurrently; the returned slice is
// always in the same deterministic configuration-major order.
func BuildWithHasher(d *dataset.Dataset, h *Hasher, o Options) ([]Cluster, Stats) {
	perFn := make([][]Cluster, h.t)
	// Each configuration emits from its own goroutine only, so every
	// perFn slot has one writer.
	stats := streamWithHasher(d, h, o, func(c Cluster) {
		perFn[c.Fn] = append(perFn[c.Fn], c)
	})
	var clusters []Cluster
	for fn := range perFn {
		clusters = append(clusters, perFn[fn]...)
	}
	return clusters, stats
}

// Stream clusters d like Build but emits each cluster as soon as it is
// finalized instead of materializing the full list — the producer side
// of the pipelined C² build. emit is invoked concurrently from the
// configuration goroutines and must be safe for concurrent use. Within
// one configuration, clusters arrive in the same deterministic order
// BuildWithHasher would list them; the interleaving across
// configurations is scheduling-dependent, but the emitted cluster *set*
// is identical to BuildWithHasher's for the same seed. Stream returns
// once every configuration has finished emitting.
func Stream(d *dataset.Dataset, o Options, emit func(Cluster)) Stats {
	o.setDefaults()
	h := NewHasher(d.NumItems, o)
	return streamWithHasher(d, h, o, emit)
}

// streamWithHasher is Stream with a caller-provided Hasher. Every
// user's t hashes come from one shared pass over the ratings; the
// configurations then bucket, split and emit concurrently.
func streamWithHasher(d *dataset.Dataset, h *Hasher, o Options, emit func(Cluster)) Stats {
	o.setDefaults()
	all := h.hashAll(d.Profiles, 0)
	tab := newTable(h.b, h.t, d.NumUsers(), nonEmpty(d.Profiles))
	fnStats := ForEachFn(h.t, func(fn int) Stats {
		tab.fill(all, fn)
		return buildFn(d, h, o, fn, tab, emit)
	})
	return MergeStats(fnStats)
}

// ForEachFn runs build for every configuration on t concurrent workers,
// the caller among them, and returns the per-configuration stats. It is
// the fan-out shared by the FRH producers here and core's MinHash
// producer.
func ForEachFn(t int, build func(fn int) Stats) []Stats {
	fnStats := make([]Stats, t)
	schedule.Run(t, t, func(_, fn int) {
		fnStats[fn] = build(fn)
	})
	return fnStats
}

// buildFn splits configuration fn's coarse buckets and invokes emit for
// every finalized cluster in a deterministic order (buckets by
// increasing index, split children depth-first by increasing split
// hash). The returned Stats describe this configuration only; PerFn is
// left nil for the caller to assemble.
func buildFn(d *dataset.Dataset, h *Hasher, o Options, fn int, tab *Table, emit func(Cluster)) Stats {
	var stats Stats
	profile := func(u int32) []int32 { return d.Profiles[u] }
	for idx := uint32(1); idx <= uint32(h.b); idx++ {
		users := tab.Bucket(fn, idx)
		if len(users) == 0 {
			continue
		}
		final := splitRecursive(h, profile, &stats, o, Cluster{Fn: fn, Index: idx, Users: users}, 0)
		for _, c := range final {
			if len(c.Users) > stats.MaxCluster {
				stats.MaxCluster = len(c.Users)
			}
			stats.Clusters++
			emit(c)
		}
	}
	return stats
}

// MergeStats folds per-configuration stats into the aggregate view
// Build has always reported.
func MergeStats(fnStats []Stats) Stats {
	merged := Stats{PerFn: make([]int, len(fnStats))}
	for fn, s := range fnStats {
		merged.Clusters += s.Clusters
		merged.Splits += s.Splits
		merged.PerFn[fn] = s.Clusters
		if s.MaxCluster > merged.MaxCluster {
			merged.MaxCluster = s.MaxCluster
		}
		if s.Depth > merged.Depth {
			merged.Depth = s.Depth
		}
	}
	return merged
}

// partition applies one level of the splitting rule (§II-D) to the users
// of a cluster with index eta in configuration fn: users group by H\η.
// Groups of at least two users are returned as children in increasing
// index order, each listing its users in input order. The remainder
// holds the users with no item hashed above η, in input order, followed
// by the users of singleton groups in index order: both stay in C.
func (h *Hasher) partition(fn int, users []int32, eta uint32, profile func(int32) []int32) (children []Cluster, remainder []int32) {
	groups := make(map[uint32][]int32)
	for _, u := range users {
		idx, ok := h.UserHashAbove(fn, profile(u), eta)
		if !ok {
			remainder = append(remainder, u)
			continue
		}
		groups[idx] = append(groups[idx], u)
	}
	// Visit groups in index order: map iteration order would make the
	// cluster list differ between identical runs.
	indices := make([]uint32, 0, len(groups))
	for idx := range groups {
		indices = append(indices, idx)
	}
	slices.Sort(indices)
	for _, idx := range indices {
		if g := groups[idx]; len(g) == 1 {
			remainder = append(remainder, g[0])
		} else {
			children = append(children, Cluster{Fn: fn, Index: idx, Users: g})
		}
	}
	return children, remainder
}

// splitRecursive applies the recursive splitting rule to c and returns the
// final clusters it decomposes into: each child's clusters depth-first, in
// index order, then the remainder. The remainder cluster keeps c's index
// and is final: re-splitting it with the same η would reproduce the same
// partition and never terminate, which is why the paper leaves those
// users in C.
func splitRecursive(h *Hasher, profile func(int32) []int32, stats *Stats, o Options, c Cluster, depth int) []Cluster {
	if o.MaxSize < 0 || len(c.Users) <= o.MaxSize {
		stats.Depth = max(stats.Depth, depth)
		return []Cluster{c}
	}
	stats.Splits++
	children, remainder := h.partition(c.Fn, c.Users, c.Index, profile)
	var out []Cluster
	for _, child := range children {
		out = append(out, splitRecursive(h, profile, stats, o, child, depth+1)...)
	}
	if len(remainder) > 0 {
		stats.Depth = max(stats.Depth, depth)
		out = append(out, Cluster{Fn: c.Fn, Index: c.Index, Users: remainder})
	}
	return out
}

// Place returns the final cluster user u belongs to in configuration fn:
// the cluster Build emits for u over the same users and profiles. members
// is u's coarse bucket idx, u included, and profile returns each member's
// current profile. maxSize is the splitting threshold N (negative
// disables splitting). Place follows only u's branch of the split, so it
// hashes each level's members once. The result may alias members.
func (h *Hasher) Place(fn int, idx uint32, members []int32, u int32, maxSize int, profile func(int32) []int32) []int32 {
	for maxSize >= 0 && len(members) > maxSize {
		children, remainder := h.partition(fn, members, idx, profile)
		// With no item above η, target is 0, which no child index is.
		target, _ := h.UserHashAbove(fn, profile(u), idx)
		i := slices.IndexFunc(children, func(c Cluster) bool { return c.Index == target })
		if i < 0 {
			return remainder
		}
		members, idx = children[i].Users, children[i].Index
	}
	return members
}

// Sizes returns the sizes of the given clusters.
func Sizes(clusters []Cluster) []int {
	s := make([]int, len(clusters))
	for i := range clusters {
		s[i] = len(clusters[i].Users)
	}
	return s
}

// TopSizes returns the sizes of the m largest clusters in decreasing
// order (fewer if there are fewer clusters) — the series plotted in
// Fig. 8.
func TopSizes(clusters []Cluster, m int) []int {
	s := Sizes(clusters)
	sort.Sort(sort.Reverse(sort.IntSlice(s)))
	if len(s) > m {
		s = s[:m]
	}
	return s
}
