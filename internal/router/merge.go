package router

import (
	"cmp"
	"slices"

	"c2knn/internal/server"
)

// mergeNeighbors combines several shards' adjacency rows for one user
// into the canonical single-snapshot ordering: similarity descending,
// ties by ascending id — exactly the Frozen CSR order (knng
// SortCanonical), so a merged answer is bit-identical to what
// one snapshot holding all the edges would serve. Duplicate ids (the
// overlap window serves a user from both its old and new shard) are
// deduplicated; rows disagree only during a migration, in which case
// the higher similarity wins, keeping the result a valid top-k. The
// result is truncated to k.
func mergeNeighbors(rows []server.NeighborsResult, user int32, k int) server.NeighborsResult {
	type edge struct {
		id  int32
		sim float32
	}
	var edges []edge
	for _, r := range rows {
		for i := range r.IDs {
			edges = append(edges, edge{r.IDs[i], r.Sims[i]})
		}
	}
	edges = dedupSort(edges, func(e edge) int32 { return e.id }, func(a, b edge) int {
		if a.sim != b.sim {
			if a.sim > b.sim {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.id, b.id)
	})
	if k >= 0 && len(edges) > k {
		edges = edges[:k]
	}
	out := server.NeighborsResult{User: user, IDs: []int32{}, Sims: []float32{}}
	for _, e := range edges {
		out.IDs = append(out.IDs, e.id)
		out.Sims = append(out.Sims, e.sim)
	}
	return out
}

// mergeTopK is mergeNeighbors for the /v1/topk float64 wire shape. The
// tie-break narrows to float32 before comparing, matching the frozen
// graph's stored precision so router and shard order ties identically.
func mergeTopK(rows []server.TopKResult, user int32, k int) server.TopKResult {
	var nbs []server.Neighbor
	for _, r := range rows {
		nbs = append(nbs, r.Neighbors...)
	}
	nbs = dedupSort(nbs, func(n server.Neighbor) int32 { return n.ID }, func(a, b server.Neighbor) int {
		as, bs := float32(a.Sim), float32(b.Sim)
		if as != bs {
			if as > bs {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
	if k >= 0 && len(nbs) > k {
		nbs = nbs[:k]
	}
	if nbs == nil {
		nbs = []server.Neighbor{}
	}
	return server.TopKResult{User: user, Neighbors: nbs}
}

// dedupSort sorts es by less and drops later duplicates (same key).
// Sorting first makes "later" deterministic: the best-ranked copy of a
// key survives regardless of shard arrival order.
func dedupSort[E any](es []E, key func(E) int32, less func(a, b E) int) []E {
	slices.SortFunc(es, less)
	seen := make(map[int32]struct{}, len(es))
	out := es[:0]
	for _, e := range es {
		if _, dup := seen[key(e)]; dup {
			continue
		}
		seen[key(e)] = struct{}{}
		out = append(out, e)
	}
	return out
}
