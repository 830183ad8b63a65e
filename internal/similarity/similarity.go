// Package similarity defines the similarity metric abstraction the KNN
// algorithms are built on, plus the exact set-based metrics used in the
// paper: Jaccard (§II-A, the paper's default) and cosine over binary
// profiles. A Counting decorator instruments the number of similarity
// computations, the paper's primary cost model.
//
// The package has two call paths. Provider is the global interface:
// Sim(u, v) on global user ids, dynamically dispatched — fine for
// occasional evaluations (quality metrics, random inits). The hot path
// of every cluster-local solver instead goes through Local, a concrete
// gathered kernel built once per cluster (see Localizer and
// GatherInto in local.go): the cluster's data is copied into contiguous
// scratch memory, after which each pair similarity is a direct call on
// local indices with no interface dispatch, no global-id re-slicing,
// and — for bit-signature providers like GoldFinger — half the popcount
// work. Both paths return bit-identical values.
package similarity

import (
	"math"
	"sync/atomic"

	"c2knn/internal/dataset"
	"c2knn/internal/sets"
)

// Provider computes the similarity between two users identified by their
// dense ids. Implementations must be safe for concurrent use.
type Provider interface {
	// Sim returns sim(u, v) in [0, 1].
	Sim(u, v int32) float64
}

// RowProvider is the optional row-batched fast path of a Provider:
// score u against the contiguous global-id run [v0, v1) in one call,
// writing Sim(u, v0+x) into dst[x] (dst must hold at least v1-v0
// elements). Providers whose representation is already a dense
// member-major slab (GoldFinger) serve whole rows without any gather,
// which the exact brute-force baseline exploits. Each dst element must
// be bit-identical to the corresponding Sim call, and implementations
// must be safe for concurrent use.
type RowProvider interface {
	SimRow(u, v0, v1 int32, dst []float64)
}

// Jaccard computes the exact Jaccard similarity
// J(P_u, P_v) = |P_u ∩ P_v| / |P_u ∪ P_v| over raw profiles.
type Jaccard struct {
	profiles [][]int32
}

// NewJaccard returns a Jaccard provider over d's profiles.
func NewJaccard(d *dataset.Dataset) *Jaccard {
	return &Jaccard{profiles: d.Profiles}
}

// Sim implements Provider.
func (j *Jaccard) Sim(u, v int32) float64 {
	a, b := j.profiles[u], j.profiles[v]
	inter := sets.IntersectCount(a, b)
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Cosine computes the cosine similarity over binary profiles:
// |P_u ∩ P_v| / sqrt(|P_u|·|P_v|). Like Jaccard it is positively
// correlated with the overlap and negatively with the profile sizes, so it
// satisfies the paper's f_sim requirements (§II-A).
type Cosine struct {
	profiles [][]int32
}

// NewCosine returns a Cosine provider over d's profiles.
func NewCosine(d *dataset.Dataset) *Cosine {
	return &Cosine{profiles: d.Profiles}
}

// Sim implements Provider.
func (c *Cosine) Sim(u, v int32) float64 {
	a, b := c.profiles[u], c.profiles[v]
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := sets.IntersectCount(a, b)
	return float64(inter) / math.Sqrt(float64(len(a))*float64(len(b)))
}

// Counting wraps a Provider and counts calls to Sim. It is the
// instrumentation behind the "number of similarity computations" cost
// reported by the experiment harness.
type Counting struct {
	P Provider
	n atomic.Int64
}

// NewCounting wraps p.
func NewCounting(p Provider) *Counting { return &Counting{P: p} }

// Sim implements Provider, incrementing the counter.
func (c *Counting) Sim(u, v int32) float64 {
	c.n.Add(1)
	return c.P.Sim(u, v)
}

// SimRow implements RowProvider, counting one computation per row
// element: the batch is delegated to the wrapped provider's own row
// kernel when it has one and served by per-pair Sim dispatch otherwise
// (still counted once, not double: the fallback calls c.P, not c).
func (c *Counting) SimRow(u, v0, v1 int32, dst []float64) {
	dst = dst[:v1-v0]
	if len(dst) == 0 {
		return
	}
	c.n.Add(int64(len(dst)))
	if rp, ok := c.P.(RowProvider); ok {
		rp.SimRow(u, v0, v1, dst)
		return
	}
	for x := range dst {
		dst[x] = c.P.Sim(u, v0+int32(x))
	}
}

// Count returns the number of Sim calls observed so far.
func (c *Counting) Count() int64 { return c.n.Load() }

// Func adapts a plain function to the Provider interface; convenient in
// tests.
type Func func(u, v int32) float64

// Sim implements Provider.
func (f Func) Sim(u, v int32) float64 { return f(u, v) }
