package experiments

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"c2knn/internal/core"
	"c2knn/internal/dataset"
	"c2knn/internal/delta"
	"c2knn/internal/goldfinger"
	"c2knn/internal/recommend"
)

// UpdateSummary condenses the incremental-maintenance experiment,
// judged by its Floors: how fast the delta overlay absorbs a profile
// (the sub-second freshness headline), whether the merged read path
// stays allocation-free, and — the quality clause — how far a graph
// grown through upserts plus one compaction lands from the graph a
// from-scratch rebuild would produce on the same data.
type UpdateSummary struct {
	Dataset   string
	K         int
	BaseUsers int

	// Upserts profiles were absorbed one at a time through the overlay;
	// the percentiles are per-absorbed-profile wall times. The p99 is
	// the freshness number Floors bounds at one second — each of
	// these placements re-solved only the clusters the profile hashes
	// into, never the graph.
	Upserts     int
	UpsertP50MS float64
	UpsertP99MS float64

	// MergedReadAllocs is the allocation count per merged neighbor+
	// profile read against the overlay view (floor: exactly 0 — the
	// serving hot path must not regress when upserts are enabled).
	MergedReadAllocs float64

	// CompactMS is one background fold: base + delta re-assembled into
	// fresh validated artifacts (snapshot write excluded — that cost is
	// the load path's story, measured by the load experiment).
	CompactMS float64

	// Recall of the rebuilt-from-scratch graph versus the graph that
	// reached the same user set incrementally (build on a truncated
	// base, upsert the held-out profiles, compact). The delta between
	// them is scale-free and bounded at 0.005 — the same tolerance the
	// golden recall test grants legitimate float-ordering jitter.
	RecallRebuild     float64
	RecallIncremental float64
	RecallDelta       float64
}

// Update measures incremental maintenance on the ml1M preset: a
// from-scratch build on fold 0's full training set is the quality
// reference; the measured path rebuilds on the same set minus the last
// users, streams exactly their profiles through Overlay.Upsert (timing
// each; the overlay places them with the build's own hash family),
// checks the merged read path allocates nothing, folds the overlay with
// Compact, and evaluates both graphs on the same held-out ratings.
func (e *Env) Update() (*UpdateSummary, error) {
	e.setDefaults()
	const name = "ml1M"
	e.printf("Update: delta-overlay incremental maintenance on %s (scale %.3g)\n", name, e.Scale)
	p, err := e.Prepare(name)
	if err != nil {
		return nil, err
	}
	folds := recommend.Split(p.Data, e.Folds, e.Seed)
	f := folds[0]
	n := f.Train.NumUsers()

	// Hold out the last ids (capped at 64 and at 20% of the fold) so
	// the overlay's contiguous id assignment reproduces them and the
	// fold's test sets line up without remapping. Users with an empty
	// training profile cannot be re-inserted, so the tail stops there.
	maxHeld := min(64, n/5)
	heldOut := 0
	for heldOut < maxHeld && len(f.Train.Profiles[n-1-heldOut]) > 0 {
		heldOut++
	}
	if heldOut == 0 {
		return nil, fmt.Errorf("experiments: no upsertable tail users at scale %g", e.Scale)
	}

	b, t, mc := e.C2Params(name)
	opts := core.Options{K: e.K, B: b, T: t, MaxClusterSize: mc, Workers: e.Workers, Seed: e.Seed}
	sum := &UpdateSummary{Dataset: name, K: e.K, BaseUsers: n - heldOut, Upserts: heldOut}

	// Quality reference: the graph a full rebuild produces.
	gfFull, err := goldfinger.New(f.Train, e.GFBits, uint32(e.Seed)+0x60fd)
	if err != nil {
		return nil, err
	}
	gFull, _ := core.Build(f.Train, gfFull, opts)
	sum.RecallRebuild = recommend.EvalRecall(f, gFull, e.K, e.Workers)

	// Measured path: build without the tail, then stream it back in.
	base := dataset.New(f.Train.Name, f.Train.Profiles[:n-heldOut], f.Train.NumItems)
	gfBase, err := goldfinger.New(base, e.GFBits, uint32(e.Seed)+0x60fd)
	if err != nil {
		return nil, err
	}
	gBase, _ := core.Build(base, gfBase, opts)
	ov, err := delta.Attach(gBase.Freeze(), base, gfBase, nil)
	if err != nil {
		return nil, err
	}
	lat := make([]time.Duration, 0, heldOut)
	for u := n - heldOut; u < n; u++ {
		start := time.Now()
		res, err := ov.Upsert(-1, f.Train.Profiles[u])
		if err != nil {
			return nil, fmt.Errorf("upsert user %d: %w", u, err)
		}
		lat = append(lat, time.Since(start))
		if int(res.User) != u {
			return nil, fmt.Errorf("upsert assigned id %d, want %d", res.User, u)
		}
	}
	slices.Sort(lat)
	sum.UpsertP50MS = float64(lat[len(lat)/2]) / float64(time.Millisecond)
	sum.UpsertP99MS = float64(lat[len(lat)*99/100]) / float64(time.Millisecond)

	sum.MergedReadAllocs = mergedReadAllocs(ov.View(), int32(n))

	start := time.Now()
	cmp, err := ov.Compact()
	if err != nil {
		return nil, err
	}
	sum.CompactMS = float64(time.Since(start)) / float64(time.Millisecond)
	if cmp.Train.NumUsers() != n {
		return nil, fmt.Errorf("compacted to %d users, want %d", cmp.Train.NumUsers(), n)
	}
	sum.RecallIncremental = recommend.EvalRecallFrozen(f, cmp.Graph, e.K, e.Workers)
	sum.RecallDelta = math.Abs(sum.RecallIncremental - sum.RecallRebuild)

	e.printf("  upserts: %d profiles, p50 %.3f ms, p99 %.3f ms (base %d users)\n",
		sum.Upserts, sum.UpsertP50MS, sum.UpsertP99MS, sum.BaseUsers)
	e.printf("  merged reads: %.4f allocs/read; compact: %.2f ms\n",
		sum.MergedReadAllocs, sum.CompactMS)
	e.printf("  recall@%d: rebuild %.4f, incremental %.4f (delta %.4f)\n",
		e.K, sum.RecallRebuild, sum.RecallIncremental, sum.RecallDelta)
	return sum, nil
}

// mergedReadAllocs measures steady-state allocations per merged
// neighbor-row + profile read through the overlay view, the same way
// testing.AllocsPerRun does: pinned to one P, warmed once, counted over
// enough rounds that one stray allocation shows as a fraction, not a
// flake.
func mergedReadAllocs(v *delta.View, users int32) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 4096
	read := func(u int32) {
		ids, sims := v.Neighbors(u)
		_, _ = ids, sims
		v.Profile(u)
	}
	read(0) // warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		read(int32(i) % users)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(rounds)
}
