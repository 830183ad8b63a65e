package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"c2knn"
	"c2knn/internal/frh"
	"c2knn/internal/goldfinger"
	"c2knn/internal/persist"
	"c2knn/internal/similarity"
)

// The paper's parameters (§IV-C): k=30, b=4096, t=8, N=2000, GoldFinger
// 1024 bits. core's defaults already are b, t and N.
const (
	paperK      = 30
	paperGFBits = 1024
)

// buildResult is what the build phase leaves for the rest of the run.
type buildResult struct {
	snapPath string
	times    []float64 // seconds per build
	quality  float64
	stats    c2knn.C2Stats
	pairs    int64 // similarity evaluations of the traced build (0 untraced)
	fpS      []float64
	freezeS  []float64
	writeS   []float64
	snapMB   float64
}

// runBuild repeats the c2build -snap path — fingerprint, BuildC2,
// Freeze, snapshot write — at least minBuilds times and until budget
// has elapsed. Every build must produce the same graph; the last one's
// snapshot is what the daemons serve.
func runBuild(in *inputs, seed int64, budget time.Duration, minBuilds int, dir string, tr *tracer, rng *rand.Rand, fails *failures) (*buildResult, error) {
	res := &buildResult{snapPath: dir + "/base.c2"}
	var g *c2knn.Graph
	opts := c2knn.BuildOptions{K: paperK, Seed: seed}
	deadline := time.Now().Add(budget)
	var firstDigest uint64
	for i := 0; i < minBuilds || time.Now().Before(deadline); i++ {
		runtime.GC()
		req := int64(i)
		t0 := time.Now()
		sim, err := c2knn.NewGoldFinger(in.base, paperGFBits)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		var prov c2knn.Similarity = sim
		var counting *similarity.Counting
		if tr != nil {
			counting = similarity.NewCounting(sim)
			prov = counting
		}
		var st c2knn.C2Stats
		g, st = c2knn.BuildC2(in.base, prov, opts)
		t2 := time.Now()
		frozen := c2knn.Freeze(g)
		t3 := time.Now()
		err = persist.WriteFile(res.snapPath, &persist.Snapshot{Graph: frozen, Train: in.base, GoldFinger: sim.(*goldfinger.Set)})
		t4 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("write snapshot: %w", err)
		}
		res.times = append(res.times, t4.Sub(t0).Seconds())
		res.fpS = append(res.fpS, t1.Sub(t0).Seconds())
		res.freezeS = append(res.freezeS, t3.Sub(t2).Seconds())
		res.writeS = append(res.writeS, t4.Sub(t3).Seconds())
		res.stats = st
		if counting != nil {
			res.pairs = counting.Count()
		}

		root := tr.add("build", -1, req, t0, t4)
		tr.add("goldfinger.New", root, req, t0, t1)
		core := tr.add("core.Build", root, req, t1, t2)
		// BuildC2 pipelines clustering into solving; its Stats place the
		// two phases inside the call (they overlap by OverlapTime).
		tr.addDur("frh.cluster", core, req, t1, st.ClusterTime)
		tr.add("core.solve", core, req, t2.Add(-st.KNNTime), t2)
		tr.add("knng.Freeze", root, req, t2, t3)
		tr.add("persist.WriteFile", root, req, t3, t4)

		// Determinism check: every build of the same input and seed must
		// store the same similarities in every row (ids may differ only
		// among equal-similarity ties, which the merge may break either way).
		dg := simsDigest(frozen)
		fails.attempt()
		if i == 0 {
			firstDigest = dg
		} else if dg != firstDigest {
			fails.fail("build %d stored different similarities than build 0", i)
		}
	}
	if fi, err := os.Stat(res.snapPath); err == nil {
		res.snapMB = float64(fi.Size()) / (1 << 20)
	}

	// Eq. 2 over a seeded sample, outside timing.
	sample := sampleUsers(rng, 0, in.base.NumUsers(), qualitySample)
	res.quality = sampleQuality(in.base, paperK, sample, func(u int32) []int32 {
		var ids []int32
		for _, nb := range g.Neighbors(u) {
			ids = append(ids, nb.ID)
		}
		return ids
	})
	return res, nil
}

// qualitySample is the number of users Eq. 2 is estimated over.
const qualitySample = 200

// simsDigest hashes a frozen graph's rows: degree and similarity bits.
func simsDigest(f *c2knn.FrozenGraph) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	for u := 0; u < f.NumUsers(); u++ {
		_, sims := f.Neighbors(int32(u))
		mix(uint64(len(sims)))
		for _, s := range sims {
			mix(uint64(math.Float32bits(s)))
		}
	}
	return h
}

// clusterStandalone times FastRandomHash clustering alone, with the
// same options BuildC2 uses and a no-op emit.
func clusterStandalone(in *inputs, seed int64) (time.Duration, frh.Stats) {
	t0 := time.Now()
	st := frh.Stream(in.base, frh.Options{Seed: seed}, func(frh.Cluster) {})
	return time.Since(t0), st
}
