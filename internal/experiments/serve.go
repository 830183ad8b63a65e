package experiments

import (
	"runtime"
	"sync"
	"time"

	"c2knn/internal/core"
	"c2knn/internal/recommend"
)

// ServeSummary condenses the serving-layer experiment, judged by its
// Floors: query cost on the frozen CSR path versus the mutable build
// structure, for both the neighbor-lookup primitive and full
// recommendation queries.
type ServeSummary struct {
	Dataset string
	Workers int
	Queries int

	// Full recommendation queries (user-based CF, top-30).
	QueriesPerSec    float64 // concurrent, frozen path
	NsPerQuery       float64 // serial, frozen path
	AllocsPerQuery   float64 // serial, frozen path
	GraphNsPerQuery  float64 // serial, mutable-graph map path
	RecommendSpeedup float64 // graph / frozen

	// Bare neighbor lookups — the primitive every serving read pays.
	NeighborsNs      float64 // frozen view
	GraphNeighborsNs float64 // alloc + sort per call
	NeighborsSpeedup float64 // graph / frozen
	NeighborsAllocs  float64 // frozen; must be 0
}

// Serve measures the build/serve split on the ml1M preset: one C² graph
// is built, frozen, and then queried the way a serving process would —
// recommendation queries against per-worker pooled scratch, and raw
// Neighbors lookups — with the mutable Graph structure as the baseline
// each number is compared to. Allocation counts come from
// runtime.MemStats deltas measured on a single goroutine.
func (e *Env) Serve() (*ServeSummary, error) {
	e.setDefaults()
	const name = "ml1M"
	const nRec = 30
	e.printf("Serve: frozen-graph query path on %s (scale %.3g, %d workers)\n",
		name, e.Scale, e.Workers)
	p, err := e.Prepare(name)
	if err != nil {
		return nil, err
	}
	b, t, n := e.C2Params(name)
	g, _ := core.Build(p.Data, p.GF, core.Options{
		K: e.K, B: b, T: t, MaxClusterSize: n, Workers: e.Workers, Seed: e.Seed,
	})
	frozen := g.Freeze()
	users := p.Data.NumUsers()

	// Enough query rounds to dominate timer noise on small populations.
	rounds := 1 + 8000/users
	queries := users * rounds

	// Serial frozen recommendations, with an allocation count.
	sc := recommend.NewScorer(p.Data.NumItems)
	rec := make([]int32, 0, nRec)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for u := 0; u < users; u++ {
			rec = sc.Recommend(p.Data, frozen, int32(u), nRec, rec[:0])
		}
	}
	frozenNs := float64(time.Since(start)) / float64(queries)
	runtime.ReadMemStats(&after)
	allocsPerQuery := float64(after.Mallocs-before.Mallocs) / float64(queries)

	// Serial mutable-graph recommendations (per-query map churn).
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for u := 0; u < users; u++ {
			recommend.Recommend(p.Data, g, int32(u), nRec)
		}
	}
	graphNs := float64(time.Since(start)) / float64(queries)

	// Concurrent frozen throughput at the Env's worker count.
	var wg sync.WaitGroup
	start = time.Now()
	for w := 0; w < e.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wsc := recommend.NewScorer(p.Data.NumItems)
			wrec := make([]int32, 0, nRec)
			for r := 0; r < rounds; r++ {
				for u := w; u < users; u += e.Workers {
					wrec = wsc.Recommend(p.Data, frozen, int32(u), nRec, wrec[:0])
				}
			}
		}(w)
	}
	wg.Wait()
	qps := float64(queries) / time.Since(start).Seconds()

	// Neighbor-lookup primitive: rounds scaled up, the per-call cost is
	// tiny. The sink keeps the views from being optimized away.
	nbRounds := rounds * 20
	var sink float32
	runtime.GC()
	runtime.ReadMemStats(&before)
	start = time.Now()
	for r := 0; r < nbRounds; r++ {
		for u := 0; u < users; u++ {
			_, sims := frozen.Neighbors(int32(u))
			if len(sims) > 0 {
				sink += sims[0]
			}
		}
	}
	frozenNbNs := float64(time.Since(start)) / float64(nbRounds*users)
	runtime.ReadMemStats(&after)
	nbAllocs := float64(after.Mallocs-before.Mallocs) / float64(nbRounds*users)

	var sink64 float64
	start = time.Now()
	for r := 0; r < nbRounds; r++ {
		for u := 0; u < users; u++ {
			nbs := g.Neighbors(int32(u))
			if len(nbs) > 0 {
				sink64 += nbs[0].Sim
			}
		}
	}
	graphNbNs := float64(time.Since(start)) / float64(nbRounds*users)
	_, _ = sink, sink64

	sum := &ServeSummary{
		Dataset:          name,
		Workers:          e.Workers,
		Queries:          queries,
		QueriesPerSec:    qps,
		NsPerQuery:       frozenNs,
		AllocsPerQuery:   allocsPerQuery,
		GraphNsPerQuery:  graphNs,
		NeighborsNs:      frozenNbNs,
		GraphNeighborsNs: graphNbNs,
		NeighborsAllocs:  nbAllocs,
	}
	if frozenNs > 0 {
		sum.RecommendSpeedup = graphNs / frozenNs
	}
	if frozenNbNs > 0 {
		sum.NeighborsSpeedup = graphNbNs / frozenNbNs
	}
	e.printf("  recommend: frozen %.0f ns/query (%.2f allocs), graph %.0f ns/query, speedup %.2fx\n",
		frozenNs, allocsPerQuery, graphNs, sum.RecommendSpeedup)
	e.printf("  neighbors: frozen %.1f ns (%.3f allocs), graph %.1f ns, speedup %.2fx\n",
		frozenNbNs, nbAllocs, graphNbNs, sum.NeighborsSpeedup)
	e.printf("  concurrent: %.0f queries/sec with %d workers\n", qps, e.Workers)
	return sum, nil
}
