// Quickstart: generate a MovieLens-like dataset, build its KNN graph with
// Cluster-and-Conquer, and inspect the result — the fastest path through
// the public API.
package main

import (
	"fmt"
	"log"
	"time"

	"c2knn"
)

func main() {
	// A 10%-scale MovieLens1M lookalike (≈ 600 users). Presets: ml1M,
	// ml10M, ml20M, AM, DBLP, GW.
	d, err := c2knn.Generate("ml1M", 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d users, %d items, %d ratings\n",
		d.NumUsers(), d.NumItems, d.NumRatings())

	// GoldFinger fingerprints estimate Jaccard fast (the paper's setup).
	sim, err := c2knn.NewGoldFinger(d, 1024)
	if err != nil {
		log.Fatal(err)
	}

	// Build the KNN graph with C². The zero options are the paper's
	// defaults (k=30, b=4096, t=8, N=2000).
	start := time.Now()
	g, stats := c2knn.BuildC2(d, sim, c2knn.BuildOptions{K: 10})
	fmt.Printf("C2: %d clusters (%d splits, largest %d) in %v\n",
		stats.Clusters, stats.Splits, stats.MaxCluster, time.Since(start).Round(time.Millisecond))

	// Inspect one user's neighborhood.
	fmt.Println("\nuser 0's nearest neighbors (id, estimated Jaccard):")
	for _, nb := range g.Neighbors(0) {
		fmt.Printf("  %5d  %.3f\n", nb.ID, nb.Sim)
	}

	// How good is the approximation? Compare against the exact graph.
	raw := c2knn.ExactJaccard(d)
	exact := c2knn.BuildBruteForce(d, raw, c2knn.BuildOptions{K: 10})
	fmt.Printf("\nKNN quality vs exact graph: %.3f (1.0 = indistinguishable)\n",
		c2knn.Quality(g, exact, raw))
}
