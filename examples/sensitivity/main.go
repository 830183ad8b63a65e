// Sensitivity reproduces a miniature of the paper's §VI analysis from the
// public API: it sweeps the number of hash functions t (Fig. 6) and the
// maximum cluster size N (Fig. 7) on a dense MovieLens-like dataset and
// prints time×quality trade-off points as CSV, ready to plot.
package main

import (
	"fmt"
	"log"
	"time"

	"c2knn"
)

const k = 20

func main() {
	d, err := c2knn.Generate("ml10M", 0.06)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := c2knn.NewGoldFinger(d, 1024)
	if err != nil {
		log.Fatal(err)
	}
	raw := c2knn.ExactJaccard(d)
	exact := c2knn.BuildBruteForce(d, raw, c2knn.BuildOptions{K: k})

	fmt.Println("sweep,param,value,time_ms,quality")

	// Fig. 6 shape: more hash functions trade time for quality, with
	// diminishing returns beyond t ≈ 8.
	for _, t := range []int{1, 2, 4, 8, 10} {
		g, _ := timeBuild(d, sim, c2knn.BuildOptions{K: k, T: t, MaxClusterSize: 150}, func(ms float64, g *c2knn.Graph) {
			fmt.Printf("hash-functions,t,%d,%.1f,%.3f\n", t, ms, c2knn.Quality(g, exact, raw))
		})
		_ = g
	}

	// Fig. 7 shape: larger N trades time for quality.
	for _, n := range []int{50, 100, 300, 600, 1200} {
		g, _ := timeBuild(d, sim, c2knn.BuildOptions{K: k, T: 8, MaxClusterSize: n}, func(ms float64, g *c2knn.Graph) {
			fmt.Printf("max-cluster,N,%d,%.1f,%.3f\n", n, ms, c2knn.Quality(g, exact, raw))
		})
		_ = g
	}
}

// timeBuild runs BuildC2 and reports the elapsed milliseconds through the
// callback.
func timeBuild(d *c2knn.Dataset, sim c2knn.Similarity, opts c2knn.BuildOptions, report func(float64, *c2knn.Graph)) (*c2knn.Graph, c2knn.C2Stats) {
	start := time.Now()
	g, stats := c2knn.BuildC2(d, sim, opts)
	report(float64(time.Since(start).Microseconds())/1000, g)
	return g, stats
}
