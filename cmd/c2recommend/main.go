// Command c2recommend demonstrates the paper's end-user application
// (§V-B): it builds KNN graphs with brute force and with C² over a
// dataset, recommends items under cross-validation, and compares recalls.
//
// With -graph it instead serves from a snapshot written by
// c2build -snap: no graphs are rebuilt and the brute-force baseline is
// skipped — the fold evaluation reuses the loaded frozen graph, which
// is the build-once/load-many serving workflow.
//
// Usage:
//
//	c2recommend -preset ml1M -scale 0.1 -n 30
//	c2recommend -in data.txt -folds 5
//	c2recommend -graph index.c2 -n 30
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"c2knn"
	"c2knn/internal/goldfinger"
	"c2knn/internal/recommend"
	"c2knn/internal/synth"
)

func main() {
	var (
		preset = flag.String("preset", "ml1M", "dataset preset (ignored with -in or -graph)")
		scale  = flag.Float64("scale", 0.1, "preset scale factor")
		in     = flag.String("in", "", "load dataset from file instead of generating")
		graph  = flag.String("graph", "", "serve from a snapshot (c2build -snap); skips all graph building and the brute-force baseline")
		nRec   = flag.Int("n", 30, "items recommended per user")
		k      = flag.Int("k", 30, "neighborhood size (ignored with -graph)")
		folds  = flag.Int("folds", 5, "cross-validation folds")
		seed   = flag.Int64("seed", 42, "random seed")
	)
	flag.Parse()
	if err := checkFlags(*scale, *folds, *k, *nRec); err != nil {
		fmt.Fprintln(os.Stderr, "c2recommend:", err)
		os.Exit(2)
	}
	workers := runtime.GOMAXPROCS(0)

	if *graph != "" {
		serveFromSnapshot(*graph, *nRec, *folds, *seed, workers)
		return
	}

	var d *c2knn.Dataset
	var err error
	if *in != "" {
		d, err = c2knn.LoadDataset(*in)
	} else if d, err = c2knn.Generate(*preset, *scale); err != nil {
		fmt.Fprintf(os.Stderr, "c2recommend: %v\n", err)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "c2recommend: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(d.ComputeStats())

	var bfSum, c2Sum float64
	var bfTime, c2Time time.Duration
	for i, f := range recommend.Split(d, *folds, *seed) {
		raw := c2knn.ExactJaccard(f.Train)
		gf, err := c2knn.NewGoldFinger(f.Train, goldfinger.DefaultBits)
		if err != nil {
			fmt.Fprintf(os.Stderr, "c2recommend: %v\n", err)
			os.Exit(1)
		}
		start := time.Now()
		exact := c2knn.BuildBruteForce(f.Train, raw, c2knn.BuildOptions{K: *k, Workers: workers})
		bfTime += time.Since(start)
		start = time.Now()
		g, _ := c2knn.BuildC2(f.Train, gf, c2knn.BuildOptions{K: *k, Workers: workers, Seed: *seed})
		c2Time += time.Since(start)

		bf := recommend.EvalRecall(f, exact, *nRec, workers)
		c2 := recommend.EvalRecall(f, g, *nRec, workers)
		bfSum += bf
		c2Sum += c2
		fmt.Printf("fold %d: recall@%d bruteforce=%.3f C2=%.3f\n", i, *nRec, bf, c2)
	}
	n := float64(*folds)
	fmt.Printf("\naverage: bruteforce=%.3f (%v)  C2=%.3f (%v)  Δ=%+.3f\n",
		bfSum/n, (bfTime / time.Duration(*folds)).Round(time.Millisecond),
		c2Sum/n, (c2Time / time.Duration(*folds)).Round(time.Millisecond),
		c2Sum/n-bfSum/n)
}

// serveFromSnapshot loads a frozen graph + dataset and evaluates recall
// without building anything: each fold reuses the snapshot's graph for
// neighborhoods while scoring and exclusion use the fold's training
// profiles. Because the loaded graph was built over the full dataset
// (held-out items included in its similarity basis), its recall reads
// slightly optimistic versus a per-fold rebuild — the output says so.
func serveFromSnapshot(path string, nRec, folds int, seed int64, workers int) {
	start := time.Now()
	ix, err := c2knn.LoadIndex(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "c2recommend: %v\n", err)
		os.Exit(1)
	}
	defer ix.Close()
	loadTime := time.Since(start)
	g, d := ix.Graph(), ix.Train()
	fmt.Println(d.ComputeStats())
	fmt.Printf("loaded %s in %v: %d users, %d edges, k=%d\n",
		path, loadTime.Round(time.Millisecond), g.NumUsers(), g.NumEdges(), g.K)

	var sum float64
	var evalTime time.Duration
	queries := 0
	for i, f := range recommend.Split(d, folds, seed) {
		start = time.Now()
		r := recommend.EvalRecallFrozen(f, g, nRec, workers)
		evalTime += time.Since(start)
		queries += countTestUsers(f)
		sum += r
		fmt.Printf("fold %d: recall@%d C2(snapshot)=%.3f\n", i, nRec, r)
	}
	qps := 0.0
	if evalTime > 0 {
		qps = float64(queries) / evalTime.Seconds()
	}
	fmt.Printf("\naverage: C2(snapshot)=%.3f  (%d queries in %v, %.0f queries/sec, no rebuild)\n",
		sum/float64(folds), queries, evalTime.Round(time.Millisecond), qps)
	fmt.Println("note: the snapshot graph was built over the full dataset, so recall reads slightly optimistic vs a per-fold rebuild; the brute-force baseline is skipped in -graph mode")
}

// checkFlags rejects flag values c2recommend cannot honour, before any
// work starts.
func checkFlags(scale float64, folds, k, n int) error {
	if err := synth.CheckScale(scale); err != nil {
		return fmt.Errorf("-scale: %w", err)
	}
	switch {
	case folds < 2:
		return fmt.Errorf("-folds must be at least 2, got %d", folds)
	case k < 1:
		return fmt.Errorf("-k must be at least 1, got %d", k)
	case n < 1:
		return fmt.Errorf("-n must be at least 1, got %d", n)
	}
	return nil
}

func countTestUsers(f recommend.Fold) int {
	n := 0
	for _, test := range f.Test {
		if len(test) > 0 {
			n++
		}
	}
	return n
}
