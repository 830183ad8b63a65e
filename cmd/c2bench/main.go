// Command c2bench regenerates the tables and figures of the paper's
// evaluation. Each experiment prints paper-style rows; absolute numbers
// depend on the hardware and on the synthetic datasets, but the shapes —
// which algorithm wins, by what factor, where the trade-offs knee — are
// the reproduction targets recorded in EXPERIMENTS.md.
//
// Usage:
//
//	c2bench -exp table2 -scale 0.1
//	c2bench -exp all -scale 0.05 -workers 4
//
// Experiments: table1, table2, table3, table4, table5, fig6, fig7, fig8,
// ablations, solve, shard, load, all.
// Theorems 1 and 2 of §III are checked by internal/theory's tests, on
// the production hash.
//
// The solve, shard and load experiments carry floors (see their
// summaries' Floors methods in internal/experiments). After the run
// c2bench prints each one's verdict and exits 1 if any floor failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"c2knn/internal/experiments"
	"c2knn/internal/synth"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run: table1..table5, fig6..fig8, ablations, solve, shard, load, all")
		scale    = flag.Float64("scale", 0.05, "dataset scale factor (1 = paper size)")
		workers  = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		seed     = flag.Int64("seed", 42, "master random seed")
		k        = flag.Int("k", 30, "neighborhood size")
		gfbits   = flag.Int("gfbits", 1024, "GoldFinger width in bits")
		folds    = flag.Int("folds", 5, "cross-validation folds for table3")
		datasets = flag.String("datasets", "", "comma-separated dataset subset for table2/table3 (default: all six)")
	)
	flag.Parse()
	if err := synth.CheckScale(*scale); err != nil {
		fmt.Fprintln(os.Stderr, "c2bench: -scale:", err)
		os.Exit(2)
	}

	env := &experiments.Env{
		Scale:   *scale,
		Workers: *workers,
		Seed:    *seed,
		K:       *k,
		GFBits:  *gfbits,
		Folds:   *folds,
		Out:     os.Stdout,
	}
	var names []string
	if *datasets != "" {
		names = strings.Split(*datasets, ",")
	}

	// A runner returns the summary whose floors judge the run, or nil
	// for the paper tables and figures, which have none.
	runners := map[string]func() (floored, error){
		"table1":    func() (floored, error) { _, err := env.Table1(); return nil, err },
		"table2":    func() (floored, error) { _, err := env.Table2(names); return nil, err },
		"table3":    func() (floored, error) { _, err := env.Table3(names); return nil, err },
		"table4":    func() (floored, error) { _, err := env.Table4(); return nil, err },
		"table5":    func() (floored, error) { _, err := env.Table5(); return nil, err },
		"fig6":      func() (floored, error) { _, err := env.Fig6(); return nil, err },
		"fig7":      func() (floored, error) { _, err := env.Fig7(); return nil, err },
		"fig8":      func() (floored, error) { _, err := env.Fig8(); return nil, err },
		"ablations": func() (floored, error) { _, err := env.Ablations(); return nil, err },
		"solve":     func() (floored, error) { return env.Solve() },
		"shard":     func() (floored, error) { return env.Shard() },
		"load":      func() (floored, error) { return env.Load() },
	}
	order := []string{"table1", "table2", "table3", "table4", "table5", "fig6", "fig7", "fig8", "ablations", "solve", "shard", "load"}

	var toRun []string
	if *exp == "all" {
		toRun = order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if _, ok := runners[name]; !ok {
				fmt.Fprintf(os.Stderr, "c2bench: unknown experiment %q\n", name)
				os.Exit(2)
			}
			toRun = append(toRun, name)
		}
	}

	var verdicts, violations []string
	for _, name := range toRun {
		start := time.Now()
		sum, err := runners[name]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "c2bench: %s failed: %v\n", name, err)
			os.Exit(1)
		}
		if sum != nil {
			failed := sum.Floors()
			for _, v := range failed {
				violations = append(violations, name+": "+v)
			}
			if len(failed) == 0 {
				verdicts = append(verdicts, name+" floors held")
			}
		}
		fmt.Printf("-- %s done in %v\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	for _, v := range verdicts {
		fmt.Println("c2bench:", v)
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "c2bench: FAIL:", v)
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
}

// floored is a summary with legacy floors; Floors lists the violated ones.
type floored interface{ Floors() []string }
