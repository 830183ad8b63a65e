// Command c2datagen generates one of the calibrated synthetic datasets
// and writes it in the plain-text profile format, printing its Table
// I-style statistics.
//
// Usage:
//
//	c2datagen -preset ml1M -scale 0.1 -out ml1m.txt
//	c2datagen -preset AM                   # statistics only, no file
package main

import (
	"flag"
	"fmt"
	"os"

	"c2knn/internal/dataset"
	"c2knn/internal/synth"
)

func main() {
	var (
		preset = flag.String("preset", "ml1M", "dataset preset: ml1M, ml10M, ml20M, AM, DBLP, GW")
		scale  = flag.Float64("scale", 1.0, "scale factor (1 = paper size)")
		out    = flag.String("out", "", "output path (empty: statistics only)")
		seed   = flag.Int64("seed", 0, "override the preset's seed (0 keeps it)")
	)
	flag.Parse()

	cfg, ok := synth.ByName(*preset)
	if !ok {
		fmt.Fprintf(os.Stderr, "c2datagen: unknown preset %q\n", *preset)
		os.Exit(2)
	}
	if err := synth.CheckScale(*scale); err != nil {
		fmt.Fprintln(os.Stderr, "c2datagen: -scale:", err)
		os.Exit(2)
	}
	cfg = cfg.Scale(*scale)
	if *seed != 0 {
		cfg.Seed = *seed
	}
	d := synth.Generate(cfg)
	fmt.Println(d.ComputeStats())

	if *out == "" {
		return
	}
	if err := dataset.WriteFile(*out, d); err != nil {
		fmt.Fprintf(os.Stderr, "c2datagen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d users, %d ratings)\n", *out, d.NumUsers(), d.NumRatings())
}
