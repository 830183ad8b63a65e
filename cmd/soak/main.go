// Command soak runs the fault-injection soak harness against an
// in-process hardened serving daemon (internal/server behind the full
// middleware stack) and exits non-zero if any hardening invariant is
// violated: a well-formed request failing or returning wrong bytes, a
// fault probe answered with the wrong status, a daemon death, a corrupt
// snapshot reload taking down the old epoch, the /metrics counters
// drifting from the harness's own accounting, or a p99 over one second.
// The invariants are SoakSummary.Floors in internal/experiments.
//
// Usage:
//
//	soak -duration 60s -clients 8
//
// CI runs it race-enabled:
//
//	go run -race ./cmd/soak -scale 0.02 -workers 4 -duration 30s -clients 8
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"c2knn/internal/experiments"
	"c2knn/internal/synth"
)

func main() {
	var (
		scale    = flag.Float64("scale", 0.05, "dataset scale factor (1 = paper size)")
		workers  = flag.Int("workers", 0, "server worker pool size (0 = GOMAXPROCS)")
		seed     = flag.Int64("seed", 42, "master random seed")
		duration = flag.Duration("duration", 60*time.Second, "wall-clock load window")
		clients  = flag.Int("clients", 8, "concurrent well-formed clients")
	)
	flag.Parse()
	if err := synth.CheckScale(*scale); err != nil {
		fmt.Fprintln(os.Stderr, "soak: -scale:", err)
		os.Exit(2)
	}

	env := &experiments.Env{Scale: *scale, Workers: *workers, Seed: *seed, Out: os.Stdout}
	sum, err := env.Soak(experiments.SoakOptions{Duration: *duration, Clients: *clients})
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
		os.Exit(1)
	}

	// One line per violated invariant, so a CI log names each one.
	violations := sum.Floors()
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "soak: FAIL:", v)
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
	fmt.Println("soak: all hardening invariants held")
}
