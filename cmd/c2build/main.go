// Command c2build constructs a KNN graph from a dataset file with a
// chosen algorithm and writes the edges as "user neighbor similarity"
// triples, or as a binary snapshot servable without rebuilding.
//
// Usage:
//
//	c2build -in data.txt -algo c2 -k 30 -out graph.txt
//	c2build -in data.txt -algo hyrec -raw     # exact Jaccard, no GoldFinger
//	c2build -in data.txt -snap index.c2       # build once, serve many:
//	                                          # c2recommend -graph index.c2
//	c2build -in data.txt -snap index.c2 -shards 2
//	                    # additionally partition the build into per-shard
//	                    # snapshots index.c2.shard0, index.c2.shard1 and a
//	                    # manifest index.c2.manifest for c2serve -role router
//
// Algorithms: c2, hyrec, nndescent, lsh, bruteforce.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"c2knn/internal/bruteforce"
	"c2knn/internal/core"
	"c2knn/internal/dataset"
	"c2knn/internal/frh"
	"c2knn/internal/goldfinger"
	"c2knn/internal/hyrec"
	"c2knn/internal/knng"
	"c2knn/internal/lsh"
	"c2knn/internal/nndescent"
	"c2knn/internal/persist"
	"c2knn/internal/similarity"
)

func main() {
	var (
		in      = flag.String("in", "", "input dataset file (plain-text profile format)")
		out     = flag.String("out", "", "output edge file (empty: stdout summary only)")
		snap    = flag.String("snap", "", "write a binary snapshot (frozen graph + dataset + fingerprints) to this path")
		algo    = flag.String("algo", "c2", "algorithm: c2, hyrec, nndescent, lsh, bruteforce")
		k       = flag.Int("k", 30, "neighborhood size")
		gfbits  = flag.Int("gfbits", 1024, "GoldFinger width (ignored with -raw)")
		raw     = flag.Bool("raw", false, "use exact Jaccard instead of GoldFinger")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size")
		seed    = flag.Int64("seed", 42, "random seed")
		shards  = flag.Int("shards", 0, "with -snap: also partition the build into this many per-shard snapshots plus a manifest")
		buckets = flag.Int("shard-buckets", frh.DefaultShardBuckets, "shard-key bucket count recorded in the manifest")
	)
	flag.Parse()
	if err := checkFlags(*in, *snap, *k, *shards); err != nil {
		fmt.Fprintln(os.Stderr, "c2build:", err)
		os.Exit(2)
	}
	d, err := dataset.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	fmt.Println(d.ComputeStats())

	var prov similarity.Provider
	var gf *goldfinger.Set
	if *raw {
		prov = similarity.NewJaccard(d)
	} else {
		gf, err = goldfinger.New(d, *gfbits, 0x60fd)
		if err != nil {
			fatal(err)
		}
		prov = gf
	}
	counting := similarity.NewCounting(prov)

	start := time.Now()
	var g *knng.Graph
	switch *algo {
	case "c2":
		g, _ = core.Build(d, counting, core.Options{K: *k, Workers: *workers, Seed: *seed})
	case "hyrec":
		g, _ = hyrec.Build(d.NumUsers(), counting, hyrec.Options{K: *k, Workers: *workers, Seed: *seed})
	case "nndescent":
		g, _ = nndescent.Build(d.NumUsers(), counting, nndescent.Options{K: *k, Workers: *workers, Seed: *seed})
	case "lsh":
		g, _ = lsh.Build(d, counting, lsh.Options{K: *k, Workers: *workers, Seed: *seed})
	case "bruteforce":
		g = bruteforce.Build(d.NumUsers(), *k, counting, *workers)
	default:
		fmt.Fprintf(os.Stderr, "c2build: unknown algorithm %q\n", *algo)
		os.Exit(2)
	}
	fmt.Printf("%s: %v, %d similarity computations, avg stored sim %.4f\n",
		*algo, time.Since(start).Round(time.Millisecond), counting.Count(), g.AvgStoredSim())

	if *snap != "" {
		start = time.Now()
		frozen := g.Freeze()
		err := persist.WriteFile(*snap, &persist.Snapshot{
			Graph:      frozen,
			Train:      d,
			GoldFinger: gf, // nil with -raw: the snapshot simply omits the section
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote snapshot %s (%d users, %d edges) in %v\n",
			*snap, frozen.NumUsers(), frozen.NumEdges(), time.Since(start).Round(time.Millisecond))

		if *shards > 1 {
			if err := writeShards(*snap, frozen, d, gf, *buckets, *shards); err != nil {
				fatal(err)
			}
		}
	}

	if *out == "" {
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	w := bufio.NewWriter(f)
	for u := 0; u < g.NumUsers(); u++ {
		for _, nb := range g.Neighbors(int32(u)) {
			fmt.Fprintf(w, "%d %d %.6f\n", u, nb.ID, nb.Sim)
		}
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// checkFlags rejects flag combinations c2build cannot honour, before
// any work starts.
func checkFlags(in, snap string, k, shards int) error {
	switch {
	case in == "":
		return errors.New("-in is required")
	case k < 1:
		return fmt.Errorf("-k must be at least 1, got %d", k)
	case shards != 0 && snap == "":
		return errors.New("-shards requires -snap")
	}
	return nil
}

// writeShards partitions the frozen build into per-shard snapshots
// (<snap>.shard<i>) plus a versioned manifest (<snap>.manifest) mapping
// bucket ranges to shard files — the artifact set c2serve -role router
// serves. The manifest records each shard file's whole-file CRC and a
// common epoch (the build's unix time), so a router can verify it is
// fronting one coherent build.
func writeShards(snapPath string, frozen *knng.Frozen, d *dataset.Dataset, gf *goldfinger.Set, buckets, shards int) error {
	start := time.Now()
	ranges := frh.PartitionBuckets(buckets, shards)
	parts, users, err := persist.PartitionSnapshot(&persist.Snapshot{
		Graph: frozen, Train: d, GoldFinger: gf,
	}, buckets, ranges)
	if err != nil {
		return err
	}
	m := &persist.Manifest{Buckets: buckets, Epoch: uint64(time.Now().Unix())}
	for i, part := range parts {
		path := fmt.Sprintf("%s.shard%d", snapPath, i)
		if err := persist.WriteFile(path, part); err != nil {
			return err
		}
		crc, err := persist.FileCRC32C(path)
		if err != nil {
			return err
		}
		m.Shards = append(m.Shards, persist.ShardEntry{
			ID: i, Range: ranges[i], Path: filepath.Base(path),
			CRC: crc, Epoch: m.Epoch, Users: users[i],
		})
		fmt.Printf("wrote shard snapshot %s (%d owned users, %d edges)\n",
			path, users[i], part.Graph.NumEdges())
	}
	manifestPath := snapPath + ".manifest"
	if err := persist.WriteManifestFile(manifestPath, m); err != nil {
		return err
	}
	fmt.Printf("wrote shard manifest %s (%d shards, %d buckets, epoch %d) in %v\n",
		manifestPath, shards, buckets, m.Epoch, time.Since(start).Round(time.Millisecond))
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "c2build: %v\n", err)
	os.Exit(1)
}
