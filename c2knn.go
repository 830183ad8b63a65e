package c2knn

import (
	"fmt"
	"runtime"

	"c2knn/internal/bruteforce"
	"c2knn/internal/core"
	"c2knn/internal/dataset"
	"c2knn/internal/goldfinger"
	"c2knn/internal/hyrec"
	"c2knn/internal/knng"
	"c2knn/internal/lsh"
	"c2knn/internal/nndescent"
	"c2knn/internal/similarity"
	"c2knn/internal/synth"
)

// Dataset is an item-based dataset: one sorted item-id profile per user.
type Dataset = dataset.Dataset

// Rating is a raw (user, item, value) triple; see FromRatings.
type Rating = dataset.Rating

// DatasetOptions controls binarization and filtering of raw ratings.
type DatasetOptions = dataset.Options

// Graph is a directed KNN graph with bounded per-user neighbor lists.
type Graph = knng.Graph

// Neighbor is one edge of a Graph.
type Neighbor = knng.Neighbor

// Similarity computes user-to-user similarities; implementations must be
// safe for concurrent use and must return non-negative, non-NaN values
// (every built-in metric maps into [0, 1]). Degenerate values are
// rejected at neighbor-list insertion — a NaN would otherwise corrupt
// the bounded k-heaps the solvers and the merge rely on — so a signed
// metric must be shifted into [0, ∞) before being used as a provider.
type Similarity = similarity.Provider

// Localizer is the optional fast-path interface a Similarity may
// implement: Gather copies one cluster's data into a reusable LocalSim
// kernel so the local solvers evaluate pair similarities with zero
// interface dispatch. The built-in providers (GoldFinger, exact
// Jaccard, Cosine) all implement it; any other Similarity transparently
// falls back to per-pair dispatch.
type Localizer = similarity.Localizer

// LocalSim is a gathered cluster-local similarity kernel; see Localizer.
type LocalSim = similarity.Local

// BuildOptions parameterizes BuildC2; the zero value is the paper's
// configuration (k=30, b=4096, t=8, N=2000, ρ=5, recursive splitting on,
// largest-first scheduling, hybrid local solver) with the pipelined
// build enabled. Set DisablePipeline to restore the historical
// cluster-everything-then-solve barrier.
type BuildOptions = core.Options

// C2Stats reports clustering and timing details of a BuildC2 run,
// including the per-phase wall-clock times and the clustering/solving
// overlap recovered by the pipeline (OverlapTime, MaxQueueDepth).
type C2Stats = core.Stats

// SynthConfig describes a synthetic dataset; see Presets.
type SynthConfig = synth.Config

// Generate builds a synthetic dataset calibrated to one of the paper's
// six evaluation datasets ("ml1M", "ml10M", "ml20M", "AM", "DBLP", "GW"),
// scaled by scale (1 = paper size).
func Generate(preset string, scale float64) (*Dataset, error) {
	cfg, ok := synth.ByName(preset)
	if !ok {
		return nil, fmt.Errorf("c2knn: unknown preset %q (want one of ml1M, ml10M, ml20M, AM, DBLP, GW)", preset)
	}
	return synth.Generate(cfg.Scale(scale)), nil
}

// GenerateConfig builds a synthetic dataset from an explicit
// configuration.
func GenerateConfig(cfg SynthConfig) *Dataset { return synth.Generate(cfg) }

// Presets returns the six calibrated synthetic dataset configurations.
func Presets() []SynthConfig { return synth.Presets() }

// FromRatings binarizes and filters raw ratings into a Dataset (the
// paper keeps ratings > 3 and users with ≥ 20 ratings).
func FromRatings(name string, ratings []Rating, opts DatasetOptions) *Dataset {
	return dataset.FromRatings(name, ratings, opts)
}

// LoadDataset reads a dataset from the plain-text profile format.
func LoadDataset(path string) (*Dataset, error) { return dataset.ReadFile(path) }

// SaveDataset writes a dataset in the plain-text profile format.
func SaveDataset(path string, d *Dataset) error { return dataset.WriteFile(path, d) }

// ExactJaccard returns the exact Jaccard similarity over d's raw
// profiles.
func ExactJaccard(d *Dataset) Similarity { return similarity.NewJaccard(d) }

// Cosine returns the cosine similarity over d's binary profiles.
func Cosine(d *Dataset) Similarity { return similarity.NewCosine(d) }

// NewGoldFinger summarizes every profile of d into a bits-wide
// fingerprint (a positive multiple of 64; the paper uses 1024) and
// returns the resulting estimated-Jaccard similarity.
func NewGoldFinger(d *Dataset, bits int) (Similarity, error) {
	return goldfinger.New(d, bits, 0x60fd)
}

// BuildC2 computes an approximate KNN graph of d with Cluster-and-
// Conquer. sim is consulted for every similarity evaluation — pass a
// NewGoldFinger provider to reproduce the paper's configuration, or
// ExactJaccard for exact similarities.
//
// Clustering and solving are pipelined: the t clustering configurations
// hash concurrently and stream finalized clusters into a
// size-prioritized queue drained by the solver pool, so the first
// clusters are solved and merged while later configurations are still
// hashing. For a fixed Seed the produced cluster set, and every user's
// sorted neighbor similarities, are identical to the barrier path's
// (opts.DisablePipeline); only tie-breaking among equal-similarity
// neighbors may differ.
func BuildC2(d *Dataset, sim Similarity, opts BuildOptions) (*Graph, C2Stats) {
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return core.Build(d, sim, opts)
}

// BuildBruteForce computes the exact KNN graph of d under sim with
// neighborhoods of size k.
func BuildBruteForce(d *Dataset, sim Similarity, k int) *Graph {
	return bruteforce.Build(d.NumUsers(), k, sim, runtime.GOMAXPROCS(0))
}

// BuildHyrec computes an approximate KNN graph with the Hyrec greedy
// baseline (random start, neighbors-of-neighbors refinement).
func BuildHyrec(d *Dataset, sim Similarity, k int) *Graph {
	g, _ := hyrec.Build(d.NumUsers(), sim, hyrec.Options{K: k, Workers: runtime.GOMAXPROCS(0)})
	return g
}

// BuildNNDescent computes an approximate KNN graph with the NNDescent
// greedy baseline.
func BuildNNDescent(d *Dataset, sim Similarity, k int) *Graph {
	g, _ := nndescent.Build(d.NumUsers(), sim, nndescent.Options{K: k, Workers: runtime.GOMAXPROCS(0)})
	return g
}

// BuildLSH computes an approximate KNN graph with the MinHash-based LSH
// baseline.
func BuildLSH(d *Dataset, sim Similarity, k int) *Graph {
	g, _ := lsh.Build(d, sim, lsh.Options{K: k, Workers: runtime.GOMAXPROCS(0)})
	return g
}

// Quality returns avg_sim(approx)/avg_sim(exact) with both averages
// recomputed under sim — Eq. (2) of the paper. Values close to 1 mean
// approx can replace exact.
func Quality(approx, exact *Graph, sim Similarity) float64 {
	return knng.Quality(approx, exact, sim)
}

// AvgSim returns the average similarity of g's edges under sim (Eq. 1).
func AvgSim(g *Graph, sim Similarity) float64 { return g.AvgSim(sim) }
