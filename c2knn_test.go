package c2knn_test

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"c2knn"
	"c2knn/internal/bruteforce"
	"c2knn/internal/hyrec"
	"c2knn/internal/lsh"
	"c2knn/internal/nndescent"
)

func smallDataset(t testing.TB) *c2knn.Dataset {
	t.Helper()
	d, err := c2knn.Generate("ml1M", 0.06)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateRejectsUnknownPreset(t *testing.T) {
	if _, err := c2knn.Generate("nonsense", 1); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestGenerateRejectsBadScale: a scale that is not a finite number
// above 0 is an error, not the paper-size dataset (f <= 0, NaN) or the
// 200-user minimum (+Inf).
func TestGenerateRejectsBadScale(t *testing.T) {
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if d, err := c2knn.Generate("ml1M", scale); err == nil {
			t.Errorf("scale %v accepted (%d users)", scale, d.NumUsers())
		}
	}
}

func TestGenerateAllPresets(t *testing.T) {
	for _, cfg := range c2knn.Presets() {
		d, err := c2knn.Generate(cfg.Name, 0.01)
		if err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
			continue
		}
		if d.NumUsers() == 0 || d.NumRatings() == 0 {
			t.Errorf("%s: empty dataset", cfg.Name)
		}
	}
}

func TestFullPipelineEndToEnd(t *testing.T) {
	d := smallDataset(t)
	gf, err := c2knn.NewGoldFinger(d, 512)
	if err != nil {
		t.Fatal(err)
	}
	raw := c2knn.ExactJaccard(d)
	exact := c2knn.BuildBruteForce(d, raw, c2knn.BuildOptions{K: 10})

	type builder struct {
		name string
		fn   func() *c2knn.Graph
	}
	builders := []builder{
		{"C2", func() *c2knn.Graph {
			g, stats := c2knn.BuildC2(d, gf, c2knn.BuildOptions{K: 10})
			if stats.Clusters == 0 {
				t.Error("C2 reported zero clusters")
			}
			return g
		}},
		{"Hyrec", func() *c2knn.Graph { return c2knn.BuildHyrec(d, gf, c2knn.BuildOptions{K: 10}) }},
		{"NNDescent", func() *c2knn.Graph { return c2knn.BuildNNDescent(d, gf, c2knn.BuildOptions{K: 10}) }},
		{"LSH", func() *c2knn.Graph { return c2knn.BuildLSH(d, gf, c2knn.BuildOptions{K: 10}) }},
	}
	for _, b := range builders {
		g := b.fn()
		if g.NumUsers() != d.NumUsers() {
			t.Errorf("%s: wrong graph size", b.name)
		}
		if q := c2knn.Quality(g, exact, raw); q < 0.6 {
			t.Errorf("%s: quality %.3f collapsed", b.name, q)
		}
	}
}

// TestBuildersNonPositiveK: every public builder treats k ≤ 0 as the
// default 30 — none panics (brute force and LSH used to, inside worker
// goroutines) or returns an empty K ≤ 0 graph.
func TestBuildersNonPositiveK(t *testing.T) {
	d, err := c2knn.Generate("ml1M", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	sim := c2knn.ExactJaccard(d)
	builders := map[string]func(*c2knn.Dataset, c2knn.Similarity, c2knn.BuildOptions) *c2knn.Graph{
		"C2": func(d *c2knn.Dataset, sim c2knn.Similarity, o c2knn.BuildOptions) *c2knn.Graph {
			g, _ := c2knn.BuildC2(d, sim, o)
			return g
		},
		"BruteForce": c2knn.BuildBruteForce,
		"Hyrec":      c2knn.BuildHyrec,
		"NNDescent":  c2knn.BuildNNDescent,
		"LSH":        c2knn.BuildLSH,
	}
	for name, build := range builders {
		for _, k := range []int{0, -1} {
			g := build(d, sim, c2knn.BuildOptions{K: k})
			if g.K != 30 || g.NumUsers() != d.NumUsers() {
				t.Fatalf("%s(k=%d): graph K=%d over %d users, want K=30 over %d", name, k, g.K, g.NumUsers(), d.NumUsers())
			}
			for u, l := range g.Lists {
				if l.K != 30 {
					t.Fatalf("%s(k=%d): user %d list K=%d, want 30", name, k, u, l.K)
				}
			}
		}
	}
}

// TestBuildersHonourOptions: each baseline builder passes K, Workers
// and Seed through to its algorithm — at one worker it freezes to
// exactly the graph the internal builder produces with the same
// values, and for the randomized baselines another seed gives another
// graph.
func TestBuildersHonourOptions(t *testing.T) {
	d, err := c2knn.Generate("ml1M", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	sim := c2knn.ExactJaccard(d)
	n := d.NumUsers()
	for _, tc := range []struct {
		name     string
		build    func(*c2knn.Dataset, c2knn.Similarity, c2knn.BuildOptions) *c2knn.Graph
		internal func(seed int64) *c2knn.Graph
		seeded   bool
	}{
		{"Hyrec", c2knn.BuildHyrec, func(seed int64) *c2knn.Graph {
			g, _ := hyrec.Build(n, sim, hyrec.Options{K: 7, Workers: 1, Seed: seed})
			return g
		}, true},
		{"NNDescent", c2knn.BuildNNDescent, func(seed int64) *c2knn.Graph {
			g, _ := nndescent.Build(n, sim, nndescent.Options{K: 7, Workers: 1, Seed: seed})
			return g
		}, true},
		{"LSH", c2knn.BuildLSH, func(seed int64) *c2knn.Graph {
			g, _ := lsh.Build(d, sim, lsh.Options{K: 7, Workers: 1, Seed: seed})
			return g
		}, true},
		{"BruteForce", c2knn.BuildBruteForce, func(int64) *c2knn.Graph {
			return bruteforce.Build(n, 7, sim, 1)
		}, false},
	} {
		got := tc.build(d, sim, c2knn.BuildOptions{K: 7, Workers: 1, Seed: 3}).Freeze()
		if !reflect.DeepEqual(got, tc.internal(3).Freeze()) {
			t.Errorf("%s: graph differs from the internal builder's with K 7, 1 worker, seed 3", tc.name)
		}
		if !tc.seeded {
			continue
		}
		other := tc.build(d, sim, c2knn.BuildOptions{K: 7, Workers: 1, Seed: 4}).Freeze()
		if reflect.DeepEqual(got, other) {
			t.Errorf("%s: seeds 3 and 4 built the same graph", tc.name)
		}
	}
}

func TestDatasetFileRoundTrip(t *testing.T) {
	d := smallDataset(t)
	path := filepath.Join(t.TempDir(), "ds.txt")
	if err := c2knn.SaveDataset(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := c2knn.LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumUsers() != d.NumUsers() || got.NumRatings() != d.NumRatings() {
		t.Error("dataset round trip lost data")
	}
}

func TestFromRatingsFacade(t *testing.T) {
	d := c2knn.FromRatings("raw", []c2knn.Rating{
		{User: 0, Item: 1, Value: 5},
		{User: 0, Item: 2, Value: 1},
		{User: 1, Item: 1, Value: 4},
	}, c2knn.DatasetOptions{PositiveThreshold: 3})
	if d.NumUsers() != 2 {
		t.Errorf("users = %d, want 2", d.NumUsers())
	}
	if d.NumRatings() != 2 {
		t.Errorf("ratings = %d, want 2 (one filtered)", d.NumRatings())
	}
}

func TestRecommendationFacade(t *testing.T) {
	d := smallDataset(t)
	folds := c2knn.SplitFolds(d, 5, 1)
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	f := folds[0]
	gf, err := c2knn.NewGoldFinger(f.Train, 512)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := c2knn.BuildC2(f.Train, gf, c2knn.BuildOptions{K: 10})
	ix, err := c2knn.NewIndex(g, f.Train, gf)
	if err != nil {
		t.Fatal(err)
	}
	if recs := ix.Recommend(0, 10); len(recs) == 0 {
		t.Error("no recommendations for user 0")
	}
	if r := c2knn.EvalRecall(f, g, 20); r <= 0 {
		t.Errorf("recall = %v, want > 0", r)
	}
	// n ≤ 0 recommends nothing: recall 0, not a panic in a worker.
	for _, n := range []int{0, -1} {
		if r := c2knn.EvalRecall(f, g, n); r != 0 {
			t.Errorf("EvalRecall(n = %d) = %v, want 0", n, r)
		}
		if r := c2knn.EvalRecallFrozen(f, g.Freeze(), n); r != 0 {
			t.Errorf("EvalRecallFrozen(n = %d) = %v, want 0", n, r)
		}
	}
}

func TestAvgSimFacade(t *testing.T) {
	d := smallDataset(t)
	raw := c2knn.ExactJaccard(d)
	exact := c2knn.BuildBruteForce(d, raw, c2knn.BuildOptions{K: 5})
	if c2knn.AvgSim(exact, raw) <= 0 {
		t.Error("exact graph has zero average similarity")
	}
}
