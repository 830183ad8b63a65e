package c2knn_test

import (
	"path/filepath"
	"testing"

	"c2knn"
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
	exact := c2knn.BuildBruteForce(d, raw, 10)

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
		{"Hyrec", func() *c2knn.Graph { return c2knn.BuildHyrec(d, gf, 10) }},
		{"NNDescent", func() *c2knn.Graph { return c2knn.BuildNNDescent(d, gf, 10) }},
		{"LSH", func() *c2knn.Graph { return c2knn.BuildLSH(d, gf, 10) }},
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
	builders := map[string]func(k int) *c2knn.Graph{
		"C2": func(k int) *c2knn.Graph {
			g, _ := c2knn.BuildC2(d, sim, c2knn.BuildOptions{K: k})
			return g
		},
		"BruteForce": func(k int) *c2knn.Graph { return c2knn.BuildBruteForce(d, sim, k) },
		"Hyrec":      func(k int) *c2knn.Graph { return c2knn.BuildHyrec(d, sim, k) },
		"NNDescent":  func(k int) *c2knn.Graph { return c2knn.BuildNNDescent(d, sim, k) },
		"LSH":        func(k int) *c2knn.Graph { return c2knn.BuildLSH(d, sim, k) },
	}
	for name, build := range builders {
		for _, k := range []int{0, -1} {
			g := build(k)
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
	recs := c2knn.Recommend(f.Train, g, 0, 10)
	if len(recs) == 0 {
		t.Error("no recommendations for user 0")
	}
	if r := c2knn.EvalRecall(f, g, 20); r <= 0 {
		t.Errorf("recall = %v, want > 0", r)
	}
}

func TestAvgSimFacade(t *testing.T) {
	d := smallDataset(t)
	raw := c2knn.ExactJaccard(d)
	exact := c2knn.BuildBruteForce(d, raw, 5)
	if c2knn.AvgSim(exact, raw) <= 0 {
		t.Error("exact graph has zero average similarity")
	}
}
