package recommend

import (
	"math/rand"
	"slices"
	"testing"

	"c2knn/internal/bruteforce"
	"c2knn/internal/core"
	"c2knn/internal/dataset"
	"c2knn/internal/delta"
	"c2knn/internal/goldfinger"
	"c2knn/internal/knng"
	"c2knn/internal/sets"
	"c2knn/internal/similarity"
	"c2knn/internal/synth"
)

// mapRecommend is the oracle of the Scorer: the same user-based CF
// computed the plain way, over the mutable graph with a scoring map per
// call and a full sort of every scored item (rankScored). n ≤ 0 yields
// nil.
func mapRecommend(train *dataset.Dataset, g *knng.Graph, u int32, n int) []int32 {
	if n <= 0 {
		return nil
	}
	scores := make(map[int32]float64)
	own := train.Profiles[u]
	for _, nb := range g.Lists[u].H {
		if nb.Sim <= 0 {
			continue
		}
		for _, it := range train.Profiles[nb.ID] {
			if sets.Contains(own, it) {
				continue
			}
			scores[it] += nb.Sim
		}
	}
	ranked := make([]scored, 0, len(scores))
	for it, s := range scores {
		ranked = append(ranked, scored{it, s})
	}
	return rankScored(ranked, n, make([]int32, 0, min(n, len(ranked))))
}

// rankScored fully sorts ranked by compareScored, truncates to n, and
// appends the item ids to dst: mapRecommend's ranking and the oracle of
// the Scorer's bounded drain.
func rankScored(ranked []scored, n int, dst []int32) []int32 {
	slices.SortFunc(ranked, compareScored)
	if len(ranked) > n {
		ranked = ranked[:n]
	}
	for _, r := range ranked {
		dst = append(dst, r.item)
	}
	return dst
}

func TestSplitPartitionsProfiles(t *testing.T) {
	d := synth.Generate(synth.ML1M().Scale(0.03))
	const folds = 5
	fs := Split(d, folds, 1)
	if len(fs) != folds {
		t.Fatalf("got %d folds", len(fs))
	}
	for u := 0; u < d.NumUsers(); u++ {
		orig := d.Profiles[u]
		var rebuilt []int32
		for fi, f := range fs {
			train := f.Train.Profiles[u]
			test := f.Test[u]
			if len(train)+len(test) != len(orig) {
				t.Fatalf("fold %d user %d: train %d + test %d != profile %d",
					fi, u, len(train), len(test), len(orig))
			}
			// Train and test are disjoint.
			for _, it := range test {
				if sets.Contains(train, it) {
					t.Fatalf("fold %d user %d: item %d in both train and test", fi, u, it)
				}
			}
			rebuilt = append(rebuilt, test...)
		}
		// Across folds, the test parts cover the profile exactly once
		// (users with ≥ folds items).
		if len(orig) >= folds {
			rebuilt = sets.Normalize(rebuilt)
			if !sets.Equal(rebuilt, orig) {
				t.Fatalf("user %d: test folds do not cover the profile", u)
			}
		}
	}
}

func TestSplitSmallProfilesStayInTrain(t *testing.T) {
	d := dataset.New("tiny", [][]int32{{1, 2}, {3, 4, 5, 6, 7, 8}}, 9)
	fs := Split(d, 5, 2)
	for _, f := range fs {
		if len(f.Test[0]) != 0 {
			t.Error("2-item profile should never be split into 5 folds")
		}
		if len(f.Train.Profiles[0]) != 2 {
			t.Error("small profile should remain fully in train")
		}
	}
}

func TestSplitPanicsOnOneFold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Split with 1 fold should panic")
		}
	}()
	Split(dataset.New("x", [][]int32{{1}}, 2), 1, 1)
}

func TestRecommendExcludesOwnItems(t *testing.T) {
	// u0 and u1 are similar; u1 has an extra item that should be
	// recommended to u0; u0's own items must not be.
	d := dataset.New("r", [][]int32{
		{0, 1, 2},
		{0, 1, 2, 3},
		{7, 8},
	}, 9)
	g := knng.New(3, 2)
	g.Insert(0, 1, 0.75)
	g.Insert(0, 2, 0.01)
	recs := mapRecommend(d, g, 0, 5)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	if recs[0] != 3 {
		t.Errorf("top recommendation = %d, want 3", recs[0])
	}
	for _, it := range recs {
		if sets.Contains(d.Profiles[0], it) {
			t.Errorf("recommended an item u0 already has: %d", it)
		}
	}
}

func TestRecommendScoresBySimilaritySum(t *testing.T) {
	d := dataset.New("s", [][]int32{
		{0},
		{1}, // neighbor A recommends 1
		{2}, // neighbor B recommends 2
		{2}, // neighbor C also recommends 2
	}, 3)
	g := knng.New(4, 3)
	g.Insert(0, 1, 0.5)
	g.Insert(0, 2, 0.3)
	g.Insert(0, 3, 0.3)
	recs := mapRecommend(d, g, 0, 2)
	// Item 2 scores 0.6 > item 1 at 0.5.
	if len(recs) != 2 || recs[0] != 2 || recs[1] != 1 {
		t.Errorf("recs = %v, want [2 1]", recs)
	}
}

func TestRecall(t *testing.T) {
	if got := Recall([]int32{1, 2, 3}, []int32{2, 3, 9}); got != 2.0/3.0 {
		t.Errorf("Recall = %v, want 2/3", got)
	}
	if got := Recall(nil, []int32{1}); got != 0 {
		t.Errorf("Recall with no recs = %v, want 0", got)
	}
	if got := Recall([]int32{1}, nil); got != -1 {
		t.Errorf("Recall with empty test = %v, want -1 (excluded)", got)
	}
}

// TestEndToEndRecallBeatsRandom: a KNN-graph recommender must beat a
// random-graph recommender on clustered data.
func TestEndToEndRecallBeatsRandom(t *testing.T) {
	d := synth.Generate(synth.ML1M().Scale(0.05))
	folds := Split(d, 5, 3)
	f := folds[0]
	raw := similarity.NewJaccard(f.Train)
	exact := bruteforce.Build(f.Train.NumUsers(), 10, raw, 2)
	random := knng.New(f.Train.NumUsers(), 10)
	knng.RandomInit(random, raw, 4)
	exactRecall := EvalRecall(f, exact, 20, 2)
	randomRecall := EvalRecall(f, random, 20, 2)
	if exactRecall <= randomRecall {
		t.Errorf("exact-graph recall %.4f not better than random-graph %.4f",
			exactRecall, randomRecall)
	}
	if exactRecall <= 0 {
		t.Error("exact-graph recall is zero — recommender broken")
	}
}

// frozenTestGraph builds a random graph whose similarities are exact
// float32 values (multiples of 1/256), so the float64 map path and the
// float32 frozen path must agree bit-for-bit.
func frozenTestGraph(n, k int, seed int64) *knng.Graph {
	g := knng.New(n, k)
	rng := rand.New(rand.NewSource(seed))
	knng.FillRandom(g.Lists, rng, func(u, v int) float64 {
		return float64(rng.Intn(256)) / 256
	})
	return g
}

// materialize copies a Source into the dataset + mutable graph the
// map-based reference path reads.
func materialize(src Source, users int) (*dataset.Dataset, *knng.Graph) {
	profiles := make([][]int32, users)
	k := 1
	for u := range profiles {
		profiles[u] = slices.Clone(src.Profile(int32(u)))
		ids, _ := src.Neighbors(int32(u))
		k = max(k, len(ids))
	}
	g := knng.New(users, k)
	for u := range profiles {
		ids, sims := src.Neighbors(int32(u))
		for i, v := range ids {
			g.Lists[u].Insert(v, float64(sims[i]))
		}
	}
	return dataset.New("materialized", profiles, src.NumItems()), g
}

// checkAgainstMap requires the Scorer's RecommendSource over src (and,
// when f is set, its Recommend over d and f) to return for every user
// exactly what the map-based reference path returns over d and g.
func checkAgainstMap(t *testing.T, d *dataset.Dataset, g *knng.Graph, src Source, f *knng.Frozen) {
	t.Helper()
	sc := NewScorer(src.NumItems())
	var rec []int32
	for _, n := range []int{1, 5, 10, 30} {
		for u := int32(0); int(u) < d.NumUsers(); u++ {
			want := mapRecommend(d, g, u, n)
			rec = sc.RecommendSource(src, u, n, rec[:0])
			if !slices.Equal(rec, want) {
				t.Fatalf("n=%d user %d: RecommendSource %v, map path %v", n, u, rec, want)
			}
			if f != nil {
				rec = sc.Recommend(d, f, u, n, rec[:0])
				if !slices.Equal(rec, want) {
					t.Fatalf("n=%d user %d: Recommend %v, map path %v", n, u, rec, want)
				}
			}
		}
	}
}

func TestScorerMatchesMapRecommend(t *testing.T) {
	d := synth.Generate(synth.ML1M().Scale(0.03))
	g := frozenTestGraph(d.NumUsers(), 8, 11)
	f := g.Freeze()
	checkAgainstMap(t, d, g, frozenPair{d, f}, f)

	// The delta overlay's merged view, after upserts that add users,
	// rewrite base profiles and introduce an item beyond the base
	// universe.
	const gfSeed = 0x60fd
	gf := goldfinger.MustNew(d, goldfinger.DefaultBits, gfSeed)
	c2, _ := core.Build(d, similarity.NewCounting(gf), core.Options{K: 10, Workers: 2, Seed: 42})
	ov, err := delta.Attach(c2.Freeze(), d, gf, nil)
	if err != nil {
		t.Fatal(err)
	}
	upserts := []struct {
		user  int32
		items []int32
	}{
		{-1, slices.Clone(d.Profiles[7])},
		{3, append(slices.Clone(d.Profiles[3]), d.NumItems+5)},
		{-1, append(slices.Clone(d.Profiles[11]), d.Profiles[12]...)},
		{20, slices.Clone(d.Profiles[21])},
	}
	for _, up := range upserts {
		if _, err := ov.Upsert(up.user, up.items); err != nil {
			t.Fatalf("Upsert(%d): %v", up.user, err)
		}
	}
	v := ov.View()
	vd, vg := materialize(v, v.NumUsers())
	checkAgainstMap(t, vd, vg, v, nil)
}

func TestScorerScratchCleanBetweenQueries(t *testing.T) {
	// Two consecutive queries for the same user through one Scorer must
	// be identical: leftover scores would double-count.
	d := synth.Generate(synth.ML1M().Scale(0.03))
	g := frozenTestGraph(d.NumUsers(), 8, 12)
	f := g.Freeze()
	sc := NewScorer(d.NumItems)
	for u := 0; u < 50; u++ {
		first := append([]int32(nil), sc.Recommend(d, f, int32(u), 20, nil)...)
		second := sc.Recommend(d, f, int32(u), 20, nil)
		if !slices.Equal(first, second) {
			t.Fatalf("user %d: repeat query diverged: %v vs %v", u, first, second)
		}
		assertScratchClean(t, sc)
	}

	// User A's own items are marked excluded only while A is scored.
	// B's neighbors hold A's items, so B must be recommended them right
	// after A's query.
	profiles := [][]int32{
		0: {1, 2, 3}, // A
		1: {7},       // B
		2: {1, 2, 3, 4},
		3: {2, 3, 5},
	}
	d = dataset.New("mask", profiles, 8)
	g = knng.New(len(profiles), 2)
	for _, u := range []int{0, 1} {
		g.Lists[u].Insert(2, 0.5)
		g.Lists[u].Insert(3, 0.25)
	}
	f = g.Freeze()
	for _, q := range []struct {
		u    int32
		want []int32
	}{
		{0, []int32{4, 5}},
		{1, []int32{2, 3, 1, 4, 5}},
		{0, []int32{4, 5}},
		{1, []int32{2, 3, 1, 4, 5}},
	} {
		got := sc.Recommend(d, f, q.u, 10, nil)
		if !slices.Equal(got, q.want) {
			t.Fatalf("user %d: %v, want %v", q.u, got, q.want)
		}
		if ref := mapRecommend(d, g, q.u, 10); !slices.Equal(got, ref) {
			t.Fatalf("user %d: %v, map path %v", q.u, got, ref)
		}
		assertScratchClean(t, sc)
	}
}

func assertScratchClean(t *testing.T, sc *Scorer) {
	t.Helper()
	for it, v := range sc.scores {
		if v != 0 {
			t.Fatalf("scores[%d] = %v after a query, want 0", it, v)
		}
	}
	if len(sc.touched) != 0 {
		t.Fatalf("%d touched items left after a query", len(sc.touched))
	}
}

// TestDrainMatchesFullSort: the bounded drain must return exactly the
// first n items of rankScored's full sort. Scores are quantized to a
// handful of levels so equal-score runs straddle the n-th slot and the
// item-id tie-break decides membership.
func TestDrainMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		universe := 1 + rng.Intn(300)
		levels := 1 + rng.Intn(6)
		sc := NewScorer(int32(universe))
		var all []scored
		for _, it := range rng.Perm(universe)[:1+rng.Intn(universe)] {
			score := float64(1+rng.Intn(levels)) / 4
			sc.scores[it] = score
			sc.touched = append(sc.touched, int32(it))
			all = append(all, scored{int32(it), score})
		}
		tn := len(all)
		for _, n := range []int{1, 5, 10, 30, tn, tn + 7} {
			// drain consumes the scratch; replay it per n.
			for _, c := range all {
				sc.scores[c.item] = c.score
				sc.touched = append(sc.touched, c.item)
			}
			got := sc.drain(n, nil)
			want := rankScored(slices.Clone(all), n, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d n=%d T=%d levels=%d: drain %v, full sort %v", trial, n, tn, levels, got, want)
			}
			assertScratchClean(t, sc)
		}
	}
}

// TestScorerNonPositiveN: n ≤ 0 asks for nothing and gets nothing,
// leaving dst and the scratch untouched.
func TestScorerNonPositiveN(t *testing.T) {
	d := synth.Generate(synth.ML1M().Scale(0.03))
	g := frozenTestGraph(d.NumUsers(), 8, 15)
	f := g.Freeze()
	sc := NewScorer(d.NumItems)
	dst := []int32{42}
	for _, n := range []int{0, -1, -30} {
		if got := sc.Recommend(d, f, 3, n, dst); !slices.Equal(got, dst) {
			t.Fatalf("Recommend n=%d appended: %v", n, got)
		}
		if got := sc.RecommendSource(frozenPair{d, f}, 3, n, dst); !slices.Equal(got, dst) {
			t.Fatalf("RecommendSource n=%d appended: %v", n, got)
		}
		if got := mapRecommend(d, g, 3, n); got != nil {
			t.Fatalf("mapRecommend n=%d = %v, want nil", n, got)
		}
		assertScratchClean(t, sc)
	}
}

// TestScorerRecommendZeroAllocs: a warmed Scorer with a recycled dst
// allocates nothing — the selection heap lives in Scorer.ranked.
func TestScorerRecommendZeroAllocs(t *testing.T) {
	d := synth.Generate(synth.ML1M().Scale(0.03))
	g := frozenTestGraph(d.NumUsers(), 8, 16)
	f := g.Freeze()
	sc := NewScorer(d.NumItems)
	src := Source(frozenPair{d, f})
	rec := make([]int32, 0, 30)
	for u := 0; u < d.NumUsers(); u++ { // warm touched/ranked to their peak
		rec = sc.Recommend(d, f, int32(u), 30, rec[:0])
	}
	u := int32(0)
	allocs := testing.AllocsPerRun(200, func() {
		rec = sc.Recommend(d, f, u, 10, rec[:0])
		rec = sc.RecommendSource(src, u, 30, rec[:0])
		u = (u + 1) % int32(d.NumUsers())
	})
	if allocs != 0 {
		t.Fatalf("warmed Scorer allocates %v times per query pair, want 0", allocs)
	}
}

func TestScorerGrowsToLargerUniverse(t *testing.T) {
	small := dataset.New("small", [][]int32{{0}, {1}}, 2)
	sc := NewScorer(small.NumItems)
	big := dataset.New("big", [][]int32{{0, 90}, {91, 95}}, 100)
	g := knng.New(2, 1)
	g.Insert(0, 1, 0.5)
	rec := sc.Recommend(big, g.Freeze(), 0, 5, nil)
	if len(rec) != 2 || rec[0] != 91 || rec[1] != 95 {
		t.Errorf("recs after growth = %v, want [91 95]", rec)
	}
}

func TestEvalRecallFrozenMatchesEvalRecall(t *testing.T) {
	d := synth.Generate(synth.ML1M().Scale(0.03))
	f := Split(d, 4, 6)[0]
	g := frozenTestGraph(f.Train.NumUsers(), 8, 13)
	if a, b := EvalRecall(f, g, 10, 2), EvalRecallFrozen(f, g.Freeze(), 10, 2); a != b {
		t.Errorf("EvalRecall %v != EvalRecallFrozen %v", a, b)
	}
}

func TestEvalRecallDeterministicAcrossWorkers(t *testing.T) {
	d := synth.Generate(synth.ML1M().Scale(0.03))
	f := Split(d, 4, 5)[0]
	raw := similarity.NewJaccard(f.Train)
	g := bruteforce.Build(f.Train.NumUsers(), 5, raw, 2)
	fz := g.Freeze()
	// Recalls are summed in user order, so the value is exact across
	// worker counts.
	r1 := EvalRecallFrozen(f, fz, 10, 1)
	for _, workers := range []int{2, 4} {
		if r := EvalRecallFrozen(f, fz, 10, workers); r != r1 {
			t.Errorf("recall with %d workers = %v, with 1 = %v", workers, r, r1)
		}
	}
}

// TestScorerRowMergeExclusion stresses the mask-based own-item
// exclusion of the row scoring loop on adversarial overlap shapes: own
// empty, own a superset of the row, overlap only at the row's ends, and
// interleaved runs — each compared against the reference map path item
// by item.
func TestScorerRowMergeExclusion(t *testing.T) {
	profiles := [][]int32{
		0: {},                 // empty own profile: nothing excluded
		1: {0, 1, 2, 3, 4, 5}, // superset of neighbor rows
		2: {0, 9},             // overlap at both ends only
		3: {2, 4, 6},          // interleaved
		4: {1, 2, 3},          // the recommending neighbor
		5: {0, 3, 5, 7, 9},    // another neighbor, wider row
		6: {100, 101},         // disjoint high items
		7: {5},
	}
	d := dataset.New("merge", profiles, 128)
	g := knng.New(len(profiles), 3)
	for u := 0; u < 4; u++ {
		g.Lists[u].Insert(4, 0.9)
		g.Lists[u].Insert(5, 0.8)
		g.Lists[u].Insert(6, 0.7)
	}
	f := g.Freeze()
	sc := NewScorer(d.NumItems)
	var rec []int32
	for u := int32(0); u < 4; u++ {
		want := mapRecommend(d, g, u, 10)
		rec = sc.Recommend(d, f, u, 10, rec[:0])
		if len(rec) != len(want) {
			t.Fatalf("user %d: %d items vs %d (%v vs %v)", u, len(rec), len(want), rec, want)
		}
		for i := range want {
			if rec[i] != want[i] {
				t.Fatalf("user %d rank %d: %d vs %d", u, i, rec[i], want[i])
			}
		}
	}
}
