package frh

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"c2knn/internal/dataset"
	"c2knn/internal/sets"
)

func randomDataset(users, items, meanProfile int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	profiles := make([][]int32, users)
	for u := range profiles {
		n := 1 + rng.Intn(2*meanProfile)
		p := make([]int32, n)
		for i := range p {
			p[i] = int32(rng.Intn(items))
		}
		profiles[u] = sets.Normalize(p)
	}
	return dataset.New("rand", profiles, int32(items))
}

func TestUserHashIsMinOfItemHashes(t *testing.T) {
	d := randomDataset(20, 100, 10, 1)
	h := NewHasher(d.NumItems, Options{B: 16, T: 3, Seed: 7})
	for fn := 0; fn < 3; fn++ {
		for u, p := range d.Profiles {
			got, ok := h.UserHash(fn, p)
			if !ok {
				t.Fatalf("user %d: unexpected undefined hash", u)
			}
			want := uint32(1 << 30)
			for _, it := range p {
				if v := h.ItemHash(fn, it); v < want {
					want = v
				}
			}
			if got != want {
				t.Errorf("fn %d user %d: H = %d, want min %d", fn, u, got, want)
			}
			if got < 1 || got > 16 {
				t.Errorf("H = %d outside [1, b]", got)
			}
		}
	}
}

func TestUserHashEmptyProfile(t *testing.T) {
	h := NewHasher(5, Options{B: 8, T: 1, Seed: 1})
	if _, ok := h.UserHash(0, nil); ok {
		t.Error("empty profile should have undefined hash")
	}
}

func TestUserHashAbove(t *testing.T) {
	d := randomDataset(50, 200, 15, 2)
	h := NewHasher(d.NumItems, Options{B: 8, T: 1, Seed: 3})
	for u, p := range d.Profiles {
		base, _ := h.UserHash(0, p)
		got, ok := h.UserHashAbove(0, p, base)
		// Verify against a direct computation.
		want := uint32(0)
		for _, it := range p {
			v := h.ItemHash(0, it)
			if v > base && (want == 0 || v < want) {
				want = v
			}
		}
		if ok != (want != 0) || got != want {
			t.Errorf("user %d: H\\%d = (%d,%v), want (%d,%v)", u, base, got, ok, want, want != 0)
		}
		if ok && got <= base {
			t.Errorf("user %d: split hash %d not above threshold %d", u, got, base)
		}
	}
}

// TestBuildPartition: per configuration, every user appears in exactly
// one cluster.
func TestBuildPartition(t *testing.T) {
	d := randomDataset(300, 50, 8, 3)
	for _, maxSize := range []int{-1, 10, 50, 1000} {
		clusters, stats := Build(d, Options{B: 8, T: 4, MaxSize: maxSize, Seed: 5})
		counts := make([]map[int32]int, 4)
		for i := range counts {
			counts[i] = make(map[int32]int)
		}
		for _, c := range clusters {
			if c.Fn < 0 || c.Fn >= 4 {
				t.Fatalf("cluster with bad fn %d", c.Fn)
			}
			for _, u := range c.Users {
				counts[c.Fn][u]++
			}
		}
		for fn, m := range counts {
			if len(m) != d.NumUsers() {
				t.Errorf("maxSize %d fn %d: %d users clustered, want %d", maxSize, fn, len(m), d.NumUsers())
			}
			for u, n := range m {
				if n != 1 {
					t.Errorf("maxSize %d fn %d: user %d in %d clusters", maxSize, fn, u, n)
				}
			}
		}
		if stats.Clusters != len(clusters) {
			t.Errorf("stats.Clusters = %d, want %d", stats.Clusters, len(clusters))
		}
	}
}

// TestBuildRespectsMaxSizeWhenSplittable: split clusters may only exceed
// MaxSize if they are unsplittable remainders (users sharing one minimum)
// — with diverse random profiles that should not happen at these sizes.
func TestBuildRespectsMaxSize(t *testing.T) {
	d := randomDataset(500, 400, 12, 4)
	const maxSize = 40
	clusters, stats := Build(d, Options{B: 16, T: 2, MaxSize: maxSize, Seed: 5})
	over := 0
	for _, c := range clusters {
		if len(c.Users) > maxSize {
			over++
		}
	}
	if over > 2 {
		t.Errorf("%d clusters exceed MaxSize=%d (want almost none)", over, maxSize)
	}
	if stats.Splits == 0 {
		t.Error("expected at least one split with b=16 and 500 users")
	}
	if stats.MaxCluster <= 0 {
		t.Error("stats.MaxCluster not tracked")
	}
}

func TestSplittingDisabled(t *testing.T) {
	d := randomDataset(500, 400, 12, 4)
	clusters, stats := Build(d, Options{B: 16, T: 2, MaxSize: -1, Seed: 5})
	if stats.Splits != 0 {
		t.Errorf("splits = %d with splitting disabled", stats.Splits)
	}
	// Without splitting there are at most b clusters per configuration.
	perFn := make(map[int]int)
	for _, c := range clusters {
		perFn[c.Fn]++
	}
	for fn, n := range perFn {
		if n > 16 {
			t.Errorf("fn %d has %d clusters, want ≤ b=16", fn, n)
		}
	}
}

// TestSplitPreservesMembership: splitting only repartitions the users of
// the oversized cluster; the union of all clusters per fn is unchanged.
func TestSplitDeterminism(t *testing.T) {
	d := randomDataset(400, 300, 10, 6)
	a, _ := Build(d, Options{B: 8, T: 3, MaxSize: 30, Seed: 9})
	b, _ := Build(d, Options{B: 8, T: 3, MaxSize: 30, Seed: 9})
	if len(a) != len(b) {
		t.Fatalf("non-deterministic cluster count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Fn != b[i].Fn || a[i].Index != b[i].Index || len(a[i].Users) != len(b[i].Users) {
			t.Fatalf("cluster %d differs between identical runs", i)
		}
	}
}

// TestSimilarUsersCollide: two users with identical profiles always land
// in the same cluster of every configuration (Theorem 1 with J=1, κ=0
// implies P=1).
func TestIdenticalUsersAlwaysTogether(t *testing.T) {
	f := func(itemsRaw []uint16, seed int64) bool {
		if len(itemsRaw) == 0 {
			return true
		}
		p := make([]int32, len(itemsRaw))
		for i, v := range itemsRaw {
			p[i] = int32(v % 1000)
		}
		p = sets.Normalize(p)
		d := dataset.New("q", [][]int32{append([]int32(nil), p...), append([]int32(nil), p...)}, 1000)
		clusters, _ := Build(d, Options{B: 64, T: 3, MaxSize: -1, Seed: seed})
		for _, c := range clusters {
			if len(c.Users) != 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCollisionRateTracksSimilarity: pairs with higher Jaccard collide
// more often across configurations (the monotonicity Theorem 1 implies).
func TestCollisionRateTracksSimilarity(t *testing.T) {
	base := make([]int32, 40)
	for i := range base {
		base[i] = int32(i)
	}
	similar := append(append([]int32{}, base[:35]...), 100, 101, 102, 103, 104) // J = 35/45
	dissimilar := []int32{200, 201, 202, 203, 204, 205, 206, 207, 208, 209}     // J = 0
	d := dataset.New("mono", [][]int32{base, sets.Normalize(similar), dissimilar}, 300)
	const T = 400
	h := NewHasher(d.NumItems, Options{B: 64, T: T, Seed: 11})
	simHits, disHits := 0, 0
	for fn := 0; fn < T; fn++ {
		h0, _ := h.UserHash(fn, d.Profiles[0])
		h1, _ := h.UserHash(fn, d.Profiles[1])
		h2, _ := h.UserHash(fn, d.Profiles[2])
		if h0 == h1 {
			simHits++
		}
		if h0 == h2 {
			disHits++
		}
	}
	if simHits <= disHits {
		t.Errorf("similar pair collided %d times, dissimilar %d — monotonicity violated", simHits, disHits)
	}
	if float64(simHits)/T < 0.5 {
		t.Errorf("similar pair (J≈0.78) collision rate %.2f, want > 0.5", float64(simHits)/T)
	}
}

// TestEmptyProfileSkipped: empty-profile users have zero similarity to
// everyone, so they are skipped at bucketing instead of being dumped
// into cluster 1 of every configuration (which inflated that cluster's
// O(|C|²) local work with guaranteed-zero-similarity pairs).
func TestEmptyProfileSkipped(t *testing.T) {
	d := dataset.New("e", [][]int32{{}, {1, 2}, {1, 2}}, 3)
	clusters, stats := Build(d, Options{B: 4, T: 2, MaxSize: -1, Seed: 1})
	perFn := make(map[int]int)
	for _, c := range clusters {
		perFn[c.Fn]++
		for _, u := range c.Users {
			if u == 0 {
				t.Errorf("empty-profile user clustered into fn %d index %d", c.Fn, c.Index)
			}
		}
		if len(c.Users) != 2 {
			t.Errorf("fn %d index %d has %d users, want the 2 identical ones", c.Fn, c.Index, len(c.Users))
		}
	}
	for fn := 0; fn < 2; fn++ {
		if perFn[fn] != 1 {
			t.Errorf("fn %d has %d clusters, want 1", fn, perFn[fn])
		}
	}
	if stats.Clusters != len(clusters) {
		t.Errorf("stats.Clusters = %d, want %d", stats.Clusters, len(clusters))
	}
}

// clusterKey canonically identifies a cluster for set comparisons:
// within one configuration the user sets are disjoint, so (Fn, Index,
// first user) is unique.
type clusterKey struct {
	fn    int
	index uint32
	first int32
	size  int
}

func keyOf(c Cluster) clusterKey {
	return clusterKey{fn: c.Fn, index: c.Index, first: c.Users[0], size: len(c.Users)}
}

// TestStreamMatchesBuild: the streamed cluster set must be identical to
// the materialized one — same clusters, same memberships — regardless
// of the concurrent emission interleaving.
func TestStreamMatchesBuild(t *testing.T) {
	d := randomDataset(400, 300, 10, 8)
	o := Options{B: 16, T: 4, MaxSize: 30, Seed: 9}
	built, bstats := Build(d, o)

	var mu sync.Mutex
	streamed := make(map[clusterKey][]int32)
	sstats := Stream(d, o, func(c Cluster) {
		users := append([]int32(nil), c.Users...)
		mu.Lock()
		if _, dup := streamed[keyOf(c)]; dup {
			t.Error("duplicate cluster emitted")
		}
		streamed[keyOf(c)] = users
		mu.Unlock()
	})

	if len(streamed) != len(built) {
		t.Fatalf("stream emitted %d clusters, build returned %d", len(streamed), len(built))
	}
	for _, c := range built {
		got, ok := streamed[keyOf(c)]
		if !ok {
			t.Fatalf("cluster fn=%d idx=%d missing from stream", c.Fn, c.Index)
		}
		for i := range got {
			if got[i] != c.Users[i] {
				t.Fatalf("cluster fn=%d idx=%d memberships differ", c.Fn, c.Index)
			}
		}
	}
	if sstats.Clusters != bstats.Clusters || sstats.Splits != bstats.Splits ||
		sstats.MaxCluster != bstats.MaxCluster || sstats.Depth != bstats.Depth {
		t.Errorf("stream stats %+v differ from build stats %+v", sstats, bstats)
	}
	for fn := range bstats.PerFn {
		if sstats.PerFn[fn] != bstats.PerFn[fn] {
			t.Errorf("PerFn[%d]: stream %d vs build %d", fn, sstats.PerFn[fn], bstats.PerFn[fn])
		}
	}
}

// TestGOMAXPROCSInvariance: the one-pass hashing splits items and
// users into contiguous ranges over GOMAXPROCS goroutines. The cluster
// list and the bucket table must not depend on how many there are. The
// item universe is large enough for NewHasher to split it four ways.
func TestGOMAXPROCSInvariance(t *testing.T) {
	d := randomDataset(500, 4*minItemsPerPart, 12, 4)
	o := Options{B: 16, T: 9, MaxSize: 40, Seed: 5}
	run := func(procs int) ([]Cluster, *Table) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		clusters, _ := Build(d, o)
		return clusters, NewHasher(d.NumItems, o).Table(d.Profiles)
	}
	want, wantTab := run(1)
	got, gotTab := run(4)
	if len(want) == 0 {
		t.Fatal("no clusters built")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the cluster list at GOMAXPROCS 4 differs from GOMAXPROCS 1")
	}
	if !reflect.DeepEqual(gotTab, wantTab) {
		t.Error("the bucket table at GOMAXPROCS 4 differs from GOMAXPROCS 1")
	}
}

func TestTopSizes(t *testing.T) {
	clusters := []Cluster{
		{Users: make([]int32, 5)},
		{Users: make([]int32, 9)},
		{Users: make([]int32, 2)},
	}
	top := TopSizes(clusters, 2)
	if len(top) != 2 || top[0] != 9 || top[1] != 5 {
		t.Errorf("TopSizes = %v, want [9 5]", top)
	}
	all := TopSizes(clusters, 10)
	if len(all) != 3 {
		t.Errorf("TopSizes with large m = %v, want all 3", all)
	}
}

func TestNewHasherPanicsOnHugeB(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHasher should panic when B exceeds uint16")
		}
	}()
	NewHasher(10, Options{B: 1 << 17, T: 1})
}

func BenchmarkBuildClustering(b *testing.B) {
	d := randomDataset(2000, 1000, 40, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(d, Options{B: 256, T: 8, MaxSize: 100, Seed: 5})
	}
}
