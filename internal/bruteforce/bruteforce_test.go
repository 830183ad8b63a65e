package bruteforce

import (
	"math/rand"
	"testing"

	"c2knn/internal/dataset"
	"c2knn/internal/goldfinger"
	"c2knn/internal/sets"
	"c2knn/internal/similarity"
)

// pairSim is a deterministic synthetic metric.
func pairSim(u, v int32) float64 {
	if u > v {
		u, v = v, u
	}
	return float64((int64(u)*7919+int64(v)*104729)%9973) / 9973
}

func TestBuildMatchesNaive(t *testing.T) {
	const n, k = 60, 5
	p := similarity.Func(pairSim)
	g := Build(n, k, p, 3)
	for u := int32(0); u < n; u++ {
		want := naiveTopK(n, k, u)
		got := g.Neighbors(u)
		if len(got) != k {
			t.Fatalf("user %d has %d neighbors, want %d", u, len(got), k)
		}
		for i := range want {
			if got[i].Sim != want[i] {
				t.Errorf("user %d rank %d: sim %v, want %v", u, i, got[i].Sim, want[i])
			}
		}
	}
}

func naiveTopK(n, k int, u int32) []float64 {
	var sims []float64
	for v := int32(0); v < int32(n); v++ {
		if v != u {
			sims = append(sims, pairSim(u, v))
		}
	}
	// insertion sort descending
	for i := 1; i < len(sims); i++ {
		for j := i; j > 0 && sims[j] > sims[j-1]; j-- {
			sims[j], sims[j-1] = sims[j-1], sims[j]
		}
	}
	return sims[:k]
}

func TestBuildComputesEachPairOnce(t *testing.T) {
	const n = 40
	c := similarity.NewCounting(similarity.Func(pairSim))
	Build(n, 3, c, 4)
	if got, want := c.Count(), PairCount(n); got != want {
		t.Errorf("similarity computations = %d, want %d", got, want)
	}
}

func TestBuildDegenerate(t *testing.T) {
	p := similarity.Func(pairSim)
	if g := Build(0, 3, p, 2); g.NumUsers() != 0 {
		t.Error("empty population mishandled")
	}
	if g := Build(1, 3, p, 2); g.Lists[0].Len() != 0 {
		t.Error("single user should have no neighbors")
	}
	g := Build(2, 3, p, 2)
	if g.Lists[0].Len() != 1 || g.Lists[1].Len() != 1 {
		t.Error("pair population should be mutually connected")
	}
}

func TestBuildWorkerCountIrrelevant(t *testing.T) {
	const n, k = 80, 4
	p := similarity.Func(pairSim)
	g1 := Build(n, k, p, 1)
	g4 := Build(n, k, p, 4)
	for u := int32(0); u < n; u++ {
		a, b := g1.Neighbors(u), g4.Neighbors(u)
		for i := range a {
			if a[i].Sim != b[i].Sim {
				t.Fatalf("user %d: results depend on worker count", u)
			}
		}
	}
}

func TestLocalRestrictsToSubset(t *testing.T) {
	ids := []int32{3, 9, 14, 27, 41}
	lists := Local(ids, 3, similarity.Func(pairSim))
	if len(lists) != len(ids) {
		t.Fatalf("got %d lists, want %d", len(lists), len(ids))
	}
	inSubset := make(map[int32]bool)
	for _, id := range ids {
		inSubset[id] = true
	}
	for i, l := range lists {
		if l.Len() != 3 {
			t.Errorf("list %d has %d neighbors, want 3", i, l.Len())
		}
		for _, nb := range l.H {
			if !inSubset[nb.ID] {
				t.Errorf("list %d contains out-of-cluster id %d", i, nb.ID)
			}
			if nb.ID == ids[i] {
				t.Errorf("list %d contains self", i)
			}
			if nb.Sim != pairSim(ids[i], nb.ID) {
				t.Errorf("list %d stores wrong sim", i)
			}
		}
	}
}

func TestLocalSingleton(t *testing.T) {
	lists := Local([]int32{5}, 3, similarity.Func(pairSim))
	if len(lists) != 1 || lists[0].Len() != 0 {
		t.Error("singleton cluster should produce one empty list")
	}
}

func TestPairCount(t *testing.T) {
	cases := map[int]int64{0: 0, 1: 0, 2: 1, 10: 45, 100: 4950}
	for n, want := range cases {
		if got := PairCount(n); got != want {
			t.Errorf("PairCount(%d) = %d, want %d", n, got, want)
		}
	}
}

func BenchmarkBuild500(b *testing.B) {
	p := similarity.Func(pairSim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(500, 10, p, 2)
	}
}

// TestLocalIntoScratchReuse: solving many clusters of varying sizes
// through one reused Scratch must match fresh Local calls exactly.
func TestLocalIntoScratchReuse(t *testing.T) {
	p := similarity.Func(pairSim)
	var loc similarity.Local
	var s Scratch
	for trial := 0; trial < 8; trial++ {
		m := 2 + (trial*13)%37
		ids := make([]int32, m)
		for i := range ids {
			ids[i] = int32(trial*100 + i*3)
		}
		similarity.GatherInto(p, ids, &loc)
		got := LocalInto(&loc, 5, &s, nil)
		want := Local(ids, 5, p)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d lists, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if len(got[i].H) != len(want[i].H) {
				t.Fatalf("trial %d list %d: %d neighbors, want %d", trial, i, len(got[i].H), len(want[i].H))
			}
			for j := range got[i].H {
				if got[i].H[j] != want[i].H[j] {
					t.Fatalf("trial %d list %d slot %d: %+v vs %+v", trial, i, j, got[i].H[j], want[i].H[j])
				}
			}
		}
	}
}

// TestLocalIntoBlockedMatchesScalar: the blocked triangular sweep must
// produce lists bit-identical to the frozen pair-at-a-time reference on
// fixed seeds — same heap layout, same ids, same sims, same New flags —
// on real GoldFinger kernels (whose row path exercises BitSimRow) and
// on the generic fallback.
func TestLocalIntoBlockedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	profiles := make([][]int32, 700)
	for i := range profiles {
		p := make([]int32, rng.Intn(50))
		for j := range p {
			p[j] = int32(rng.Intn(2500))
		}
		profiles[i] = sets.Normalize(p)
	}
	d := dataset.New("blocked", profiles, 2500)
	gf := goldfinger.MustNew(d, 1024, 7)
	gfOdd := goldfinger.MustNew(d, 320, 7) // odd word count: generic bit loop

	providers := []similarity.Provider{gf, gfOdd, similarity.NewJaccard(d), similarity.Func(pairSim)}
	var loc similarity.Local
	var sBlocked, sScalar Scratch
	for pi, p := range providers {
		for trial := 0; trial < 7; trial++ {
			m := 2 + rng.Intn(120)
			if trial == 6 {
				// Larger than colBlock: the sweep's panel boundaries —
				// including a partial trailing panel — must not disturb
				// per-list candidate order.
				m = 600
			}
			perm := rng.Perm(len(profiles))
			ids := make([]int32, m)
			for i := range ids {
				ids[i] = int32(perm[i])
			}
			k := 1 + rng.Intn(31)
			similarity.GatherInto(p, ids, &loc)
			want := LocalIntoScalar(&loc, k, &sScalar, nil)
			similarity.GatherInto(p, ids, &loc)
			got := LocalInto(&loc, k, &sBlocked, nil)
			if len(got) != len(want) {
				t.Fatalf("provider %d trial %d: %d lists vs %d", pi, trial, len(got), len(want))
			}
			for i := range got {
				if len(got[i].H) != len(want[i].H) {
					t.Fatalf("provider %d trial %d list %d: %d neighbors vs %d",
						pi, trial, i, len(got[i].H), len(want[i].H))
				}
				for j := range got[i].H {
					if got[i].H[j] != want[i].H[j] {
						t.Fatalf("provider %d trial %d list %d slot %d: %+v vs %+v",
							pi, trial, i, j, got[i].H[j], want[i].H[j])
					}
				}
			}
		}
	}
}

// TestBuildRowProviderMatchesFallback: Build through the RowProvider
// fast path (GoldFinger's global slab) must equal Build through plain
// per-pair dispatch of the same metric.
func TestBuildRowProviderMatchesFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	profiles := make([][]int32, 150)
	for i := range profiles {
		p := make([]int32, 1+rng.Intn(40))
		for j := range p {
			p[j] = int32(rng.Intn(1500))
		}
		profiles[i] = sets.Normalize(p)
	}
	d := dataset.New("rowbuild", profiles, 1500)
	gf := goldfinger.MustNew(d, 1024, 11)
	if _, ok := similarity.Provider(gf).(similarity.RowProvider); !ok {
		t.Fatal("goldfinger.Set must implement RowProvider")
	}
	// similarity.Func hides the row path, forcing the scalar fallback.
	fallback := similarity.Func(gf.Sim)
	gRow := Build(len(profiles), 10, gf, 1)
	gScalar := Build(len(profiles), 10, fallback, 1)
	for u := int32(0); u < int32(len(profiles)); u++ {
		a, b := gRow.Neighbors(u), gScalar.Neighbors(u)
		if len(a) != len(b) {
			t.Fatalf("user %d: %d vs %d neighbors", u, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("user %d rank %d: %+v vs %+v", u, i, a[i], b[i])
			}
		}
	}
}

// TestLocalIntoFloorsMatchesScalar: with per-member floors seeding the
// gates, the blocked sweep must stay bit-identical to the scalar
// reference gated the same way, and no list may hold a sim at or below
// its member's floor. Floors cover -1 (open), 0, values equal to an
// existing similarity (ties at the gate), and values above every
// similarity (lists stay empty), mixed per member and uniform.
func TestLocalIntoFloorsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	profiles := make([][]int32, 700)
	for i := range profiles {
		p := make([]int32, rng.Intn(50))
		for j := range p {
			p[j] = int32(rng.Intn(2500))
		}
		profiles[i] = sets.Normalize(p)
	}
	d := dataset.New("floors", profiles, 2500)
	gf := goldfinger.MustNew(d, 1024, 7)
	gfOdd := goldfinger.MustNew(d, 320, 7)

	providers := []similarity.Provider{gf, gfOdd, similarity.NewJaccard(d), similarity.Func(pairSim)}
	// floorKinds picks member v's floor; "tie" copies the similarity of
	// a random other member, so the gate sees sim == floor.
	floorKinds := []string{"open", "zero", "tie", "above", "mixed"}
	pick := func(kind string, loc *similarity.Local, v int) float64 {
		if kind == "mixed" {
			kind = floorKinds[rng.Intn(4)]
		}
		switch kind {
		case "zero":
			return 0
		case "tie":
			w := rng.Intn(loc.Len() - 1)
			if w >= v {
				w++
			}
			return loc.Sim(v, w)
		case "above":
			return 2
		}
		return -1
	}
	var loc similarity.Local
	var sBlocked, sScalar Scratch
	for pi, p := range providers {
		for trial := 0; trial < 10; trial++ {
			m := 2 + rng.Intn(120)
			if trial >= 7 {
				m = 600 // past colBlock: panel boundaries under floors
			}
			kind := floorKinds[trial%len(floorKinds)]
			perm := rng.Perm(len(profiles))
			ids := make([]int32, m)
			for i := range ids {
				ids[i] = int32(perm[i])
			}
			k := 1 + rng.Intn(31)
			similarity.GatherInto(p, ids, &loc)
			floors := make([]float64, m)
			for v := range floors {
				floors[v] = pick(kind, &loc, v)
			}
			want := LocalIntoScalar(&loc, k, &sScalar, floors)
			similarity.GatherInto(p, ids, &loc)
			got := LocalInto(&loc, k, &sBlocked, floors)
			if len(got) != len(want) {
				t.Fatalf("provider %d trial %d (%s): %d lists vs %d", pi, trial, kind, len(got), len(want))
			}
			for i := range got {
				if len(got[i].H) != len(want[i].H) {
					t.Fatalf("provider %d trial %d (%s) list %d: %d neighbors vs %d",
						pi, trial, kind, i, len(got[i].H), len(want[i].H))
				}
				for j, nb := range got[i].H {
					if nb != want[i].H[j] {
						t.Fatalf("provider %d trial %d (%s) list %d slot %d: %+v vs %+v",
							pi, trial, kind, i, j, nb, want[i].H[j])
					}
					if nb.Sim <= floors[i] {
						t.Fatalf("provider %d trial %d (%s) list %d holds sim %v at or below floor %v",
							pi, trial, kind, i, nb.Sim, floors[i])
					}
				}
				if floors[i] > 1 && len(got[i].H) != 0 {
					t.Fatalf("provider %d trial %d: list %d above every sim still holds %d neighbors",
						pi, trial, i, len(got[i].H))
				}
			}
		}
	}
}
