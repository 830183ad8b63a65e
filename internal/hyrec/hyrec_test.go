package hyrec

import (
	"math"
	"math/rand"
	"testing"

	"c2knn/internal/bruteforce"
	"c2knn/internal/dataset"
	"c2knn/internal/goldfinger"
	"c2knn/internal/knng"
	"c2knn/internal/sets"
	"c2knn/internal/similarity"
)

// ringSim builds a smooth 1-D similarity landscape: users close on a ring
// are similar. Greedy refinement should navigate it near-perfectly.
func ringSim(n int) similarity.Provider {
	return similarity.Func(func(u, v int32) float64 {
		d := math.Abs(float64(u - v))
		if d > float64(n)/2 {
			d = float64(n) - d
		}
		return 1 / (1 + d)
	})
}

func TestBuildConvergesOnRing(t *testing.T) {
	const n, k = 300, 8
	p := ringSim(n)
	g, res := Build(n, p, Options{K: k, Seed: 1, Workers: 2})
	exact := bruteforce.Build(n, k, p, 2)
	q := knng.Quality(g, exact, p)
	if q < 0.95 {
		t.Errorf("quality on ring = %.3f, want ≥ 0.95 (converged greedy)", q)
	}
	if res.Iterations == 0 {
		t.Error("no iterations recorded")
	}
	if len(res.Updates) != res.Iterations {
		t.Errorf("updates len %d != iterations %d", len(res.Updates), res.Iterations)
	}
}

func TestBuildBeatsRandomStart(t *testing.T) {
	const n, k = 200, 5
	p := ringSim(n)
	random := knng.New(n, k)
	knng.RandomInit(random, p, 1)
	g, _ := Build(n, p, Options{K: k, Seed: 1})
	if g.AvgStoredSim() <= random.AvgStoredSim() {
		t.Errorf("refined avg sim %.4f not better than random %.4f",
			g.AvgStoredSim(), random.AvgStoredSim())
	}
}

func TestMaxIterRespected(t *testing.T) {
	const n = 150
	p := ringSim(n)
	_, res := Build(n, p, Options{K: 5, MaxIter: 2, Seed: 1})
	if res.Iterations > 2 {
		t.Errorf("iterations = %d, want ≤ 2", res.Iterations)
	}
}

func TestDeltaTermination(t *testing.T) {
	const n = 150
	p := ringSim(n)
	// A huge delta makes the very first iteration "not enough updates".
	_, res := Build(n, p, Options{K: 5, Delta: 1e9, Seed: 1})
	if res.Iterations != 1 || !res.Converged {
		t.Errorf("huge delta: iterations=%d converged=%v, want 1/true", res.Iterations, res.Converged)
	}
}

func TestBuildDegenerate(t *testing.T) {
	p := ringSim(3)
	g, _ := Build(0, p, Options{K: 3})
	if g.NumUsers() != 0 {
		t.Error("empty population mishandled")
	}
	g, _ = Build(1, p, Options{K: 3})
	if g.Lists[0].Len() != 0 {
		t.Error("singleton population should have no edges")
	}
	g, _ = Build(3, p, Options{K: 5, Seed: 1})
	for u := 0; u < 3; u++ {
		if g.Lists[u].Len() != 2 {
			t.Errorf("user %d degree %d, want 2", u, g.Lists[u].Len())
		}
	}
}

func TestLocalOperatesOnGlobalIDs(t *testing.T) {
	// A cluster of users scattered over a large id space.
	ids := []int32{1000, 1003, 1006, 1009, 1012, 1015, 1018, 1021}
	p := similarity.Func(func(u, v int32) float64 {
		d := math.Abs(float64(u - v))
		return 1 / (1 + d)
	})
	lists := Local(ids, 3, p, Options{Seed: 2})
	if len(lists) != len(ids) {
		t.Fatalf("got %d lists", len(lists))
	}
	valid := make(map[int32]bool)
	for _, id := range ids {
		valid[id] = true
	}
	for i, l := range lists {
		for _, nb := range l.H {
			if !valid[nb.ID] {
				t.Fatalf("list %d holds non-cluster id %d", i, nb.ID)
			}
			if nb.ID == ids[i] {
				t.Fatalf("list %d holds self", i)
			}
			if want := p.Sim(ids[i], nb.ID); nb.Sim != want {
				t.Errorf("list %d: sim %v, want %v", i, nb.Sim, want)
			}
		}
	}
}

// TestLocalSmallClusterExact: on a cluster comfortably covered by the
// iteration budget, Local should essentially match brute force.
func TestLocalSmallClusterExact(t *testing.T) {
	ids := make([]int32, 60)
	for i := range ids {
		ids[i] = int32(i * 7)
	}
	p := similarity.Func(func(u, v int32) float64 {
		d := math.Abs(float64(u - v))
		return 1 / (1 + d/7)
	})
	got := Local(ids, 5, p, Options{Seed: 3})
	want := bruteforce.Local(ids, 5, p)
	match, total := 0, 0
	for i := range ids {
		wantSet := make(map[int32]bool)
		for _, nb := range want[i].H {
			wantSet[nb.ID] = true
		}
		for _, nb := range got[i].H {
			total++
			if wantSet[nb.ID] {
				match++
			}
		}
	}
	if rate := float64(match) / float64(total); rate < 0.9 {
		t.Errorf("local hyrec matches brute force on %.2f of edges, want ≥ 0.9", rate)
	}
}

func TestWorkerCountStability(t *testing.T) {
	// Different worker counts may produce slightly different graphs (ties,
	// iteration interleaving) but quality must stay equivalent.
	const n, k = 250, 6
	p := ringSim(n)
	exact := bruteforce.Build(n, k, p, 2)
	g1, _ := Build(n, p, Options{K: k, Seed: 4, Workers: 1})
	g4, _ := Build(n, p, Options{K: k, Seed: 4, Workers: 4})
	q1 := knng.Quality(g1, exact, p)
	q4 := knng.Quality(g4, exact, p)
	if math.Abs(q1-q4) > 0.05 {
		t.Errorf("quality varies too much with workers: %.3f vs %.3f", q1, q4)
	}
}

func BenchmarkBuildRing500(b *testing.B) {
	p := ringSim(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(500, p, Options{K: 10, Seed: 1, Workers: 2})
	}
}

// TestLocalIntoScratchReuse: running many clusters through one reused
// Scratch must produce exactly the lists a fresh-scratch Local call
// produces — stale snapshots, marks, or heap storage must never leak
// from one cluster into the next.
func TestLocalIntoScratchReuse(t *testing.T) {
	p := similarity.Func(func(u, v int32) float64 {
		d := math.Abs(float64(u - v))
		return 1 / (1 + d/5)
	})
	var loc similarity.Local
	var s Scratch
	for trial := 0; trial < 6; trial++ {
		m := 10 + (trial*31)%70
		ids := make([]int32, m)
		for i := range ids {
			ids[i] = int32(trial*7 + i*2)
		}
		o := Options{Seed: int64(trial)}
		similarity.GatherInto(p, ids, &loc)
		got := LocalInto(&loc, 6, o, &s)
		want := Local(ids, 6, p, Options{Seed: int64(trial)})
		for i := range want {
			if len(got[i].H) != len(want[i].H) {
				t.Fatalf("trial %d list %d: %d neighbors, want %d", trial, i, len(got[i].H), len(want[i].H))
			}
			for j := range want[i].H {
				if got[i].H[j].ID != want[i].H[j].ID || got[i].H[j].Sim != want[i].H[j].Sim {
					t.Fatalf("trial %d list %d slot %d: (%d,%v) vs (%d,%v)", trial, i, j,
						got[i].H[j].ID, got[i].H[j].Sim, want[i].H[j].ID, want[i].H[j].Sim)
				}
			}
		}
	}
}

// TestLocalDeterministic: the epoch-stamped candidate set iterates in
// insertion order, so local Hyrec is fully deterministic (the old
// map-based candidate set was not).
func TestLocalDeterministic(t *testing.T) {
	ids := make([]int32, 80)
	for i := range ids {
		ids[i] = int32(i * 3)
	}
	p := similarity.Func(func(u, v int32) float64 {
		return float64((int64(u)*2654435761+int64(v)*40503)%1000) / 1000
	})
	a := Local(ids, 7, p, Options{Seed: 5})
	b := Local(ids, 7, p, Options{Seed: 5})
	for i := range a {
		for j := range a[i].H {
			if a[i].H[j] != b[i].H[j] {
				t.Fatalf("list %d slot %d differs across identical runs", i, j)
			}
		}
	}
}

// TestLocalIntoDegenerateKernelTerminates: a kernel yielding NaN for
// every pair must leave LocalInto with empty lists, not spin its random
// init forever (knng.List.Insert rejects degenerate similarities).
func TestLocalIntoDegenerateKernelTerminates(t *testing.T) {
	nan := similarity.Func(func(u, v int32) float64 { return math.NaN() })
	ids := make([]int32, 40)
	for i := range ids {
		ids[i] = int32(i)
	}
	var loc similarity.Local
	similarity.GatherInto(nan, ids, &loc)
	var s Scratch
	lists := LocalInto(&loc, 5, Options{MaxIter: 3, Seed: 1}, &s)
	for i := range lists {
		if lists[i].Len() != 0 {
			t.Fatalf("local user %d retained %d NaN edges", i, lists[i].Len())
		}
	}
}

// TestLocalIntoBlockedMatchesScalar: the batched candidate scoring with
// threshold-gated inserts must leave lists bit-identical to the frozen
// pair-at-a-time refinement on fixed seeds — the random init consumes
// the same draw sequence and every gated-out candidate is one Insert
// would have rejected, so iteration counts and update totals coincide
// too.
func TestLocalIntoBlockedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	profiles := make([][]int32, 400)
	for i := range profiles {
		p := make([]int32, rng.Intn(45))
		for j := range p {
			p[j] = int32(rng.Intn(2200))
		}
		profiles[i] = sets.Normalize(p)
	}
	d := dataset.New("hyblocked", profiles, 2200)
	providers := []similarity.Provider{
		goldfinger.MustNew(d, 1024, 13),
		goldfinger.MustNew(d, 192, 13), // 3 words: unroll tail
		similarity.NewJaccard(d),
		ringSim(len(profiles)),
	}
	var loc similarity.Local
	var sBlocked, sScalar Scratch
	for pi, p := range providers {
		for trial := 0; trial < 4; trial++ {
			m := 40 + rng.Intn(260)
			perm := rng.Perm(len(profiles))
			ids := make([]int32, m)
			for i := range ids {
				ids[i] = int32(perm[i])
			}
			o := Options{Delta: 0.001, MaxIter: 4, Seed: int64(1000*pi + trial)}
			similarity.GatherInto(p, ids, &loc)
			want := LocalIntoScalar(&loc, 20, o, &sScalar)
			similarity.GatherInto(p, ids, &loc)
			got := LocalInto(&loc, 20, o, &sBlocked)
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
