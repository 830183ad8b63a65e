package nndescent

import (
	"math"
	"reflect"
	"testing"

	"c2knn/internal/bruteforce"
	"c2knn/internal/knng"
	"c2knn/internal/similarity"
)

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
		t.Errorf("quality on ring = %.3f, want ≥ 0.95", q)
	}
	if !res.Converged && res.Iterations < 30 {
		t.Errorf("run neither converged nor exhausted iterations: %+v", res)
	}
}

func TestUpdatesDecline(t *testing.T) {
	const n = 400
	p := ringSim(n)
	_, res := Build(n, p, Options{K: 6, Seed: 2, Workers: 2})
	if len(res.Updates) < 2 {
		t.Skip("converged too fast to compare iterations")
	}
	first, last := res.Updates[0], res.Updates[len(res.Updates)-1]
	if last >= first {
		t.Errorf("updates did not decline: first=%d last=%d", first, last)
	}
}

// TestNegativeWorkersRefines: a worker count below 1 runs one worker,
// as in the other builders. It used to start no refinement goroutine,
// so the run stopped after one empty pass, reported Converged, and
// returned the random initial graph.
func TestNegativeWorkersRefines(t *testing.T) {
	const n = 300
	p := ringSim(n)
	want, wantRes := Build(n, p, Options{K: 8, Seed: 1, Workers: 1})
	got, gotRes := Build(n, p, Options{K: 8, Seed: 1, Workers: -1})
	if !reflect.DeepEqual(got.Freeze(), want.Freeze()) {
		t.Error("Workers: -1 built a different graph than Workers: 1")
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Errorf("Workers: -1 ran %+v, Workers: 1 ran %+v", gotRes, wantRes)
	}
}

func TestMaxIterAndDelta(t *testing.T) {
	p := ringSim(100)
	_, res := Build(100, p, Options{K: 4, MaxIter: 3, Seed: 1})
	if res.Iterations > 3 {
		t.Errorf("iterations = %d, want ≤ 3", res.Iterations)
	}
	_, res = Build(100, p, Options{K: 4, Delta: 1e9, Seed: 1})
	if !res.Converged || res.Iterations != 1 {
		t.Errorf("huge delta: %+v, want immediate convergence", res)
	}
}

func TestBuildDegenerate(t *testing.T) {
	p := ringSim(5)
	g, _ := Build(0, p, Options{K: 3})
	if g.NumUsers() != 0 {
		t.Error("empty population mishandled")
	}
	g, _ = Build(2, p, Options{K: 3, Seed: 1})
	if g.Lists[0].Len() != 1 || g.Lists[1].Len() != 1 {
		t.Error("two users should link to each other")
	}
}

func TestSampleKLimitsWork(t *testing.T) {
	const n, k = 300, 8
	p1 := similarity.NewCounting(ringSim(n))
	Build(n, p1, Options{K: k, SampleK: 2, Seed: 3, Workers: 2})
	p2 := similarity.NewCounting(ringSim(n))
	Build(n, p2, Options{K: k, SampleK: 30, Seed: 3, Workers: 2})
	if p1.Count() >= p2.Count() {
		t.Errorf("SampleK=2 computed %d sims, SampleK=30 computed %d — sampling not limiting work",
			p1.Count(), p2.Count())
	}
}

// TestComparableToHyrecStyleQuality: NNDescent should reach about the
// same quality as brute force recall-wise on a clustered landscape.
func TestClusteredLandscape(t *testing.T) {
	const n, k = 240, 6
	// Three well-separated blobs; in-blob similarity high.
	p := similarity.Func(func(u, v int32) float64 {
		if u%3 == v%3 {
			d := math.Abs(float64(u - v))
			return 1 / (1 + d/10)
		}
		return 0.01
	})
	g, _ := Build(n, p, Options{K: k, Seed: 5, Workers: 2})
	exact := bruteforce.Build(n, k, p, 2)
	if q := knng.Quality(g, exact, p); q < 0.9 {
		t.Errorf("quality on blobs = %.3f, want ≥ 0.9", q)
	}
}

func BenchmarkBuildRing500(b *testing.B) {
	p := ringSim(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(500, p, Options{K: 10, Seed: 1, Workers: 2})
	}
}
