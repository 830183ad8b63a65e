package similarity

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"c2knn/internal/dataset"
	"c2knn/internal/sets"
)

func fixture() *dataset.Dataset {
	return dataset.New("fix", [][]int32{
		{0, 1, 2},    // u0
		{1, 2, 3},    // u1: |∩|=2, |∪|=4 with u0
		{0, 1, 2},    // u2: identical to u0
		{7, 8},       // u3: disjoint from u0
		{},           // u4: empty
		{0},          // u5
		{0, 1, 2, 3}, // u6: superset of u0
	}, 10)
}

func TestJaccardKnownValues(t *testing.T) {
	j := NewJaccard(fixture())
	cases := []struct {
		u, v int32
		want float64
	}{
		{0, 1, 0.5},
		{0, 2, 1.0},
		{0, 3, 0.0},
		{0, 4, 0.0},
		{4, 4, 0.0}, // empty vs empty: defined as 0
		{0, 5, 1.0 / 3.0},
		{0, 6, 0.75},
	}
	for _, c := range cases {
		if got := j.Sim(c.u, c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("J(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
		if got, rev := j.Sim(c.u, c.v), j.Sim(c.v, c.u); got != rev {
			t.Errorf("J(%d,%d) != J(%d,%d)", c.u, c.v, c.v, c.u)
		}
	}
}

func TestCosineKnownValues(t *testing.T) {
	c := NewCosine(fixture())
	if got := c.Sim(0, 2); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("cos identical = %v, want 1", got)
	}
	if got := c.Sim(0, 3); got != 0 {
		t.Errorf("cos disjoint = %v, want 0", got)
	}
	want := 2.0 / math.Sqrt(9) // |∩|=2, |P0|=|P1|=3
	if got := c.Sim(0, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("cos(0,1) = %v, want %v", got, want)
	}
	if got := c.Sim(4, 0); got != 0 {
		t.Errorf("cos with empty = %v, want 0", got)
	}
}

// TestMetricsProperties: range, symmetry, self-similarity on random
// profiles; Jaccard ≤ cosine for binary sets.
func TestMetricsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	profiles := make([][]int32, 40)
	for i := range profiles {
		n := rng.Intn(30)
		p := make([]int32, n)
		for j := range p {
			p[j] = int32(rng.Intn(60))
		}
		profiles[i] = sets.Normalize(p)
	}
	d := dataset.New("prop", profiles, 60)
	j := NewJaccard(d)
	c := NewCosine(d)
	f := func(a, b uint8) bool {
		u := int32(a) % int32(d.NumUsers())
		v := int32(b) % int32(d.NumUsers())
		js, cs := j.Sim(u, v), c.Sim(u, v)
		if js < 0 || js > 1 || cs < 0 || cs > 1 {
			return false
		}
		if js != j.Sim(v, u) || cs != c.Sim(v, u) {
			return false
		}
		if len(d.Profiles[u]) > 0 && j.Sim(u, u) != 1 {
			return false
		}
		// For binary sets, |∩|/|∪| ≤ |∩|/√(|A||B|).
		return js <= cs+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCountingCountsConcurrently(t *testing.T) {
	j := NewCounting(NewJaccard(fixture()))
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				j.Sim(0, 1)
			}
		}()
	}
	wg.Wait()
	if got := j.Count(); got != 4*perWorker {
		t.Errorf("Count = %d, want %d", got, 4*perWorker)
	}
}

func TestFuncAdapter(t *testing.T) {
	p := Func(func(u, v int32) float64 { return float64(u + v) })
	if p.Sim(2, 3) != 5 {
		t.Error("Func adapter broken")
	}
}

func BenchmarkJaccard(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	profiles := make([][]int32, 2)
	for i := range profiles {
		p := make([]int32, 90)
		for j := range p {
			p[j] = int32(rng.Intn(10000))
		}
		profiles[i] = sets.Normalize(p)
	}
	j := NewJaccard(dataset.New("b", profiles, 10000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Sim(0, 1)
	}
}
