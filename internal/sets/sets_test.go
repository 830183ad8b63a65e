package sets

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := []struct {
		name string
		in   []int32
		want []int32
	}{
		{"empty", nil, nil},
		{"single", []int32{5}, []int32{5}},
		{"sorted", []int32{1, 2, 3}, []int32{1, 2, 3}},
		{"reverse", []int32{3, 2, 1}, []int32{1, 2, 3}},
		{"dups", []int32{2, 1, 2, 3, 1}, []int32{1, 2, 3}},
		{"alldups", []int32{7, 7, 7}, []int32{7}},
		{"negative", []int32{-1, 3, -1, 0}, []int32{-1, 0, 3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Normalize(append([]int32(nil), c.in...))
			if !Equal(got, c.want) {
				t.Errorf("Normalize(%v) = %v, want %v", c.in, got, c.want)
			}
			if !IsNormalized(got) {
				t.Errorf("Normalize(%v) = %v is not normalized", c.in, got)
			}
		})
	}
}

func TestIsNormalized(t *testing.T) {
	if !IsNormalized(nil) {
		t.Error("nil should be normalized")
	}
	if !IsNormalized([]int32{1}) {
		t.Error("singleton should be normalized")
	}
	if IsNormalized([]int32{1, 1}) {
		t.Error("duplicates should not be normalized")
	}
	if IsNormalized([]int32{2, 1}) {
		t.Error("descending should not be normalized")
	}
}

func TestIntersectCountBasic(t *testing.T) {
	cases := []struct {
		a, b []int32
		want int
	}{
		{nil, nil, 0},
		{[]int32{1}, nil, 0},
		{[]int32{1, 2, 3}, []int32{2, 3, 4}, 2},
		{[]int32{1, 2, 3}, []int32{4, 5}, 0},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, 3},
		{[]int32{1}, []int32{1}, 1},
	}
	for _, c := range cases {
		if got := IntersectCount(c.a, c.b); got != c.want {
			t.Errorf("IntersectCount(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := IntersectCount(c.b, c.a); got != c.want {
			t.Errorf("IntersectCount(%v, %v) = %d, want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

// TestIntersectCountGalloping forces the galloping path with very skewed
// lengths and cross-checks against the merge result.
func TestIntersectCountGalloping(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	long := randomSet(rng, 5000, 100000)
	short := randomSet(rng, 20, 100000)
	want := naiveIntersect(short, long)
	if got := IntersectCount(short, long); got != want {
		t.Errorf("gallop short-long = %d, want %d", got, want)
	}
	if got := IntersectCount(long, short); got != want {
		t.Errorf("gallop long-short = %d, want %d", got, want)
	}
	// Short slice fully inside long.
	sub := append([]int32(nil), long[10:25]...)
	if got := IntersectCount(sub, long); got != len(sub) {
		t.Errorf("subset gallop = %d, want %d", got, len(sub))
	}
}

func TestUnionAndIntersectAgree(t *testing.T) {
	f := func(aRaw, bRaw []int16) bool {
		a := toSet(aRaw)
		b := toSet(bRaw)
		var inter []int32
		for _, v := range a {
			if Contains(b, v) {
				inter = append(inter, v)
			}
		}
		union := Union(a, b)
		if len(inter) != IntersectCount(a, b) {
			return false
		}
		if len(union)+len(inter) != len(a)+len(b) {
			return false // inclusion–exclusion
		}
		if !IsNormalized(inter) || !IsNormalized(union) {
			return false
		}
		for _, v := range inter {
			if !Contains(a, v) || !Contains(b, v) {
				return false
			}
		}
		for _, v := range a {
			if !Contains(union, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestContains(t *testing.T) {
	s := []int32{1, 3, 5, 7}
	for _, v := range s {
		if !Contains(s, v) {
			t.Errorf("Contains(%v, %d) = false", s, v)
		}
	}
	for _, v := range []int32{0, 2, 4, 6, 8} {
		if Contains(s, v) {
			t.Errorf("Contains(%v, %d) = true", s, v)
		}
	}
	if Contains(nil, 1) {
		t.Error("Contains(nil, 1) = true")
	}
}

func TestEqual(t *testing.T) {
	if !Equal(nil, nil) || !Equal([]int32{1, 2}, []int32{1, 2}) {
		t.Error("Equal false negatives")
	}
	if Equal([]int32{1}, []int32{2}) || Equal([]int32{1}, []int32{1, 2}) {
		t.Error("Equal false positives")
	}
}

// randomSet returns a normalized random set of approximately n elements
// drawn from [0, max).
func randomSet(rng *rand.Rand, n, max int) []int32 {
	s := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, int32(rng.Intn(max)))
	}
	return Normalize(s)
}

// naiveIntersect is the reference O(n·m) implementation.
func naiveIntersect(a, b []int32) int {
	n := 0
	for _, x := range a {
		for _, y := range b {
			if x == y {
				n++
				break
			}
		}
	}
	return n
}

// toSet converts arbitrary quick-generated values into a normalized set.
func toSet(raw []int16) []int32 {
	out := make([]int32, len(raw))
	for i, v := range raw {
		out[i] = int32(v)
	}
	return Normalize(out)
}

func TestIntersectCountAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		a := randomSet(rng, rng.Intn(200), 500)
		b := randomSet(rng, rng.Intn(200), 500)
		if got, want := IntersectCount(a, b), naiveIntersect(a, b); got != want {
			t.Fatalf("trial %d: IntersectCount = %d, want %d", trial, got, want)
		}
	}
}

func BenchmarkIntersectCount(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := randomSet(rng, 100, 20000)
	y := randomSet(rng, 100, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IntersectCount(x, y)
	}
}

func BenchmarkIntersectCountGalloping(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := randomSet(rng, 30, 1000000)
	y := randomSet(rng, 5000, 1000000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IntersectCount(x, y)
	}
}

func TestMaxU32(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 40; n++ {
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(rng.Uint32())
		}
		var want uint32
		for _, v := range s {
			if uint32(v) > want {
				want = uint32(v)
			}
		}
		if got := MaxU32(s); got != want {
			t.Fatalf("n=%d: MaxU32 = %d, want %d", n, got, want)
		}
	}
	if got := MaxU32([]int32{3, -1, 7}); got != 1<<32-1 {
		t.Fatalf("MaxU32 with -1 = %d, want %d (negative values compare high)", got, uint32(1<<32-1))
	}
}
