package minhash

import (
	"math"
	"math/rand"
	"testing"

	"c2knn/internal/sets"
)

func TestValueEmptyProfile(t *testing.T) {
	f := New(3, 1)
	if _, ok := f.Value(0, nil); ok {
		t.Error("empty profile should have no min-hash")
	}
}

func TestValueIsMin(t *testing.T) {
	f := New(2, 7)
	profile := []int32{3, 17, 99, 250}
	for fn := 0; fn < 2; fn++ {
		got, ok := f.Value(fn, profile)
		if !ok {
			t.Fatal("unexpected undefined value")
		}
		for _, it := range profile {
			// The family is deterministic: recompute single-item hashes
			// via singleton profiles.
			h, _ := f.Value(fn, []int32{it})
			if h < got {
				t.Fatalf("fn %d: Value %d is not the minimum (item %d has %d)", fn, got, it, h)
			}
		}
	}
}

func TestSignatureDeterministic(t *testing.T) {
	f := New(5, 3)
	p := []int32{1, 2, 3}
	a := f.Signature(p)
	b := f.Signature(p)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("signature not deterministic")
		}
	}
	if len(a) != 5 {
		t.Errorf("signature length = %d, want 5", len(a))
	}
}

// TestMinHashEstimatesJaccard: the classic property — the fraction of
// matching signature entries estimates the Jaccard similarity.
func TestMinHashEstimatesJaccard(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const fns = 800
	f := New(fns, 11)
	for trial := 0; trial < 5; trial++ {
		shared := 10 + rng.Intn(40)
		only := 10 + rng.Intn(40)
		var a, b []int32
		base := int32(trial * 10000)
		for i := 0; i < shared; i++ {
			a = append(a, base+int32(i))
			b = append(b, base+int32(i))
		}
		for i := 0; i < only; i++ {
			a = append(a, base+1000+int32(i))
			b = append(b, base+2000+int32(i))
		}
		a, b = sets.Normalize(a), sets.Normalize(b)
		j := float64(shared) / float64(shared+2*only)
		sigA, sigB := f.Signature(a), f.Signature(b)
		match := 0
		for i := range sigA {
			if sigA[i] == sigB[i] {
				match++
			}
		}
		est := float64(match) / fns
		if math.Abs(est-j) > 0.08 {
			t.Errorf("trial %d: estimate %.3f vs exact %.3f (|Δ| > 0.08)", trial, est, j)
		}
	}
}

func TestIdenticalProfilesAlwaysCollide(t *testing.T) {
	f := New(20, 9)
	p := []int32{4, 8, 15, 16, 23, 42}
	q := append([]int32(nil), p...)
	for fn := 0; fn < 20; fn++ {
		a, _ := f.Value(fn, p)
		b, _ := f.Value(fn, q)
		if a != b {
			t.Fatalf("identical profiles diverge under fn %d", fn)
		}
	}
}

func TestBuckets(t *testing.T) {
	f := New(3, 13)
	profiles := [][]int32{
		{1, 2, 3},       // user 0
		{1, 2, 3},       // user 1: identical to 0, must share its bucket
		{},              // user 2: empty, skipped
		{900},           // user 3: almost surely alone -> singleton, skipped
		{1, 2, 3, 4, 5}, // user 4
	}
	for fn := 0; fn < 3; fn++ {
		buckets := f.Buckets(fn, profiles)
		var prev uint32
		users := map[int32]int{}
		for i, b := range buckets {
			if i > 0 && b.Value <= prev {
				t.Fatalf("fn %d: buckets not in increasing value order", fn)
			}
			prev = b.Value
			if len(b.Users) < 2 {
				t.Fatalf("fn %d: singleton bucket emitted", fn)
			}
			for _, u := range b.Users {
				users[u]++
			}
		}
		if users[2] != 0 {
			t.Errorf("fn %d: empty-profile user bucketed", fn)
		}
		// Users 0 and 1 are identical, so whenever either appears they
		// appear together.
		if users[0] != users[1] {
			t.Errorf("fn %d: identical users 0 and 1 split across buckets", fn)
		}
		for u, n := range users {
			if n > 1 {
				t.Errorf("fn %d: user %d in %d buckets", fn, u, n)
			}
		}
	}
}
