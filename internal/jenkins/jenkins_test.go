package jenkins

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestHash32Deterministic(t *testing.T) {
	if Hash32(42, 7) != Hash32(42, 7) {
		t.Error("Hash32 is not deterministic")
	}
	if Hash32(42, 7) == Hash32(42, 8) {
		t.Error("different seeds should (almost surely) differ on the same key")
	}
	if Hash32(42, 7) == Hash32(43, 7) {
		t.Error("different keys should (almost surely) differ under the same seed")
	}
}

// TestHash32Avalanche checks that flipping one input bit flips a healthy
// fraction of output bits on average (a weak but effective sanity check
// for a mixing function).
func TestHash32Avalanche(t *testing.T) {
	for _, hash := range []struct {
		name string
		fn   func(uint32, uint32) uint32
	}{
		{"Hash32", Hash32},
	} {
		t.Run(hash.name, func(t *testing.T) {
			totalFlips := 0
			samples := 0
			for key := uint32(0); key < 200; key++ {
				base := hash.fn(key*2654435761, 99)
				for bit := 0; bit < 32; bit++ {
					flipped := hash.fn(key*2654435761^(1<<bit), 99)
					totalFlips += bits.OnesCount32(base ^ flipped)
					samples++
				}
			}
			avg := float64(totalFlips) / float64(samples)
			if avg < 12 || avg > 20 {
				t.Errorf("%s: average output-bit flips per input-bit flip = %.2f, want ≈ 16", hash.name, avg)
			}
		})
	}
}

// TestHash32Uniform checks the distribution over a small modulus is
// roughly uniform — FastRandomHash relies on h(i) mod b being balanced.
func TestHash32Uniform(t *testing.T) {
	const b = 64
	const n = 64000
	counts := make([]int, b)
	for i := 0; i < n; i++ {
		counts[Hash32(uint32(i), 12345)%b]++
	}
	want := n / b
	for v, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("bucket %d has %d hits, want ≈ %d", v, c, want)
		}
	}
}

func TestFamilyDeterminism(t *testing.T) {
	f1 := NewFamily(5, 77)
	f2 := NewFamily(5, 77)
	for fn := 0; fn < 5; fn++ {
		for key := uint32(0); key < 100; key++ {
			if f1.Hash(fn, key) != f2.Hash(fn, key) {
				t.Fatalf("family not deterministic at fn=%d key=%d", fn, key)
			}
		}
	}
	if f1.Size() != 5 {
		t.Errorf("Size = %d, want 5", f1.Size())
	}
}

func TestFamilyIndependence(t *testing.T) {
	f := NewFamily(8, 3)
	seen := make(map[uint32]bool)
	for fn := 0; fn < 8; fn++ {
		s := f.Seed(fn)
		if seen[s] {
			t.Fatalf("duplicate seed %#x in family", s)
		}
		seen[s] = true
	}
}

func TestFamilyPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFamily(0, ...) should panic")
		}
	}()
	NewFamily(0, 1)
}

// TestHash32QuickDifferentiates property: two distinct (key, seed) pairs
// rarely collide.
func TestHash32QuickDifferentiates(t *testing.T) {
	collisions := 0
	trials := 0
	f := func(a, b uint32) bool {
		trials++
		if a != b && Hash32(a, 5) == Hash32(b, 5) {
			collisions++
		}
		return collisions < 3 // allow the odd birthday collision
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHash32(b *testing.B) {
	var acc uint32
	for i := 0; i < b.N; i++ {
		acc += Hash32(uint32(i), 7)
	}
	_ = acc
}
