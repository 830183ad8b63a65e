package similarity

import (
	"math"
	"math/rand"
	"testing"
)

// bitsLocal builds a kindBits Local directly over random synthetic
// signatures — the package cannot import goldfinger (import cycle), and
// the row kernels only depend on the packed slab shape, not on how the
// bits were derived. Some members are zeroed so the union==0 branch is
// exercised.
func bitsLocal(t *testing.T, rng *rand.Rand, m, words int) *Local {
	t.Helper()
	ids := make([]int32, m)
	for i := range ids {
		ids[i] = int32(i * 3)
	}
	var loc Local
	sigs, ones := loc.InitBits(ids, words)
	for i := 0; i < m; i++ {
		if i%11 == 3 { // empty fingerprint: union can be 0
			continue
		}
		n := 0
		for w := 0; w < words; w++ {
			v := rng.Uint64() & rng.Uint64() // sparse-ish
			sigs[i*words+w] = v
		}
		for w := 0; w < words; w++ {
			n += popcount(sigs[i*words+w])
		}
		ones[i] = int32(n)
	}
	return &loc
}

func popcount(v uint64) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// checkRowsMatchSim verifies SimRow and SimBatch against per-pair Sim
// for every member and every block size 1..17 at every offset.
func checkRowsMatchSim(t *testing.T, loc *Local) {
	t.Helper()
	m := loc.Len()
	dst := make([]float64, m)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < m; i++ {
		for bs := 1; bs <= 17; bs++ {
			for j0 := 0; j0+bs <= m; j0 += bs {
				j1 := j0 + bs
				loc.SimRow(i, j0, j1, dst)
				for x := 0; x < bs; x++ {
					if got, want := dst[x], loc.Sim(i, j0+x); got != want {
						t.Fatalf("SimRow(%d, %d, %d)[%d] = %v, want Sim(%d,%d) = %v",
							i, j0, j1, x, got, i, j0+x, want)
					}
				}
			}
		}
		// SimBatch over a shuffled arbitrary index list, including i itself.
		js := make([]int32, 0, m)
		for j := 0; j < m; j++ {
			js = append(js, int32(j))
		}
		rng.Shuffle(len(js), func(a, b int) { js[a], js[b] = js[b], js[a] })
		loc.SimBatch(i, js, dst)
		for x, j := range js {
			if got, want := dst[x], loc.Sim(i, int(j)); got != want {
				t.Fatalf("SimBatch(%d)[%d] (j=%d) = %v, want %v", i, x, j, got, want)
			}
		}
	}
}

// TestSimRowBitsEquivalence sweeps the bit-signature kernel across word
// counts straddling every inner-loop regime: the 8/16/32-word
// specializations, exact multiples of the 4-wide unroll, and odd tails
// — under whatever count kernel is active, so a vector-capable build
// pins its assembly against the per-pair scalar Sim.
func TestSimRowBitsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, words := range []int{1, 2, 3, 4, 5, 7, 8, 12, 15, 16, 17, 32, 33} {
		loc := bitsLocal(t, rng, 37, words)
		checkRowsMatchSim(t, loc)
	}
}

func TestSimRowProfileKernelsEquivalence(t *testing.T) {
	d, _ := randomTestData(11)
	ids := make([]int32, 41)
	for i := range ids {
		ids[i] = int32((i * 7) % d.NumUsers())
	}
	for _, p := range []Provider{NewJaccard(d), NewCosine(d)} {
		var loc Local
		GatherInto(p, ids, &loc)
		checkRowsMatchSim(t, &loc)
	}
}

func TestSimRowGenericFallbackEquivalence(t *testing.T) {
	ids := make([]int32, 29)
	for i := range ids {
		ids[i] = int32(i * 5)
	}
	p := Func(func(u, v int32) float64 { return float64(u^v) / 512 })
	var loc Local
	GatherInto(p, ids, &loc)
	checkRowsMatchSim(t, &loc)
}

// TestSimRowCounting verifies the batched paths keep the Counting
// instrumentation exact: one count per scored element, through both the
// gathered-kernel counter and the provider-dispatch fallback.
func TestSimRowCounting(t *testing.T) {
	d, _ := randomTestData(12)
	c := NewCounting(NewJaccard(d))
	ids := []int32{1, 4, 9, 16, 25, 36, 49}
	var loc Local
	GatherInto(c, ids, &loc)
	dst := make([]float64, len(ids))
	loc.SimRow(0, 1, 5, dst)
	if c.Count() != 4 {
		t.Errorf("SimRow of 4 elements counted %d", c.Count())
	}
	loc.SimBatch(2, []int32{0, 1, 3}, dst)
	if c.Count() != 7 {
		t.Errorf("after SimBatch of 3: count = %d, want 7", c.Count())
	}

	// RowProvider path of Counting itself, around a non-RowProvider.
	c2 := NewCounting(Func(func(u, v int32) float64 { return float64(u+v) / 100 }))
	var rp RowProvider = c2
	rp.SimRow(3, 5, 9, dst)
	if c2.Count() != 4 {
		t.Errorf("Counting.SimRow fallback counted %d, want 4", c2.Count())
	}
	for x := 0; x < 4; x++ {
		if dst[x] != float64(3+5+int32(x))/100 {
			t.Errorf("Counting.SimRow fallback dst[%d] = %v", x, dst[x])
		}
	}
}

// FuzzSimRowBits cross-checks the blocked bit kernel against scalar Sim
// on fuzz-chosen member counts, word widths 1..33, and block boundaries
// up to kernel-chunk-straddling run lengths — and re-runs every row
// under each kernel the build and CPU provide, asserting byte-identical
// output, so the fuzzer hammers the cross-arm bit-identity contract on
// whatever hardware it runs on. Odd seeds draw members from edgeLocal's
// zero, saturated and near-full signatures instead of bitsLocal's.
func FuzzSimRowBits(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(20), uint8(0), uint8(7))
	f.Add(int64(2), uint8(1), uint8(3), uint8(1), uint8(2))
	f.Add(int64(3), uint8(17), uint8(9), uint8(4), uint8(5))
	f.Add(int64(4), uint8(32), uint8(129), uint8(0), uint8(130))
	f.Add(int64(5), uint8(15), uint8(131), uint8(1), uint8(128))
	f.Add(int64(7), uint8(15), uint8(40), uint8(3), uint8(16))
	f.Add(int64(6), uint8(15), uint8(131), uint8(5), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, wordsB, mB, j0B, bsB uint8) {
		defer restoreKernel()
		words := 1 + int(wordsB)%33
		m := 2 + int(mB)%132
		rng := rand.New(rand.NewSource(seed))
		loc := bitsLocal(t, rng, m, words)
		if seed&1 != 0 {
			loc = edgeLocal(rng, m, words)
		}
		j0 := int(j0B) % m
		j1 := j0 + 1 + int(bsB)%(m-j0)
		if j1 > m {
			j1 = m
		}
		i := int(seed>>1) % m
		if i < 0 {
			i = -i
		}
		if _, err := SelectKernel("scalar"); err != nil {
			t.Fatal(err)
		}
		scalar := make([]float64, j1-j0)
		loc.SimRow(i, j0, j1, scalar)
		for x := range scalar {
			if got, want := scalar[x], loc.Sim(i, j0+x); got != want {
				t.Fatalf("words=%d m=%d i=%d block=[%d,%d): dst[%d]=%v, Sim=%v",
					words, m, i, j0, j1, x, got, want)
			}
		}
		dst := make([]float64, j1-j0)
		for _, name := range Kernels()[1:] {
			if _, err := SelectKernel(name); err != nil {
				t.Fatal(err)
			}
			loc.SimRow(i, j0, j1, dst)
			for x := range dst {
				if math.Float64bits(dst[x]) != math.Float64bits(scalar[x]) {
					t.Fatalf("kernel %s words=%d m=%d i=%d block=[%d,%d): dst[%d]=%x, scalar=%x",
						name, words, m, i, j0, j1, x,
						math.Float64bits(dst[x]), math.Float64bits(scalar[x]))
				}
			}
		}
	})
}
