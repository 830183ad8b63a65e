package theory

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"c2knn/internal/bruteforce"
	"c2knn/internal/frh"
	"c2knn/internal/sets"
	"c2knn/internal/similarity"
	"c2knn/internal/synth"
)

// family returns a Hasher of `trials` configurations over (b, seed)
// with no item table: every item is hashed directly, through ItemHash.
func family(b, trials int, seed int64) *frh.Hasher {
	return frh.NewHasher(0, frh.Options{B: b, T: trials, Seed: seed})
}

// makeProfiles builds two profiles with `shared` common items and `only`
// exclusive items each.
func makeProfiles(shared, only int, seed int64) (p1, p2 []int32) {
	rng := rand.New(rand.NewSource(seed))
	used := make(map[int32]bool)
	draw := func() int32 {
		for {
			v := int32(rng.Intn(1 << 24))
			if !used[v] {
				used[v] = true
				return v
			}
		}
	}
	for i := 0; i < shared; i++ {
		v := draw()
		p1 = append(p1, v)
		p2 = append(p2, v)
	}
	for i := 0; i < only; i++ {
		p1 = append(p1, draw())
		p2 = append(p2, draw())
	}
	return sets.Normalize(p1), sets.Normalize(p2)
}

func TestJaccard(t *testing.T) {
	p1, p2 := makeProfiles(10, 10, 1)
	want := 10.0 / 30.0
	if got := Jaccard(p1, p2); math.Abs(got-want) > 1e-12 {
		t.Errorf("Jaccard = %v, want %v", got, want)
	}
	if Jaccard(nil, nil) != 0 {
		t.Error("Jaccard of empties should be 0")
	}
}

func TestCollisionsCount(t *testing.T) {
	p1, p2 := makeProfiles(20, 30, 2)
	kappa, ell := Collisions(p1, p2, family(4096, 1, 12345), 0)
	if ell != 80 {
		t.Errorf("ℓ = %d, want 80", ell)
	}
	if kappa < 0 || kappa >= ell {
		t.Errorf("κ = %d out of range", kappa)
	}
	// With b much larger than ℓ, collisions are rare.
	if kappa > ell/4 {
		t.Errorf("κ = %d suspiciously high for b=4096, ℓ=%d", kappa, ell)
	}
}

// TestTheorem1ExactSandwich: for many random functions, the exact
// conditional probability of Eq. (6) must lie within the exact bounds of
// Eq. (9) computed from the same function's κ.
func TestTheorem1ExactSandwich(t *testing.T) {
	p1, p2 := makeProfiles(64, 96, 3) // ℓ=256, J=0.25
	j := Jaccard(p1, p2)
	h := family(4096, 300, 4)
	for fn := range h.T() {
		kappa, ell := Collisions(p1, p2, h, fn)
		lo, hi := Theorem1Exact(j, kappa, ell)
		cond := ConditionalCollision(p1, p2, h, fn)
		if cond < lo-1e-9 || cond > hi+1e-9 {
			t.Fatalf("configuration %d: conditional P=%.4f outside [%.4f, %.4f] (κ=%d)",
				fn, cond, lo, hi, kappa)
		}
	}
}

// TestTheorem1Empirical: the empirical collision probability over many
// functions respects the paper's worked-example interval.
func TestTheorem1Empirical(t *testing.T) {
	p1, p2 := makeProfiles(64, 96, 5) // ℓ=256, J=0.25
	j := Jaccard(p1, p2)
	below, above, _ := PaperExample(256, 4096, 1.5)
	emp := EmpiricalCollision(p1, p2, family(4096, 3000, 6))
	if emp < j-below || emp > j+above {
		t.Errorf("empirical P=%.4f outside [J−%.3f, J+%.3f] with J=%.3f", emp, below, above, j)
	}
	// The estimate should actually be close to J itself.
	if math.Abs(emp-j) > 0.05 {
		t.Errorf("empirical P=%.4f far from J=%.4f", emp, j)
	}
}

// TestEmpiricalMonotoneInSimilarity: more similar pairs collide more.
func TestEmpiricalMonotoneInSimilarity(t *testing.T) {
	high1, high2 := makeProfiles(80, 20, 7) // J = 80/120 ≈ 0.67
	low1, low2 := makeProfiles(10, 90, 8)   // J = 10/190 ≈ 0.05
	h := family(4096, 1500, 9)
	pHigh := EmpiricalCollision(high1, high2, h)
	pLow := EmpiricalCollision(low1, low2, h)
	if pHigh <= pLow {
		t.Errorf("P(high J)=%.3f ≤ P(low J)=%.3f", pHigh, pLow)
	}
}

func TestTheorem2Bounds(t *testing.T) {
	threshold, probLB := Theorem2(256, 4096, 1.5)
	if math.Abs(threshold-0.0778) > 0.001 {
		t.Errorf("threshold = %.4f, want ≈ 0.0778 (the paper's 0.078)", threshold)
	}
	if math.Abs(probLB-0.998) > 0.002 {
		t.Errorf("probLB = %.4f, want ≈ 0.998", probLB)
	}
	// d = 0.5 as printed in the paper gives much weaker numbers — the
	// repository treats the printed value as a typo (see PaperExample).
	th05, p05 := Theorem2(256, 4096, 0.5)
	if th05 > 0.05 && p05 > 0.9 {
		t.Error("d=0.5 unexpectedly reproduces the paper's numbers")
	}
}

// TestTheorem2EmpiricalConcentration: the fraction of functions whose
// collision density stays below the threshold must beat the bound.
func TestTheorem2EmpiricalConcentration(t *testing.T) {
	p1, p2 := makeProfiles(64, 96, 10) // ℓ=256
	threshold, probLB := Theorem2(256, 4096, 1.5)
	h := family(4096, 1500, 11)
	ok := 0
	for fn := range h.T() {
		kappa, ell := Collisions(p1, p2, h, fn)
		if float64(kappa)/float64(ell) < threshold {
			ok++
		}
	}
	if frac := float64(ok) / float64(h.T()); frac < probLB-0.01 {
		t.Errorf("concentration %.4f below the bound %.4f", frac, probLB)
	}
}

// TestTheorem1SimpleBoundsOrdering: quick property — lo ≤ hi and the
// interval contains the exact-sandwich interval's center behaviour.
func TestTheorem1SimpleBounds(t *testing.T) {
	f := func(jRaw uint8, kappaRaw, ellRaw uint16) bool {
		ell := int(ellRaw%500) + 2
		kappa := int(kappaRaw) % (ell / 2)
		j := float64(jRaw) / 255
		lo, hi, ok := Theorem1Simple(j, kappa, ell)
		if !ok {
			return true // assumption violated; nothing to check
		}
		return lo <= j && j <= hi && lo <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSameHashDeterministic(t *testing.T) {
	p1, p2 := makeProfiles(5, 5, 12)
	h := family(64, 1, 7)
	if SameHash(p1, p2, h, 0) != SameHash(p1, p2, h, 0) {
		t.Error("SameHash not deterministic")
	}
	if !SameHash(p1, p1, h, 0) {
		t.Error("identical profiles must share their hash")
	}
}

// TestSameHashEmptyProfile: an empty profile has no FastRandomHash
// value — frh never buckets it — so it shares no hash, not even with
// another empty profile.
func TestSameHashEmptyProfile(t *testing.T) {
	p, _ := makeProfiles(5, 5, 13)
	h := family(64, 4, 13)
	for fn := range h.T() {
		if SameHash(nil, p, h, fn) || SameHash(p, nil, h, fn) || SameHash(nil, nil, h, fn) {
			t.Fatalf("configuration %d: an empty profile shares a hash", fn)
		}
	}
	if got := EmpiricalCollision(nil, p, h); got != 0 {
		t.Errorf("EmpiricalCollision with an empty profile = %v, want 0", got)
	}
}

// TestTheorem1OnProductionClustering checks Theorem 1 on the clusters
// frh.BuildWithHasher emits, not on a model of them: over the exact
// k = 30 edges of two small presets, clustered unsplit (the theorem
// does not model splitting), the per-configuration co-clustering rate
// must lie inside the mean Theorem 1 bounds, the share of edges
// co-clustered in at least one of the T configurations must track
// 1 − (1 − J)^T, and the collision density must concentrate as
// Theorem 2 says.
func TestTheorem1OnProductionClustering(t *testing.T) {
	const (
		k    = 30
		b    = 4096
		fns  = 8
		seed = 42
		d    = 1.5 // the paper's worked example; see PaperExample
	)
	for _, cfg := range []synth.Config{synth.ML1M().Scale(0.1), synth.DBLP().Scale(0.1)} {
		t.Run(cfg.Name, func(t *testing.T) {
			data := synth.Generate(cfg)
			n := data.NumUsers()
			// One worker: edges tied at the k-th similarity do not
			// depend on the schedule.
			exact := bruteforce.Build(n, k, similarity.NewJaccard(data), 1)
			o := frh.Options{B: b, T: fns, MaxSize: -1, Seed: seed}
			h := frh.NewHasher(data.NumItems, o)
			clusters, st := frh.BuildWithHasher(data, h, o)
			if st.Splits != 0 {
				t.Fatalf("%d splits with splitting off", st.Splits)
			}
			// cluster[fn][u] numbers u's cluster in configuration fn
			// (0 for a user no cluster holds).
			cluster := make([][]int, fns)
			for fn := range cluster {
				cluster[fn] = make([]int, n)
			}
			for i, c := range clusters {
				for _, u := range c.Users {
					cluster[c.Fn][u] = i + 1
				}
			}

			var edges, pairs, together, union, dense int
			var lo, hi, predicted, probLB float64
			for u := range n {
				pu := data.Profiles[u]
				for _, nb := range exact.Neighbors(int32(u)) {
					pv := data.Profiles[nb.ID]
					j := Jaccard(pu, pv)
					edges++
					predicted += 1 - math.Pow(1-j, fns)
					co := false
					for fn := range fns {
						pairs++
						if c := cluster[fn][u]; c != 0 && c == cluster[fn][nb.ID] {
							together++
							co = true
						}
						kappa, ell := Collisions(pu, pv, h, fn)
						l, hh, _ := Theorem1Simple(j, kappa, ell)
						lo, hi = lo+l, hi+hh
						threshold, lb := Theorem2(ell, b, d)
						probLB += lb
						if float64(kappa)/float64(ell) < threshold {
							dense++
						}
					}
					if co {
						union++
					}
				}
			}
			rate, meanLo, meanHi := float64(together)/float64(pairs), lo/float64(pairs), hi/float64(pairs)
			share, want := float64(union)/float64(edges), predicted/float64(edges)
			conc, bound := float64(dense)/float64(pairs), probLB/float64(pairs)
			t.Logf("%d edges: co-bucket rate %.4f in [%.4f, %.4f]; union %.3f, 1−(1−J)^%d %.3f; κ/ℓ below threshold %.3f, bound %.3f",
				edges, rate, meanLo, meanHi, share, fns, want, conc, bound)
			if rate < meanLo || rate > meanHi {
				t.Errorf("co-bucket rate %.4f outside the mean Theorem 1 bounds [%.4f, %.4f]", rate, meanLo, meanHi)
			}
			if share < want-0.03 || share > want+0.05 {
				t.Errorf("co-clustered in ≥ 1 of %d configurations: %.3f, want within [−0.03, +0.05] of %.3f", fns, share, want)
			}
			if conc < bound-0.01 {
				t.Errorf("κ/ℓ below the Theorem 2 threshold for %.3f of (edge, configuration) pairs, below the bound %.3f", conc, bound)
			}
		})
	}
}
