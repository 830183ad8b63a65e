// Package synth generates synthetic users×items datasets standing in for
// the six public datasets of the paper's evaluation (Table I), which
// cannot be downloaded in this offline environment. The generator is
// calibrated so the properties C² is sensitive to are preserved:
//
//   - scale: user count, item-universe size and rating volume match the
//     paper's figures (modulo an optional scale factor);
//   - similarity structure: users belong to latent leaf communities
//     grouped into parent regions, and profiles mix leaf-local,
//     region-local and global draws. The three levels give the dataset a
//     navigable similarity gradient (random-start greedy algorithms can
//     descend from weak global overlaps to strong community overlaps, as
//     they do on real data) and give every item a coherent fan base;
//   - popularity skew: item popularity follows a Zipf law whose exponent
//     differs per preset — dense MovieLens-like datasets have heavy heads
//     (producing the giant FastRandomHash clusters that trigger recursive
//     splitting, Fig. 8a) while sparse Amazon/DBLP/Gowalla-like datasets
//     have flat, huge item universes (no raw cluster exceeds N, Fig. 8b,
//     and LSH fragments them).
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"c2knn/internal/dataset"
	"c2knn/internal/jenkins"
)

// leavesPerParent groups leaf communities into parent regions; the middle
// level of the similarity hierarchy.
const leavesPerParent = 8

// Config describes one synthetic dataset.
type Config struct {
	// Name labels the generated dataset.
	Name string
	// Users and Items size the two populations.
	Users int
	Items int
	// MeanProfile is the target mean |P_u|; actual means land within a
	// few percent after clipping.
	MeanProfile float64
	// ProfileSigma is the σ of the lognormal profile-size distribution.
	ProfileSigma float64
	// MinProfile clips profile sizes from below (the paper keeps users
	// with ≥ 20 ratings).
	MinProfile int
	// Communities is the number of leaf communities.
	Communities int
	// GlobalFrac is the probability that an item draw follows the global
	// popularity distribution (blockbusters: every user can rate them).
	GlobalFrac float64
	// ParentFrac is the probability that a draw comes from the user's
	// parent region (a group of neighboring leaf communities).
	ParentFrac float64
	// ZipfS and ZipfV shape the within-leaf item-popularity law
	// P(rank) ∝ 1/(v+rank)^s; they control how coherent a community's
	// profiles are.
	ZipfS float64
	ZipfV float64
	// GlobalZipfS and GlobalZipfV shape the global (blockbuster) draw;
	// they control the reach of the most popular items and hence the size
	// of the biggest raw FastRandomHash clusters. Zero values fall back
	// to ZipfS/ZipfV.
	GlobalZipfS float64
	GlobalZipfV float64
	// Seed makes generation deterministic.
	Seed int64
}

// CheckScale rejects a scale factor Scale cannot honour: zero, negative
// and NaN factors would silently keep the paper-size config, and an
// infinite one would shrink it to the minimums.
func CheckScale(f float64) error {
	if !(f > 0) || math.IsInf(f, 1) {
		return fmt.Errorf("scale must be a finite number above 0, got %v", f)
	}
	return nil
}

// Scale returns a copy of c with user, item and community counts (and
// hence rating volume) scaled by f, preserving per-user statistics.
// Communities scale linearly with the populations so that users-per-leaf
// and items-per-leaf — the quantities that set neighbor similarities and
// cluster sizes — are scale invariant. Minimums keep tiny scales usable.
func (c Config) Scale(f float64) Config {
	if f <= 0 || f == 1 {
		return c
	}
	out := c
	out.Users = maxInt(200, int(math.Round(float64(c.Users)*f)))
	out.Items = maxInt(100, int(math.Round(float64(c.Items)*f)))
	out.Communities = maxInt(4, int(math.Round(float64(c.Communities)*f)))
	if float64(out.Items)/2 < c.MeanProfile {
		out.MeanProfile = float64(out.Items) / 2
	}
	out.Name = fmt.Sprintf("%s@%.3g", c.Name, f)
	return out
}

// Generate builds the dataset described by c.
func Generate(c Config) *dataset.Dataset {
	if c.Users <= 0 || c.Items <= 0 {
		panic("synth: config needs positive Users and Items")
	}
	if c.Communities <= 0 {
		c.Communities = 1
	}
	if c.MinProfile <= 0 {
		c.MinProfile = 1
	}
	rng := rand.New(rand.NewSource(c.Seed))

	// Assign items to leaf communities by hash, keeping each leaf's items
	// ordered by global rank so leaf-local draws inherit the global skew
	// (each leaf has its own locally-popular head items).
	leafItems := make([][]int32, c.Communities)
	for it := 0; it < c.Items; it++ {
		leaf := int(jenkins.Hash32(uint32(it), 0x5eed) % uint32(c.Communities))
		leafItems[leaf] = append(leafItems[leaf], int32(it))
	}
	gs, gv := c.GlobalZipfS, c.GlobalZipfV
	if gs == 0 {
		gs = c.ZipfS
	}
	if gv == 0 {
		gv = c.ZipfV
	}
	global := newZipfTable(c.Items, gs, gv)
	local := make([]*zipfTable, c.Communities)
	for leaf := range local {
		if len(leafItems[leaf]) > 0 {
			local[leaf] = newZipfTable(len(leafItems[leaf]), c.ZipfS, c.ZipfV)
		}
	}
	// drawLeaf samples one item from a leaf's local popularity law.
	drawLeaf := func(leaf int) (int32, bool) {
		if len(leafItems[leaf]) == 0 {
			return 0, false
		}
		return leafItems[leaf][local[leaf].Draw(rng)], true
	}

	// Lognormal profile sizes with mean ≈ MeanProfile:
	// E[lognormal(μ,σ)] = exp(μ+σ²/2) ⇒ μ = ln(mean) − σ²/2.
	sigma := c.ProfileSigma
	if sigma <= 0 {
		sigma = 0.5
	}
	mu := math.Log(c.MeanProfile) - sigma*sigma/2

	profiles := make([][]int32, c.Users)
	seen := make(map[int32]struct{}, int(c.MeanProfile)*2)
	for u := 0; u < c.Users; u++ {
		leaf := u % c.Communities
		parent := leaf / leavesPerParent
		size := int(math.Round(math.Exp(rng.NormFloat64()*sigma + mu)))
		if size < c.MinProfile {
			size = c.MinProfile
		}
		if max := c.Items - 1; size > max {
			size = max
		}
		clear(seen)
		p := make([]int32, 0, size)
		for attempts := 0; len(p) < size && attempts < 30*size; attempts++ {
			var it int32
			ok := true
			switch r := rng.Float64(); {
			case r < c.GlobalFrac:
				it = int32(global.Draw(rng))
			case r < c.GlobalFrac+c.ParentFrac:
				// A random sibling leaf within the parent region.
				first := parent * leavesPerParent
				span := minInt(leavesPerParent, c.Communities-first)
				it, ok = drawLeaf(first + rng.Intn(span))
			default:
				it, ok = drawLeaf(leaf)
			}
			if !ok {
				continue
			}
			if _, dup := seen[it]; dup {
				continue
			}
			seen[it] = struct{}{}
			p = append(p, it)
		}
		profiles[u] = p
	}
	return dataset.New(c.Name, profiles, int32(c.Items))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
