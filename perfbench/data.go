package main

import (
	"fmt"
	"math/rand"
	"slices"

	"c2knn"
	"c2knn/internal/knng"
	"c2knn/internal/synth"
)

// inputs are the generated data of one run: the base dataset every
// build and daemon works on, the held-out tail whose profiles the
// freshness phase upserts as new users, and the preset's popularity skew,
// which the generated traffic reuses for users.
type inputs struct {
	base  *c2knn.Dataset
	tail  [][]int32
	zipfS float64
}

// makeInputs generates the preset at the given scale with holdout extra
// users, all drawn from one seeded generator run, and splits off the
// tail. The base keeps the preset's user count.
func makeInputs(preset string, scale float64, holdout int, seed int64) (*inputs, error) {
	cfg, ok := synth.ByName(preset)
	if !ok {
		return nil, fmt.Errorf("unknown preset %q", preset)
	}
	if cfg.ZipfS <= 1 {
		return nil, fmt.Errorf("preset %q: Zipf exponent %v, traffic needs one above 1", preset, cfg.ZipfS)
	}
	cfg = cfg.Scale(scale)
	cfg.Seed = seed
	n := cfg.Users
	cfg.Users += holdout
	d := c2knn.GenerateConfig(cfg)
	base := &c2knn.Dataset{Name: d.Name, NumItems: d.NumItems, Profiles: d.Profiles[:n:n]}
	return &inputs{base: base, tail: d.Profiles[n:], zipfS: cfg.ZipfS}, nil
}

// invIndex maps each item to the users whose profile holds it; it makes
// an exact Jaccard row (one user against all others) cost the sum of
// the row user's item popularities instead of a pass over every user.
type invIndex struct {
	d     *c2knn.Dataset
	users [][]int32
}

func newInvIndex(d *c2knn.Dataset) *invIndex {
	counts := make([]int32, d.NumItems)
	for _, p := range d.Profiles {
		for _, it := range p {
			counts[it]++
		}
	}
	users := make([][]int32, d.NumItems)
	for it := range users {
		users[it] = make([]int32, 0, counts[it])
	}
	for u, p := range d.Profiles {
		for _, it := range p {
			users[it] = append(users[it], int32(u))
		}
	}
	return &invIndex{d: d, users: users}
}

// exactRow fills list with u's exact top-k neighbors under Jaccard,
// computed the way similarity.Jaccard computes it. inter is scratch of
// length NumUsers, left zeroed on return.
func (ix *invIndex) exactRow(u int32, list *c2knn.Graph, inter []int32) {
	var touched []int32
	for _, it := range ix.d.Profiles[u] {
		for _, v := range ix.users[it] {
			if inter[v] == 0 {
				touched = append(touched, v)
			}
			inter[v]++
		}
	}
	lu := len(ix.d.Profiles[u])
	for _, v := range touched {
		if v != u {
			in := int(inter[v])
			list.Insert(u, v, float64(in)/float64(lu+len(ix.d.Profiles[v])-in))
		}
		inter[v] = 0
	}
}

// sampleQuality is Eq. 2 of the paper restricted to a user sample: the
// average exact-Jaccard similarity of the approximate neighbor lists of
// the sampled users, divided by that of their exact lists. neighbors
// returns a user's approximate neighbor ids.
func sampleQuality(d *c2knn.Dataset, k int, sample []int32, neighbors func(u int32) []int32) float64 {
	inv := newInvIndex(d)
	exact := knng.New(d.NumUsers(), k)
	approx := knng.New(d.NumUsers(), k)
	inter := make([]int32, d.NumUsers())
	for _, u := range sample {
		inv.exactRow(u, exact, inter)
		for _, v := range neighbors(u) {
			approx.Insert(u, v, 1)
		}
	}
	return c2knn.Quality(approx, exact, c2knn.ExactJaccard(d))
}

// sampleUsers draws m distinct ids from [lo, hi) with rng.
func sampleUsers(rng *rand.Rand, lo, hi, m int) []int32 {
	m = min(m, hi-lo)
	perm := rng.Perm(hi - lo)[:m]
	out := make([]int32, m)
	for i, p := range perm {
		out[i] = int32(lo + p)
	}
	slices.Sort(out)
	return out
}

// zipfUsers draws user ids with a Zipf-skewed popularity over a seeded
// permutation of [0, n): a hot head of users gets most requests, as in
// recommendation traffic, without the hot ids being the low ones.
type zipfUsers struct {
	z    *rand.Zipf
	perm []int
}

func newZipfUsers(rng *rand.Rand, n int, s float64) *zipfUsers {
	return &zipfUsers{z: rand.NewZipf(rng, s, 1, uint64(n-1)), perm: rng.Perm(n)}
}

func (z *zipfUsers) next() int32 { return int32(z.perm[z.z.Uint64()]) }

// aligned draws a popularity rank and returns the size users whose
// ranks share its size-aligned block: hot batches recur, and so can hit
// the response cache, as single requests for hot users do.
func (z *zipfUsers) aligned(size int) []int32 {
	r := int(z.z.Uint64()) / size * size
	users := make([]int32, 0, size)
	for j := r; j < r+size && j < len(z.perm); j++ {
		users = append(users, int32(z.perm[j]))
	}
	return users
}
