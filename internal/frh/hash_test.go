package frh

import (
	"math/rand"
	"slices"
	"testing"

	"c2knn/internal/dataset"
	"c2knn/internal/jenkins"
	"c2knn/internal/sets"
	"c2knn/internal/similarity"
	"c2knn/internal/synth"
)

// refBuild is the per-configuration reference for BuildWithHasher: each
// configuration walks every profile through UserHash, appends users to
// their bucket in id order, then splits the buckets in index order.
func refBuild(d *dataset.Dataset, h *Hasher, o Options) []Cluster {
	o.setDefaults()
	var out []Cluster
	for fn := 0; fn < h.T(); fn++ {
		buckets := make([][]int32, h.B()+1)
		for u, p := range d.Profiles {
			if idx, ok := h.UserHash(fn, p); ok {
				buckets[idx] = append(buckets[idx], int32(u))
			}
		}
		var stats Stats
		profile := func(u int32) []int32 { return d.Profiles[u] }
		for idx, users := range buckets {
			if len(users) > 0 {
				out = append(out, splitRecursive(h, profile, &stats, o, Cluster{Fn: fn, Index: uint32(idx), Users: users}, 0)...)
			}
		}
	}
	return out
}

// forEachKernel runs f once under every count-kernel arm this CPU
// offers, so both minRows paths run: the Go loop under scalar, the
// vector kernel under any other arm.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	orig := similarity.KernelName()
	defer similarity.SelectKernel(orig)
	for _, arm := range similarity.Kernels() {
		if _, err := similarity.SelectKernel(arm); err != nil {
			t.Fatal(err)
		}
		t.Run(arm, f)
	}
}

// TestHashAllMatchesUserHash: the one-pass hashes and buckets equal the
// per-configuration walk for T around the eight-lane group width, on
// profiles of every length up to 40 including empty and singleton ones
// and the extreme item ids 0 and NumItems−1.
func TestHashAllMatchesUserHash(t *testing.T) {
	const numItems = 500
	rng := rand.New(rand.NewSource(29))
	profiles := [][]int32{{}, {0}, {numItems - 1}, {0, numItems - 1}, {}, {7}}
	for n := 1; n <= 40; n++ {
		p := make([]int32, n)
		for i := range p {
			p[i] = int32(rng.Intn(numItems))
		}
		profiles = append(profiles, sets.Normalize(p))
	}
	d := dataset.New("parity", profiles, numItems)
	forEachKernel(t, func(t *testing.T) {
		for _, T := range []int{1, 7, 8, 9, 15, 16, 17} {
			h := NewHasher(d.NumItems, Options{B: 64, T: T, Seed: int64(T)})
			for _, par := range []int{1, 0} {
				all := h.hashAll(d.Profiles, par)
				tab := h.Table(d.Profiles)
				for fn := 0; fn < T; fn++ {
					for u, p := range d.Profiles {
						want, ok := h.UserHash(fn, p)
						got := uint32(all[fn/lanes*d.NumUsers()+u][fn%lanes])
						if !ok {
							want = 0
						}
						if got != want {
							t.Fatalf("T=%d par=%d fn=%d user %d (%d items): hash %d, want %d", T, par, fn, u, len(p), got, want)
						}
						if ok && !slices.Contains(tab.Bucket(fn, want), int32(u)) {
							t.Fatalf("T=%d fn=%d: user %d missing from bucket %d", T, fn, u, want)
						}
					}
				}
			}
		}
	})
}

// TestItemTableMatchesJenkins: under every kernel arm, each entry of
// NewHasher's table is h_fn(item) = Hash32(item, seed_fn) mod B + 1 and
// each lane past T is 0xFFFF — for B a power of two (the vector
// kernel's mask) and not (the Go loop), T around the eight-lane group
// width, and item counts that split over one goroutine and several.
func TestItemTableMatchesJenkins(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for _, B := range []int{64, 100, 4096, 32768, 65535} {
			for _, T := range []int{1, 7, 8, 9, 17} {
				for _, numItems := range []int32{5, 3001} {
					o := Options{B: B, T: T, Seed: int64(B + T)}
					h := NewHasher(numItems, o)
					fam := jenkins.NewFamily(T, o.Seed)
					for g, tab := range h.rows {
						for it := range tab {
							for lane := range lanes {
								want := uint16(0xffff)
								if fn := g*lanes + lane; fn < T {
									want = uint16(jenkins.Hash32(uint32(it), fam.Seed(fn))%uint32(B)) + 1
								}
								if got := tab[it][lane]; got != want {
									t.Fatalf("B=%d T=%d items=%d: item %d lane %d of group %d is %d, want %d",
										B, T, numItems, it, lane, g, got, want)
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestMinRowsOutOfRangePanics: an item id outside the table panics on
// both paths instead of reading past it.
func TestMinRowsOutOfRangePanics(t *testing.T) {
	h := NewHasher(10, Options{B: 8, T: 3, Seed: 1})
	forEachKernel(t, func(t *testing.T) {
		for _, bad := range []int32{10, -1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("item %d: minRows did not panic", bad)
					}
				}()
				var out [lanes]uint16
				minRows(h.rows[0], []int32{1, 2, bad}, &out)
			}()
		}
	})
}

// TestBucketsAppendIsolated: growing one bucket never writes into the
// next one carved from the same slab.
func TestBucketsAppendIsolated(t *testing.T) {
	d := randomDataset(300, 50, 5, 3)
	h := NewHasher(d.NumItems, Options{B: 8, T: 2, Seed: 4})
	tab := h.Table(d.Profiles)
	for fn := range tab.T {
		before := slices.Clone(tab.IDs[fn])
		for idx := uint32(1); idx <= uint32(tab.B); idx++ {
			_ = append(tab.Bucket(fn, idx), -1)
		}
		if !slices.Equal(tab.IDs[fn], before) {
			t.Fatalf("fn %d: a bucket changed under a neighbour's append", fn)
		}
	}
}

// TestBuildMatchesReference: BuildWithHasher lists exactly the clusters
// of the per-configuration reference, in the same order, on a scaled
// ml1M lookalike over several seeds.
func TestBuildMatchesReference(t *testing.T) {
	d := synth.Generate(synth.ML1M().Scale(0.05))
	forEachKernel(t, func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			o := Options{B: 64, T: 9, MaxSize: 60, Seed: seed}
			h := NewHasher(d.NumItems, o)
			got, _ := BuildWithHasher(d, h, o)
			want := refBuild(d, h, o)
			if len(got) != len(want) {
				t.Fatalf("seed %d: %d clusters, reference %d", seed, len(got), len(want))
			}
			for i := range got {
				if got[i].Fn != want[i].Fn || got[i].Index != want[i].Index || !slices.Equal(got[i].Users, want[i].Users) {
					t.Fatalf("seed %d: cluster %d is fn=%d idx=%d (%d users), reference fn=%d idx=%d (%d users)",
						seed, i, got[i].Fn, got[i].Index, len(got[i].Users), want[i].Fn, want[i].Index, len(want[i].Users))
				}
			}
		}
	})
}
