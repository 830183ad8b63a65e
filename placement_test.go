package c2knn

import (
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"c2knn/internal/dataset"
	"c2knn/internal/frh"
	"c2knn/internal/persist"
)

// TestUpsertPlacementReadsSnapshot: a snapshot built with a non-default
// seed, T and N, saved and loaded through mmap and through copy, places
// upserts with that family after EnableUpserts(UpsertConfig{}) — nothing
// restates it. Every user's cluster in every configuration, base users
// and a stream of inserts and updates alike, equals the cluster
// frh.BuildWithHasher forms under the build's options over the current
// profiles.
func TestUpsertPlacementReadsSnapshot(t *testing.T) {
	d, err := Generate("ml1M", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewGoldFinger(d, 256)
	if err != nil {
		t.Fatal(err)
	}
	opts := frh.Options{B: frh.DefaultB, T: 5, MaxSize: 40, Seed: 7}
	g, _ := BuildC2(d, sim, BuildOptions{K: 10, Workers: 2, T: opts.T, MaxClusterSize: opts.MaxSize, Seed: opts.Seed})
	built, err := NewIndex(g, d, sim)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ix.c2")
	if err := built.Save(path); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []LoadMode{LoadMMap, LoadCopy} {
		ix, err := LoadIndexMode(path, mode)
		if errors.Is(err, persist.ErrMapUnavailable) {
			t.Logf("%v: %v", mode, err)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.EnableUpserts(UpsertConfig{}); err != nil {
			t.Fatal(err)
		}
		ov := ix.overlay.Load()
		check := func(stage string) {
			t.Helper()
			v := ov.View()
			n := v.NumUsers()
			merged := &dataset.Dataset{NumItems: v.NumItems(), Profiles: make([][]int32, n)}
			for u := range merged.Profiles {
				merged.Profiles[u] = v.Profile(int32(u))
			}
			clusters, stats := frh.BuildWithHasher(merged, frh.NewHasher(merged.NumItems, opts), opts)
			if stats.Splits == 0 {
				t.Fatalf("%v %s: no bucket was split, so the check exercises no splitting", mode, stage)
			}
			want := make([][]int32, opts.T*n)
			for _, c := range clusters {
				for _, u := range c.Users {
					want[c.Fn*n+int(u)] = c.Users
				}
			}
			for fn := 0; fn < opts.T; fn++ {
				for u := 0; u < n; u++ {
					got := slices.Sorted(slices.Values(ov.Cluster(fn, int32(u))))
					if w := slices.Sorted(slices.Values(want[fn*n+u])); !slices.Equal(got, w) {
						t.Fatalf("%v %s: fn %d user %d placed in a %d-user cluster, the build's has %d users",
							mode, stage, fn, u, len(got), len(w))
					}
				}
			}
		}
		check("base")

		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 48; i++ {
			p := slices.Clone(d.Profiles[rng.Intn(d.NumUsers())])
			user := int32(-1)
			if i%2 == 1 {
				user = int32(rng.Intn(ix.NumUsers()))
				p = append(p[:1+rng.Intn(len(p))], d.NumItems+int32(rng.Intn(16)))
			}
			if _, err := ix.Upsert(user, p); err != nil {
				t.Fatal(err)
			}
		}
		check("stream")
		ix.Close()
	}
}
