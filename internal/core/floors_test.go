package core

import (
	"fmt"
	"testing"

	"c2knn/internal/bruteforce"
	"c2knn/internal/frh"
	"c2knn/internal/knng"
	"c2knn/internal/minhash"
	"c2knn/internal/similarity"
)

// floorFreeReference solves every cluster with the scalar brute-force
// solver and no floors and merges them serially: the graph whose row
// similarities Build must reproduce when every cluster is brute-forced.
func floorFreeReference(b *synthBundle, k int, clusters [][]int32) *knng.Graph {
	ref := knng.New(b.data.NumUsers(), k)
	var loc similarity.Local
	var s bruteforce.Scratch
	for _, users := range clusters {
		if len(users) < 2 {
			continue
		}
		similarity.GatherInto(b.gf, users, &loc)
		lists := bruteforce.LocalIntoScalar(&loc, k, &s, nil)
		for i := range lists {
			for _, nb := range lists[i].H {
				ref.Insert(users[i], nb.ID, nb.Sim)
			}
		}
	}
	return ref
}

// referenceClusters lists the clusters Build solves under o: frh.Build's
// for FastRandomHash, the MinHash family's buckets for UseMinHash.
func referenceClusters(b *synthBundle, o Options) [][]int32 {
	o.setDefaults()
	var clusters [][]int32
	if o.UseMinHash {
		fam := minhash.New(o.T, o.Seed)
		for fn := range o.T {
			for _, bk := range fam.Buckets(fn, b.data.Profiles) {
				clusters = append(clusters, bk.Users)
			}
		}
		return clusters
	}
	c := o.clustering()
	built, _ := frh.Build(b.data, frh.Options{B: c.B, T: c.T, MaxSize: c.N, Seed: c.Seed})
	for _, cl := range built {
		clusters = append(clusters, cl.Users)
	}
	return clusters
}

// sameRowSims fails unless every user's sorted similarities in g are
// exactly those of ref.
func sameRowSims(t *testing.T, g, ref *knng.Graph) {
	t.Helper()
	for u := range ref.Lists {
		want, got := ref.Neighbors(int32(u)), g.Neighbors(int32(u))
		if len(got) != len(want) {
			t.Fatalf("user %d: %d neighbors, reference %d", u, len(got), len(want))
		}
		for i := range want {
			if got[i].Sim != want[i].Sim {
				t.Fatalf("user %d rank %d: sim %v, reference %v", u, i, got[i].Sim, want[i].Sim)
			}
		}
	}
}

// TestFloorsPreserveRowSims: seeding each cluster solve with its
// members' global floors must leave every user's sorted similarities
// exactly as an unfloored build leaves them. The reference solves the
// same frh.Build clusters with the scalar solver and no floors and
// merges them serially; Build must match it row for row under every
// worker count and scheduling policy, and so must the serial driver.
func TestFloorsPreserveRowSims(t *testing.T) {
	b, _ := testData(t)
	base := Options{K: 10, B: 128, T: 6, MaxClusterSize: 100, Seed: 53}
	ref := floorFreeReference(b, base.K, referenceClusters(b, base))

	for _, workers := range []int{1, 4} {
		for _, sched := range []Scheduling{ScheduleLargestFirst, ScheduleFIFO} {
			t.Run(fmt.Sprintf("workers=%d/%v", workers, sched), func(t *testing.T) {
				bo := base
				bo.Workers, bo.Scheduling = workers, sched
				g, st := Build(b.data, b.gf, bo)
				if st.Hyreced != 0 {
					t.Fatalf("%d clusters went to Hyrec; the reference brute-forces all", st.Hyreced)
				}
				sameRowSims(t, g, ref)
			})
		}
	}
	t.Run("serial", func(t *testing.T) {
		sameRowSims(t, buildSerial(b.data, b.gf, base), ref)
	})
}

// TestVariantsPreserveRowSims: under every clustering and scheduling
// variant, Build leaves each user's sorted similarities exactly as the
// floor-free serial reference over the same clusters does. The
// no-splitting and MinHash variants force brute-force solves: N does
// not bound their clusters, and one of ρ·k² users or more would go to
// Hyrec, which the reference does not model.
func TestVariantsPreserveRowSims(t *testing.T) {
	b, _ := testData(t)
	base := Options{K: 10, B: 128, T: 6, MaxClusterSize: 100, Workers: 4, Seed: 37}
	variants := []struct {
		name string
		mod  func(*Options)
	}{
		{"default", func(*Options) {}},
		{"fifo", func(o *Options) { o.Scheduling = ScheduleFIFO }},
		{"no-splitting", func(o *Options) { o.DisableSplitting, o.LocalSolver = true, SolverBruteForce }},
		{"minhash", func(o *Options) { o.UseMinHash, o.LocalSolver = true, SolverBruteForce }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			o := base
			v.mod(&o)
			clusters := referenceClusters(b, o)
			g, st := Build(b.data, b.gf, o)
			if st.Clusters != len(clusters) {
				t.Fatalf("Build solved %d clusters, the reference lists %d", st.Clusters, len(clusters))
			}
			if st.Hyreced != 0 {
				t.Fatalf("%d clusters went to Hyrec; the reference brute-forces all", st.Hyreced)
			}
			sameRowSims(t, g, floorFreeReference(b, o.K, clusters))
		})
	}
}
