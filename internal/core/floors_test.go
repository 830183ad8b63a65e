package core

import (
	"fmt"
	"sync"
	"testing"

	"c2knn/internal/bruteforce"
	"c2knn/internal/frh"
	"c2knn/internal/knng"
	"c2knn/internal/similarity"
)

// TestFloorsPreserveRowSims: seeding each cluster solve with its
// members' global floors must leave every user's sorted similarities
// exactly as an unfloored build leaves them. The reference solves the
// same frh.Stream clusters with the scalar solver and no floors and
// merges them serially; Build must match it row for row under every
// worker count, pipeline mode and scheduling policy.
func TestFloorsPreserveRowSims(t *testing.T) {
	b, _ := testData(t)
	base := Options{K: 10, B: 128, T: 6, MaxClusterSize: 100, Seed: 53}
	o := base
	o.setDefaults()

	var mu sync.Mutex
	var clusters [][]int32
	frh.Stream(b.data, frh.Options{B: o.B, T: o.T, MaxSize: o.MaxClusterSize, Seed: o.Seed}, func(c frh.Cluster) {
		mu.Lock()
		clusters = append(clusters, c.Users)
		mu.Unlock()
	})
	ref := knng.New(b.data.NumUsers(), o.K)
	var loc similarity.Local
	var s bruteforce.Scratch
	for _, users := range clusters {
		similarity.GatherInto(b.gf, users, &loc)
		lists := bruteforce.LocalIntoScalar(&loc, o.K, &s, nil)
		for i := range lists {
			for _, nb := range lists[i].H {
				ref.Insert(users[i], nb.ID, nb.Sim)
			}
		}
	}

	for _, workers := range []int{1, 4} {
		for _, disable := range []bool{false, true} {
			for _, sched := range []Scheduling{ScheduleLargestFirst, ScheduleFIFO} {
				name := fmt.Sprintf("workers=%d/pipeline=%v/%v", workers, !disable, sched)
				t.Run(name, func(t *testing.T) {
					bo := base
					bo.Workers, bo.DisablePipeline, bo.Scheduling = workers, disable, sched
					g, st := Build(b.data, b.gf, bo)
					if st.Hyreced != 0 {
						t.Fatalf("%d clusters went to Hyrec; the reference brute-forces all", st.Hyreced)
					}
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
				})
			}
		}
	}
}
