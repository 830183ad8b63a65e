package core

import (
	"testing"

	"c2knn/internal/knng"
)

// TestSolverCountersInvariant: every produced cluster is accounted for —
// solved by exactly one solver or skipped as sub-2-user — under both
// clustering schemes.
func TestSolverCountersInvariant(t *testing.T) {
	b, _ := testData(t)
	for _, mh := range []bool{false, true} {
		_, s := Build(b.data, b.gf, Options{
			K: 10, B: 256, T: 4, MaxClusterSize: 80,
			Workers: 3, Seed: 41, UseMinHash: mh,
		})
		if got := s.BruteForced + s.Hyreced + s.Skipped; got != s.Clusters {
			t.Errorf("minhash=%v: BruteForced+Hyreced+Skipped = %d, want Clusters = %d",
				mh, got, s.Clusters)
		}
		if mh && s.Skipped != 0 {
			t.Errorf("minhash emission skips singletons, yet Skipped = %d", s.Skipped)
		}
	}
}

// TestPipelineStatsFields sanity-checks the new per-phase reporting.
func TestPipelineStatsFields(t *testing.T) {
	b, _ := testData(t)
	opts := Options{K: 10, B: 128, T: 6, MaxClusterSize: 100, Workers: 4, Seed: 43}

	_, sp := Build(b.data, b.gf, opts)
	if sp.ClusterTime <= 0 || sp.KNNTime <= 0 || sp.TotalTime <= 0 {
		t.Errorf("phase timings not populated: %+v", sp)
	}
	if sp.OverlapTime < 0 || sp.OverlapTime > sp.ClusterTime || sp.OverlapTime > sp.KNNTime {
		t.Errorf("OverlapTime = %v exceeds a phase (cluster %v, knn %v)",
			sp.OverlapTime, sp.ClusterTime, sp.KNNTime)
	}
	if sp.MaxQueueDepth < 1 || sp.MaxQueueDepth > sp.Clusters {
		t.Errorf("MaxQueueDepth = %v out of [1, %d]", sp.MaxQueueDepth, sp.Clusters)
	}
}

// TestPipelineWorkerInvariance: the pipelined quality must not depend on
// the worker count.
func TestPipelineWorkerInvariance(t *testing.T) {
	b, raw := testData(t)
	opts := Options{K: 10, B: 256, T: 6, MaxClusterSize: 100, Seed: 47}
	o1 := opts
	o1.Workers = 1
	o8 := opts
	o8.Workers = 8
	g1, _ := Build(b.data, b.gf, o1)
	g8, _ := Build(b.data, b.gf, o8)
	q1 := knng.Quality(g1, b.exact, raw)
	q8 := knng.Quality(g8, b.exact, raw)
	if diff := q1 - q8; diff > 0.02 || diff < -0.02 {
		t.Errorf("pipelined quality depends on workers: %.3f vs %.3f", q1, q8)
	}
}
