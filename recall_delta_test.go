package c2knn_test

import (
	"math"
	"slices"
	"testing"
	"time"

	"c2knn/internal/core"
	"c2knn/internal/dataset"
	"c2knn/internal/delta"
	"c2knn/internal/experiments"
	"c2knn/internal/goldfinger"
	"c2knn/internal/knng"
	"c2knn/internal/recommend"
	"c2knn/internal/synth"
)

// TestRecallDeltaInBand is the quality gate for incremental maintenance:
// a graph grown through the delta overlay must recommend as well as one
// built from scratch. Each case rebuilds a configuration minus its
// last 64 users, re-inserts exactly their training profiles through
// Upsert (localized re-solve, no rebuild), folds the overlay into fresh
// artifacts with Compact, and evaluates the compacted graph on the
// full fold — if localized re-solving were cutting corners (wrong
// clusters, stale reverse edges, lossy compaction), the upserted users
// would carry degraded rows and recall would move.
//
//   - golden: the 302-user TestRecallGolden configuration, whose recall
//     must sit in the same pinned band. 64 of its users (21%) are
//     upserted.
//   - rebuild: ml1M at `c2bench -scale 0.05` (its 4,000-user floor),
//     built with that dataset's §IV-C parameters. Recall must land
//     within 0.005 of a from-scratch build over the same users — the
//     tolerance the golden band grants float-ordering jitter — and so
//     must the recall of the 64 upserted users alone, which the whole
//     fold's average barely sees. The slowest upsert must take under a
//     second (the freshness bound: only a rebuild on the write path
//     trips it).
//
// Held-out users are the *last* ids so the overlay's contiguous id
// assignment reproduces the original ids, letting the full fold's test
// sets line up without any remapping.
func TestRecallDeltaInBand(t *testing.T) {
	const heldOut = 64
	t.Run("golden", func(t *testing.T) {
		cfg, ok := synth.ByName("ml1M")
		if !ok {
			t.Fatal("ml1M preset missing")
		}
		f := recommend.Split(synth.Generate(cfg.Scale(0.05)), 5, 42)[0]
		g, _ := growByUpserts(t, f, heldOut, 0x60fd, core.Options{K: 30, Workers: 4, Seed: 42})

		got := recommend.EvalRecallFrozen(f, g, 30, 4)
		t.Logf("incremental recall@30 = %.16f (pinned %.4f ± %.3f)", got, goldenRecall, goldenTolerance)
		if math.Abs(got-goldenRecall) > goldenTolerance {
			t.Fatalf("incremental recall@30 = %.4f, pinned %.4f ± %.3f — delta-grown graphs have drifted from rebuild quality",
				got, goldenRecall, goldenTolerance)
		}
	})

	t.Run("rebuild", func(t *testing.T) {
		e := &experiments.Env{Scale: 0.05, Workers: 4, Seed: 42}
		p, err := e.Prepare("ml1M")
		if err != nil {
			t.Fatal(err)
		}
		f := recommend.Split(p.Data, 5, 42)[0]
		b, tt, maxSize := e.C2Params("ml1M")
		opts := core.Options{K: 30, B: b, T: tt, MaxClusterSize: maxSize, Workers: 4, Seed: 42}
		gfSeed := uint32(42) + 0x60fd

		gf, err := goldfinger.New(f.Train, goldfinger.DefaultBits, gfSeed)
		if err != nil {
			t.Fatal(err)
		}
		full, _ := core.Build(f.Train, gf, opts)
		fullF := full.Freeze()
		rebuild := recommend.EvalRecallFrozen(f, fullF, 30, 4)

		g, lat := growByUpserts(t, f, heldOut, gfSeed, opts)
		incremental := recommend.EvalRecallFrozen(f, g, 30, 4)
		diff := math.Abs(incremental - rebuild)
		// The tail: the upserted users alone, whose share of the whole
		// fold is too small for the overall recall to see them go bad.
		n := f.Train.NumUsers()
		tail := f
		tail.Test = make([][]int32, n)
		copy(tail.Test[n-heldOut:], f.Test[n-heldOut:])
		tailRebuild := recommend.EvalRecallFrozen(tail, fullF, 30, 4)
		tailIncremental := recommend.EvalRecallFrozen(tail, g, 30, 4)
		tailDiff := math.Abs(tailIncremental - tailRebuild)
		slowest := slices.Max(lat)
		t.Logf("%d base users + %d upserts: recall@30 rebuild %.4f, incremental %.4f (delta %.4f); upserted users only: rebuild %.4f, incremental %.4f (delta %.4f); slowest upsert %v",
			n-heldOut, heldOut, rebuild, incremental, diff, tailRebuild, tailIncremental, tailDiff, slowest)
		if diff > 0.005 {
			t.Errorf("incremental recall@30 = %.4f, rebuild %.4f: |delta| %.4f > 0.005", incremental, rebuild, diff)
		}
		if tailDiff > 0.005 {
			t.Errorf("upserted users' incremental recall@30 = %.4f, rebuild %.4f: |delta| %.4f > 0.005",
				tailIncremental, tailRebuild, tailDiff)
		}
		if slowest > time.Second {
			t.Errorf("slowest of %d upserts took %v, want <= 1s", heldOut, slowest)
		}
	})
}

// growByUpserts builds the C² graph of f's training set minus its last
// heldOut users, streams exactly their profiles back in through
// Overlay.Upsert, timing each, and compacts. It returns the compacted
// graph and the upserts' wall times.
func growByUpserts(t *testing.T, f recommend.Fold, heldOut int, gfSeed uint32, opts core.Options) (*knng.Frozen, []time.Duration) {
	t.Helper()
	n := f.Train.NumUsers()
	if n <= heldOut {
		t.Fatalf("fold has only %d users", n)
	}
	base := dataset.New(f.Train.Name, f.Train.Profiles[:n-heldOut], f.Train.NumItems)
	gf, err := goldfinger.New(base, goldfinger.DefaultBits, gfSeed)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := core.Build(base, gf, opts)

	ov, err := delta.Attach(g.Freeze(), base, gf, nil)
	if err != nil {
		t.Fatal(err)
	}
	lat := make([]time.Duration, 0, heldOut)
	for u := n - heldOut; u < n; u++ {
		start := time.Now()
		res, err := ov.Upsert(-1, f.Train.Profiles[u])
		lat = append(lat, time.Since(start))
		if err != nil {
			t.Fatalf("upsert user %d: %v", u, err)
		}
		if int(res.User) != u {
			t.Fatalf("upsert assigned id %d, want %d (id stability broken)", res.User, u)
		}
	}
	cmp, err := ov.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Train.NumUsers() != n {
		t.Fatalf("compacted to %d users, want %d", cmp.Train.NumUsers(), n)
	}
	return cmp.Graph, lat
}
