package c2knn_test

import (
	"math"
	"testing"

	"c2knn/internal/core"
	"c2knn/internal/dataset"
	"c2knn/internal/delta"
	"c2knn/internal/goldfinger"
	"c2knn/internal/recommend"
	"c2knn/internal/synth"
)

// TestRecallDeltaInBand is the quality gate for incremental maintenance:
// a graph grown through the delta overlay must recommend as well as one
// built from scratch. It rebuilds the golden configuration minus the
// last 64 users, re-inserts exactly their training profiles through
// Upsert (localized re-solve, no rebuild), folds the overlay into fresh
// artifacts with Compact, and evaluates the compacted graph on the same
// fold as TestRecallGolden. The result must sit in the same pinned band
// — if localized re-solving were cutting corners (wrong clusters, stale
// reverse edges, lossy compaction), 21% of the users would carry
// degraded rows and recall would leave the band.
//
// Held-out users are the *last* ids so the overlay's contiguous id
// assignment reproduces the original ids, letting the full fold's test
// sets line up without any remapping.
func TestRecallDeltaInBand(t *testing.T) {
	cfg, ok := synth.ByName("ml1M")
	if !ok {
		t.Fatal("ml1M preset missing")
	}
	d := synth.Generate(cfg.Scale(0.05))
	folds := recommend.Split(d, 5, 42)
	f := folds[0]

	const heldOut = 64
	n := f.Train.NumUsers()
	if n <= heldOut {
		t.Fatalf("fold has only %d users", n)
	}
	base := dataset.New(f.Train.Name, f.Train.Profiles[:n-heldOut], f.Train.NumItems)
	gf, err := goldfinger.New(base, 1024, 0x60fd)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := core.Build(base, gf, core.Options{K: 30, Workers: 4, Seed: 42})

	ov, err := delta.Attach(g.Freeze(), base, gf, nil)
	if err != nil {
		t.Fatal(err)
	}
	for u := n - heldOut; u < n; u++ {
		res, err := ov.Upsert(-1, f.Train.Profiles[u])
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

	got := recommend.EvalRecallFrozen(f, cmp.Graph, 30, 4)
	t.Logf("incremental recall@30 = %.16f (pinned %.4f ± %.3f)", got, goldenRecall, goldenTolerance)
	if math.Abs(got-goldenRecall) > goldenTolerance {
		t.Fatalf("incremental recall@30 = %.4f, pinned %.4f ± %.3f — delta-grown graphs have drifted from rebuild quality",
			got, goldenRecall, goldenTolerance)
	}
}
