package c2knn

import (
	"runtime"

	"c2knn/internal/recommend"
)

// Fold is one train/test split of a cross-validation; see SplitFolds.
type Fold = recommend.Fold

// SplitFolds produces a k-fold cross-validation of d: fold i holds out
// the i-th part of every user's (shuffled) profile.
func SplitFolds(d *Dataset, folds int, seed int64) []Fold {
	return recommend.Split(d, folds, seed)
}

// EvalRecall recommends n items to every user of the fold using g and
// returns the mean recall over users with held-out items. n ≤ 0
// recommends nothing, so the recall is 0. g is frozen once and
// evaluated on the CSR serving path; use EvalRecallFrozen to reuse an
// already-frozen graph.
func EvalRecall(f Fold, g *Graph, n int) float64 {
	return recommend.EvalRecall(f, g, n, runtime.GOMAXPROCS(0))
}

// EvalRecallFrozen is EvalRecall over a frozen graph (e.g. one loaded
// from a snapshot), with the same n ≤ 0 rule: per-worker pooled
// scratch, no per-query maps.
func EvalRecallFrozen(f Fold, g *FrozenGraph, n int) float64 {
	return recommend.EvalRecallFrozen(f, g, n, runtime.GOMAXPROCS(0))
}
