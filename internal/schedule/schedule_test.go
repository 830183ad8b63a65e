package schedule

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestLargestFirstOrdering(t *testing.T) {
	sizes := []int{3, 9, 1, 9, 5}
	order := LargestFirst(sizes)
	want := []int{1, 3, 4, 0, 2} // 9(idx1), 9(idx3 — tie by index), 5, 3, 1
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order = %v, want %v", order, want)
			break
		}
	}
}

func TestLargestFirstIsPermutation(t *testing.T) {
	f := func(raw []uint8) bool {
		sizes := make([]int, len(raw))
		for i, v := range raw {
			sizes[i] = int(v)
		}
		order := LargestFirst(sizes)
		if len(order) != len(sizes) {
			return false
		}
		seen := make(map[int]bool)
		for i, idx := range order {
			if idx < 0 || idx >= len(sizes) || seen[idx] {
				return false
			}
			seen[idx] = true
			if i > 0 && sizes[order[i-1]] < sizes[idx] {
				return false // not decreasing
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRunExecutesEveryJobExactlyOnce(t *testing.T) {
	const n = 500
	for _, workers := range []int{0, 1, 2, 8, n + 5} {
		counts := make([]atomic.Int32, n)
		Run(workers, n, func(_, i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

// TestRunClampsWorkers: worker ids stay below min(workers, n), and a
// worker count below 1 runs as one worker. The first calls wait (up to
// a second) until that many are in flight, so every worker Run starts
// takes an index.
func TestRunClampsWorkers(t *testing.T) {
	for _, c := range []struct{ workers, n int }{{-3, 5}, {0, 5}, {1, 5}, {2, 500}, {8, 3}, {505, 500}} {
		limit := max(min(c.workers, c.n), 1)
		var started atomic.Int32
		deadline := time.Now().Add(time.Second)
		Run(c.workers, c.n, func(w, _ int) {
			started.Add(1)
			for int(started.Load()) < limit && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if w < 0 || w >= limit {
				t.Errorf("workers=%d n=%d: worker id %d, want below %d", c.workers, c.n, w, limit)
			}
		})
	}
}

func TestRunEachWorkerSeesIncreasingIndices(t *testing.T) {
	const workers = 4
	for trial := 0; trial < 20; trial++ {
		var last [workers]int // per-worker state, like callers' scratch
		for w := range last {
			last[w] = -1
		}
		Run(workers, 1000, func(w, i int) {
			if i <= last[w] {
				t.Errorf("worker %d received %d after %d", w, i, last[w])
			}
			last[w] = i
		})
	}
}

func TestRunZeroJobs(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		Run(workers, 0, func(int, int) { t.Errorf("workers=%d: fn called with n = 0", workers) })
	}
}

func TestRunSingleWorkerPreservesOrder(t *testing.T) {
	var got []int // no lock: one worker runs on the calling goroutine
	Run(1, 6, func(w, i int) {
		if w != 0 {
			t.Errorf("worker id %d, want 0", w)
		}
		got = append(got, i)
	})
	for i := range 6 {
		if i >= len(got) || got[i] != i {
			t.Fatalf("single worker order = %v, want 0..5", got)
		}
	}
}

// TestRunConcurrent drains a largest-first order the way lsh does,
// indexing the order inside fn.
func TestRunConcurrent(t *testing.T) {
	sizes := make([]int, 64)
	for i := range sizes {
		sizes[i] = i
	}
	order := LargestFirst(sizes)
	var total atomic.Int64
	Run(4, len(order), func(_, i int) {
		total.Add(int64(sizes[order[i]]))
	})
	want := int64(63 * 64 / 2)
	if total.Load() != want {
		t.Errorf("total = %d, want %d", total.Load(), want)
	}
}
