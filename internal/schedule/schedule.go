// Package schedule implements the work scheduling of C²'s step 2
// (§II-F) and the parallel loops around it. Queue is the step's
// synchronized queue, handing the solver pool the largest available
// cluster first; Run is the one fork-join over an index range that
// every other parallel loop (builders, freezing, snapshot checks,
// recall evaluation) runs on.
package schedule

import (
	"sort"
	"sync"
	"sync/atomic"
)

// LargestFirst returns job indices ordered by decreasing sizes[i]
// (ties broken by index for determinism).
func LargestFirst(sizes []int) []int {
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if sizes[ia] != sizes[ib] {
			return sizes[ia] > sizes[ib]
		}
		return ia < ib
	})
	return order
}

// Run calls fn(worker, i) once for every i in [0, n) and returns when
// every call has returned. workers is clamped to [1, n]. With one
// worker Run is a plain loop on the caller, in index order; otherwise
// the caller is worker 0 and workers−1 goroutines join it, each
// claiming the next index from a shared atomic cursor, so every worker
// sees increasing indices. worker lies in [0, workers), so callers can
// keep per-worker scratch without synchronization.
func Run(workers, n int, fn func(worker, i int)) {
	workers = max(min(workers, n), 1)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var cursor atomic.Int64
	work := func(worker int) {
		for i := int(cursor.Add(1)) - 1; i < n; i = int(cursor.Add(1)) - 1 {
			fn(worker, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}
