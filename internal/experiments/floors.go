package experiments

import "fmt"

// floors collects the bounds a summary violates, one message per clause
// naming the field, its value and the bound. Every comparison is written
// so that NaN fails it, and an unmeasured ratio (0) fails its floor.
type floors []string

func (f *floors) check(ok bool, format string, args ...any) {
	if !ok {
		*f = append(*f, fmt.Sprintf(format, args...))
	}
}

func (f *floors) atLeast(field string, got, bound float64) {
	f.check(got >= bound, "%s = %.6g, want >= %v", field, got, bound)
}

func (f *floors) atMost(field string, got, bound float64) {
	f.check(got <= bound, "%s = %.6g, want <= %v", field, got, bound)
}

func (f *floors) zero(field string, got float64) {
	f.check(got == 0, "%s = %.6g, want 0", field, got)
}

func (f *floors) holds(field string, got bool) {
	f.check(got, "%s = false, want true", field)
}

// Floors returns the violated bounds of a solve run. The blocked solver
// allocates nothing in steady state. Its floor over the pair-at-a-time
// reference is kernel-aware: 2.0× under a vector count kernel, the point
// of the SIMD layer, and the pre-SIMD 1.3× under the scalar one. Under a
// vector kernel the kernel alone must be worth 1.1×, and Hyrec, which is
// candidate-scatter bound so only its in-row popcounts vectorize, 1.05×.
func (s *SolveSummary) Floors() []string {
	var f floors
	f.zero("AllocsPerSolve", s.AllocsPerSolve)
	if s.Kernel == "scalar" {
		f.atLeast("SolveSpeedup (scalar kernel)", s.SolveSpeedup, 1.3)
		return f
	}
	kernel := " (" + s.Kernel + " kernel)"
	f.atLeast("SolveSpeedup"+kernel, s.SolveSpeedup, 2.0)
	f.atLeast("KernelSpeedup"+kernel, s.KernelSpeedup, 1.1)
	f.atLeast("HyrecSpeedup"+kernel, s.HyrecSpeedup, 1.05)
	return f
}

// Floors returns the violated bounds of a shard run: no routed request
// fails, differs from the single-process body or degrades to partial.
// The 1.8× scaling floor is judged only when Cores >= Shards; with fewer
// cores the shard workers time-slice and 1.0× is the physical ceiling.
func (s *ShardSummary) Floors() []string {
	var f floors
	f.zero("FailedReqs", float64(s.FailedReqs))
	f.zero("MismatchedResps", float64(s.MismatchedResps))
	f.zero("Partials", float64(s.Partials))
	if s.Cores >= s.Shards {
		f.atLeast("Speedup", s.Speedup, 1.8)
	}
	return f
}

// Floors returns the violated bounds of a load run: both load paths
// decode bitwise-identical structures answering identical queries. Where
// the mmap path exists, it reaches the first query at least 5× sooner
// than the copy decode and holds at most half its heap per replica.
func (s *LoadSummary) Floors() []string {
	var f floors
	f.holds("Identical", s.Identical)
	if s.Mapped {
		f.atLeast("LoadSpeedup", s.LoadSpeedup, 5)
		f.check(2*s.MMapHeapBytes <= s.CopyHeapBytes, "MMapHeapBytes = %d, want <= CopyHeapBytes/2 = %v",
			s.MMapHeapBytes, float64(s.CopyHeapBytes)/2)
	}
	return f
}

// Floors returns the violated hardening invariants of a soak: requests
// were answered and none failed or diverged, every fault probe got its
// documented status and every fault class was provoked, the daemon never
// died, a hot swap completed, the corrupt reload ran with the old epoch
// serving and a later good reload succeeding, /metrics reconciled with
// the harness's accounting, and p99 stayed under one second (only a
// pathological stall trips it on a race-enabled shared runner).
func (s *SoakSummary) Floors() []string {
	var f floors
	f.atLeast("Requests", float64(s.Requests), 1)
	f.zero("FailedReqs", float64(s.FailedReqs))
	f.zero("MismatchedResps", float64(s.MismatchedResps))
	f.zero("FaultUnexpected", float64(s.FaultUnexpected))
	f.zero("Restarts", float64(s.Restarts))
	f.atLeast("Fault413", float64(s.Fault413), 1)
	f.atLeast("Fault400", float64(s.Fault400), 1)
	f.atLeast("Fault500", float64(s.Fault500), 1)
	f.atLeast("Fault503", float64(s.Fault503), 1)
	f.atLeast("Shed429", float64(s.Shed429), 1)
	f.atLeast("HotSwaps", float64(s.HotSwaps), 1)
	f.atLeast("CorruptReloads", float64(s.CorruptReloads), 1)
	f.holds("CorruptKeptServing", s.CorruptKeptServing)
	f.holds("GoodReloadAfterCorrupt", s.GoodReloadAfterCorrupt)
	f.check(s.MetricsReconciled, "MetricsReconciled = false, want true: %s", s.MetricsDiff)
	f.atMost("P99Micros", s.P99Micros, 1e6)
	return f
}
