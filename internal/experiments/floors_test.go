package experiments

import (
	"strings"
	"testing"
)

type floored interface{ Floors() []string }

// Summaries that hold every floor, with values like a healthy run's.
func serveOK() *ServeSummary { return &ServeSummary{NeighborsSpeedup: 900, RecommendSpeedup: 8} }
func solveOK(kernel string) *SolveSummary {
	return &SolveSummary{Kernel: kernel, SolveSpeedup: 2.8, KernelSpeedup: 2, HyrecSpeedup: 1.4}
}
func httpOK() *HTTPSummary   { return &HTTPSummary{HotSwaps: 1, CacheHitRate: 0.8} }
func shardOK() *ShardSummary { return &ShardSummary{Shards: 2, Cores: 2, Speedup: 1.95} }
func loadOK() *LoadSummary {
	return &LoadSummary{Mapped: true, Identical: true, LoadSpeedup: 20, MMapHeapBytes: 400, CopyHeapBytes: 1000}
}
func updateOK() *UpdateSummary {
	return &UpdateSummary{Upserts: 64, UpsertP99MS: 1.3, RecallDelta: 0.0004}
}
func soakOK() *SoakSummary {
	return &SoakSummary{
		Requests: 1000, Fault413: 30, Fault400: 30, Fault500: 30, Fault503: 30, Shed429: 2800,
		HotSwaps: 31, CorruptReloads: 1, CorruptKeptServing: true, GoodReloadAfterCorrupt: true,
		MetricsReconciled: true, P99Micros: 12887,
	}
}

// TestLegacyFloors pins every floor clause: a summary with the field at
// its bound holds every floor, one step past the bound violates exactly
// that clause with a message naming the field and the bound. Booleans
// use 1 for true and 0 for false.
func TestLegacyFloors(t *testing.T) {
	cases := []struct {
		exp, field, bound string
		at, past          float64
		set               func(v float64) floored
	}{
		{"serve", "NeighborsAllocs", "want 0", 0, 0.0001, func(v float64) floored { s := serveOK(); s.NeighborsAllocs = v; return s }},
		{"serve", "NeighborsSpeedup", ">= 2", 2, 1.99, func(v float64) floored { s := serveOK(); s.NeighborsSpeedup = v; return s }},
		{"serve", "RecommendSpeedup", ">= 0.8", 0.8, 0.79, func(v float64) floored { s := serveOK(); s.RecommendSpeedup = v; return s }},

		{"solve avx2", "AllocsPerSolve", "want 0", 0, 1, func(v float64) floored { s := solveOK("avx2"); s.AllocsPerSolve = v; return s }},
		{"solve avx2", "SolveSpeedup (avx2 kernel)", ">= 2", 2, 1.99, func(v float64) floored { s := solveOK("avx2"); s.SolveSpeedup = v; return s }},
		{"solve avx2", "KernelSpeedup (avx2 kernel)", ">= 1.1", 1.1, 1.09, func(v float64) floored { s := solveOK("avx2"); s.KernelSpeedup = v; return s }},
		{"solve avx2", "HyrecSpeedup (avx2 kernel)", ">= 1.05", 1.05, 1.04, func(v float64) floored { s := solveOK("avx2"); s.HyrecSpeedup = v; return s }},
		{"solve avx2", "HyrecSpeedup (avx2 kernel)", ">= 1.05", 1.05, 0, func(v float64) floored { s := solveOK("avx2"); s.HyrecSpeedup = v; return s }},
		{"solve scalar", "AllocsPerSolve", "want 0", 0, 1, func(v float64) floored { s := solveOK("scalar"); s.AllocsPerSolve = v; return s }},
		{"solve scalar", "SolveSpeedup (scalar kernel)", ">= 1.3", 1.3, 1.29, func(v float64) floored { s := solveOK("scalar"); s.SolveSpeedup = v; return s }},

		{"http", "FailedReqs", "want 0", 0, 1, func(v float64) floored { s := httpOK(); s.FailedReqs = int(v); return s }},
		{"http", "MismatchedResps", "want 0", 0, 1, func(v float64) floored { s := httpOK(); s.MismatchedResps = int(v); return s }},
		{"http", "HotSwaps", ">= 1", 1, 0, func(v float64) floored { s := httpOK(); s.HotSwaps = int(v); return s }},
		{"http", "CacheHitAllocsPerQuery", "want 0", 0, 0.0001, func(v float64) floored { s := httpOK(); s.CacheHitAllocsPerQuery = v; return s }},
		{"http", "CacheHitAllocsPerQuery", "want 0", 0, -1, func(v float64) floored { s := httpOK(); s.CacheHitAllocsPerQuery = v; return s }},
		{"http", "CacheHitRate", ">= 0.2", 0.2, 0.19, func(v float64) floored { s := httpOK(); s.CacheHitRate = v; return s }},

		{"shard", "FailedReqs", "want 0", 0, 1, func(v float64) floored { s := shardOK(); s.FailedReqs = int(v); return s }},
		{"shard", "MismatchedResps", "want 0", 0, 1, func(v float64) floored { s := shardOK(); s.MismatchedResps = int(v); return s }},
		{"shard", "Partials", "want 0", 0, 1, func(v float64) floored { s := shardOK(); s.Partials = int(v); return s }},
		{"shard", "Speedup", ">= 1.8", 1.8, 1.79, func(v float64) floored { s := shardOK(); s.Speedup = v; return s }},
		{"shard 1 core", "Partials", "want 0", 0, 1, func(v float64) floored { s := shardOK(); s.Cores = 1; s.Speedup = 1; s.Partials = int(v); return s }},

		{"load", "Identical", "want true", 1, 0, func(v float64) floored { s := loadOK(); s.Identical = v == 1; return s }},
		{"load", "LoadSpeedup", ">= 5", 5, 4.99, func(v float64) floored { s := loadOK(); s.LoadSpeedup = v; return s }},
		{"load", "LoadSpeedup", ">= 5", 5, 0, func(v float64) floored { s := loadOK(); s.LoadSpeedup = v; return s }},
		{"load", "MMapHeapBytes", "CopyHeapBytes/2 = 500", 500, 501, func(v float64) floored { s := loadOK(); s.MMapHeapBytes = int64(v); return s }},
		{"load unmapped", "Identical", "want true", 1, 0, func(v float64) floored {
			s := loadOK()
			s.Mapped, s.LoadSpeedup, s.MMapHeapBytes = false, 0, 0
			s.Identical = v == 1
			return s
		}},

		{"update", "Upserts", ">= 1", 1, 0, func(v float64) floored { s := updateOK(); s.Upserts = int(v); return s }},
		{"update", "UpsertP99MS", "<= 1000", 1000, 1000.01, func(v float64) floored { s := updateOK(); s.UpsertP99MS = v; return s }},
		{"update", "MergedReadAllocs", "want 0", 0, 0.0001, func(v float64) floored { s := updateOK(); s.MergedReadAllocs = v; return s }},
		{"update", "RecallDelta", "<= 0.005", 0.005, 0.0051, func(v float64) floored { s := updateOK(); s.RecallDelta = v; return s }},

		{"soak", "Requests", ">= 1", 1, 0, func(v float64) floored { s := soakOK(); s.Requests = int(v); return s }},
		{"soak", "FailedReqs", "want 0", 0, 1, func(v float64) floored { s := soakOK(); s.FailedReqs = int(v); return s }},
		{"soak", "MismatchedResps", "want 0", 0, 1, func(v float64) floored { s := soakOK(); s.MismatchedResps = int(v); return s }},
		{"soak", "FaultUnexpected", "want 0", 0, 1, func(v float64) floored { s := soakOK(); s.FaultUnexpected = int(v); return s }},
		{"soak", "Restarts", "want 0", 0, 1, func(v float64) floored { s := soakOK(); s.Restarts = int(v); return s }},
		{"soak", "Fault413", ">= 1", 1, 0, func(v float64) floored { s := soakOK(); s.Fault413 = int(v); return s }},
		{"soak", "Fault400", ">= 1", 1, 0, func(v float64) floored { s := soakOK(); s.Fault400 = int(v); return s }},
		{"soak", "Fault500", ">= 1", 1, 0, func(v float64) floored { s := soakOK(); s.Fault500 = int(v); return s }},
		{"soak", "Fault503", ">= 1", 1, 0, func(v float64) floored { s := soakOK(); s.Fault503 = int(v); return s }},
		{"soak", "Shed429", ">= 1", 1, 0, func(v float64) floored { s := soakOK(); s.Shed429 = int(v); return s }},
		{"soak", "HotSwaps", ">= 1", 1, 0, func(v float64) floored { s := soakOK(); s.HotSwaps = int(v); return s }},
		{"soak", "CorruptReloads", ">= 1", 1, 0, func(v float64) floored { s := soakOK(); s.CorruptReloads = int(v); return s }},
		{"soak", "CorruptKeptServing", "want true", 1, 0, func(v float64) floored { s := soakOK(); s.CorruptKeptServing = v == 1; return s }},
		{"soak", "GoodReloadAfterCorrupt", "want true", 1, 0, func(v float64) floored { s := soakOK(); s.GoodReloadAfterCorrupt = v == 1; return s }},
		{"soak", "MetricsReconciled", "want true", 1, 0, func(v float64) floored { s := soakOK(); s.MetricsReconciled = v == 1; return s }},
		{"soak", "P99Micros", "<= 1e+06", 1e6, 1e6 + 1, func(v float64) floored { s := soakOK(); s.P99Micros = v; return s }},
	}
	for _, c := range cases {
		if got := c.set(c.at).Floors(); len(got) != 0 {
			t.Errorf("%s: %s = %v (at the bound) violates %q", c.exp, c.field, c.at, got)
		}
		got := c.set(c.past).Floors()
		if len(got) != 1 {
			t.Errorf("%s: %s = %v (past the bound) violates %q, want exactly one floor", c.exp, c.field, c.past, got)
			continue
		}
		if !strings.Contains(got[0], c.field) || !strings.Contains(got[0], c.bound) {
			t.Errorf("%s: %s = %v: message %q does not name the field and bound %q", c.exp, c.field, c.past, got[0], c.bound)
		}
	}

	// Floors that are not judged: the vector-kernel floors under the
	// scalar kernel, the scaling floor with fewer cores than shards, and
	// the mmap floors where the mmap path is unavailable.
	notJudged := map[string]floored{
		"scalar kernel":  &SolveSummary{Kernel: "scalar", SolveSpeedup: 1.5, KernelSpeedup: 1},
		"cores < shards": &ShardSummary{Shards: 2, Cores: 1, Speedup: 1.0},
		"unmapped":       &LoadSummary{Identical: true, MMapHeapBytes: 900, CopyHeapBytes: 1000},
	}
	for name, s := range notJudged {
		if got := s.Floors(); len(got) != 0 {
			t.Errorf("%s: %q judged, want only the unconditional floors", name, got)
		}
	}
}
