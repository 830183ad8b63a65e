package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"c2knn/internal/server"
)

// tinyEnv keeps experiment tests fast: minimum populations, 2 folds.
func tinyEnv() *Env {
	return &Env{Scale: 0.02, Workers: 2, K: 10, Folds: 2, Seed: 7, MinUsers: 400}
}

func TestPrepareCachesDatasets(t *testing.T) {
	e := tinyEnv()
	a, err := e.Prepare("ml1M")
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Prepare("ml1M")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Prepare should cache per dataset")
	}
	if _, err := e.Prepare("nope"); err == nil {
		t.Error("unknown preset should fail")
	}
}

func TestExactGraphLazy(t *testing.T) {
	e := tinyEnv()
	p := e.MustPrepare("ml1M")
	if p.ExactTime() != 0 {
		t.Error("exact graph computed eagerly")
	}
	g := p.Exact()
	if g.NumUsers() != p.Data.NumUsers() {
		t.Error("exact graph has wrong size")
	}
	if p.ExactTime() <= 0 {
		t.Error("exact time not recorded")
	}
	if p.Exact() != g {
		t.Error("exact graph not cached")
	}
}

func TestC2Params(t *testing.T) {
	e := &Env{Scale: 1}
	for _, c := range []struct {
		name    string
		b, t, n int
	}{
		{"ml1M", 4096, 8, 2000},
		{"ml10M", 4096, 8, 2000},
		{"ml20M", 4096, 8, 4000},
		{"AM", 4096, 8, 2000},
		{"DBLP", 4096, 15, 2000},
		{"GW", 4096, 15, 2000},
	} {
		b, tt, n := e.C2Params(c.name)
		if b != c.b || tt != c.t || n != c.n {
			t.Errorf("%s: params (%d,%d,%d), want (%d,%d,%d)", c.name, b, tt, n, c.b, c.t, c.n)
		}
	}
	// At reduced scale N shrinks, b and t do not.
	es := &Env{Scale: 0.1}
	b, tt, n := es.C2Params("ml10M")
	if b != 4096 || tt != 8 {
		t.Errorf("scaled params changed b/t: %d/%d", b, tt)
	}
	if n >= 2000 || n < 64 {
		t.Errorf("scaled N = %d out of range", n)
	}
}

func TestEffScaleFloorsSmallDatasets(t *testing.T) {
	e := &Env{Scale: 0.05}
	if got := e.EffScale("ml20M"); got != 0.05 {
		t.Errorf("ml20M eff scale = %v, want 0.05", got)
	}
	if got := e.EffScale("DBLP"); got <= 0.05 || got > 1 {
		t.Errorf("DBLP eff scale = %v, want floored above 0.05", got)
	}
	e1 := &Env{Scale: 1}
	if got := e1.EffScale("DBLP"); got != 1 {
		t.Errorf("full-scale eff = %v, want 1", got)
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	e := tinyEnv()
	e.Out = &buf
	stats, err := e.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 6 {
		t.Fatalf("got %d datasets, want 6", len(stats))
	}
	if !strings.Contains(buf.String(), "ml10M") {
		t.Error("report missing dataset rows")
	}
}

func TestTable2SingleDataset(t *testing.T) {
	e := tinyEnv()
	rows, err := e.Table2([]string{"ml1M"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4 algorithms", len(rows))
	}
	algos := map[string]bool{}
	for _, r := range rows {
		algos[r.Algo] = true
		if r.Time <= 0 {
			t.Errorf("%s: non-positive time", r.Algo)
		}
		if r.Quality <= 0 || r.Quality > 1.2 {
			t.Errorf("%s: quality %v out of range", r.Algo, r.Quality)
		}
		if r.Sims <= 0 {
			t.Errorf("%s: no similarity computations recorded", r.Algo)
		}
	}
	for _, want := range []string{"Hyrec", "NNDescent", "LSH", "C2"} {
		if !algos[want] {
			t.Errorf("missing algorithm %s", want)
		}
	}
}

func TestTable3SingleDataset(t *testing.T) {
	e := tinyEnv()
	rows, err := e.Table3([]string{"ml1M"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.BruteForce <= 0 {
		t.Error("brute-force recall is zero")
	}
	if r.C2 <= 0 {
		t.Error("C2 recall is zero")
	}
	if r.Delta != r.C2-r.BruteForce {
		t.Error("delta inconsistent")
	}
}

func TestTheoryExperiment(t *testing.T) {
	e := tinyEnv()
	res, err := e.Theory()
	if err != nil {
		t.Fatal(err)
	}
	if !res.WithinBounds {
		t.Errorf("empirical collision probability %.4f outside the paper interval [%.3f, %.3f] around J=%.3f",
			res.Empirical, res.Below, res.Above, res.Jaccard)
	}
	if res.DensityOK < res.Prob-0.01 {
		t.Errorf("density concentration %.4f below bound %.4f", res.DensityOK, res.Prob)
	}
	if res.Jaccard != 0.25 {
		t.Errorf("constructed J = %v, want 0.25", res.Jaccard)
	}
}

func TestFig8Shapes(t *testing.T) {
	e := tinyEnv()
	rows, err := e.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	// Find raw and N=500 rows for ml10M; splitting must shrink the max.
	var raw, split *Fig8Row
	for i := range rows {
		r := &rows[i]
		if strings.HasPrefix(r.Dataset, "ml10M") || r.Dataset == "ml10M" {
			switch r.N {
			case 0:
				raw = r
			case 500:
				split = r
			}
		}
	}
	if raw == nil || split == nil {
		t.Fatal("missing ml10M rows")
	}
	if len(raw.Top) == 0 || len(split.Top) == 0 {
		t.Fatal("empty top sizes")
	}
	if split.Top[0] >= raw.Top[0] {
		t.Errorf("splitting did not shrink the biggest cluster: %d vs raw %d",
			split.Top[0], raw.Top[0])
	}
	for i := 1; i < len(raw.Top); i++ {
		if raw.Top[i] > raw.Top[i-1] {
			t.Error("top sizes not sorted decreasing")
			break
		}
	}
}

// TestAblationsRun exercises the ablation runner end to end (small data).
func TestAblationsRun(t *testing.T) {
	e := tinyEnv()
	rows, err := e.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 6 {
		t.Fatalf("got %d ablation rows", len(rows))
	}
	for _, r := range rows {
		if r.Quality <= 0 {
			t.Errorf("%s: quality %v", r.Variant, r.Quality)
		}
	}
}

// TestServeHTTPRun drives the daemon load experiment end to end on a
// tiny preset: the correctness floors CI enforces on the serve-http
// experiment must hold here too — no failed or mismatched responses through the
// mid-load hot swap, and an allocation-free cache-hit path.
func TestServeHTTPRun(t *testing.T) {
	e := tinyEnv()
	sum, err := e.ServeHTTP()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Requests == 0 || sum.Queries < sum.Requests {
		t.Fatalf("degenerate load: %+v", sum)
	}
	if sum.FailedReqs != 0 {
		t.Errorf("%d failed requests during the load", sum.FailedReqs)
	}
	if sum.MismatchedResps != 0 {
		t.Errorf("%d responses diverged from Index.Recommend", sum.MismatchedResps)
	}
	if sum.HotSwaps < 1 {
		t.Errorf("hot swap did not complete (%d)", sum.HotSwaps)
	}
	if sum.CacheHitAllocsPerQuery != 0 && !server.RaceEnabled {
		t.Errorf("cache-hit path allocates %v per query, want 0", sum.CacheHitAllocsPerQuery)
	}
	if sum.CacheHitRate <= 0 {
		t.Errorf("cache hit rate %v after a repeating load, want > 0", sum.CacheHitRate)
	}
	if sum.QPS <= 0 || sum.P99Micros <= 0 {
		t.Errorf("degenerate throughput/latency: %+v", sum)
	}
}

// TestSoakRun drives the fault-injection soak end to end on a tiny
// preset with a short window: every invariant the CI soak enforces
// must hold here too — zero failed/mismatched
// well-formed requests, every fault class provoked and answered with
// its documented status, the corrupt-reload runbook survived, and the
// /metrics counters reconciled exactly with the harness accounting.
func TestSoakRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second soak")
	}
	e := tinyEnv()
	sum, err := e.Soak(SoakOptions{Duration: 2 * time.Second, Clients: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Requests == 0 {
		t.Fatal("no well-formed requests completed")
	}
	if sum.FailedReqs != 0 {
		t.Errorf("%d well-formed requests failed", sum.FailedReqs)
	}
	if sum.MismatchedResps != 0 {
		t.Errorf("%d responses diverged from Index.Recommend", sum.MismatchedResps)
	}
	if sum.FaultUnexpected != 0 {
		t.Errorf("%d fault probes got the wrong status", sum.FaultUnexpected)
	}
	if sum.Restarts != 0 {
		t.Errorf("daemon died %d time(s)", sum.Restarts)
	}
	if sum.Fault413 < 1 || sum.Fault400 < 1 || sum.Fault500 < 1 || sum.Fault503 < 1 || sum.Shed429 < 1 {
		t.Errorf("fault classes missing: 413×%d 400×%d 500×%d 503×%d 429×%d",
			sum.Fault413, sum.Fault400, sum.Fault500, sum.Fault503, sum.Shed429)
	}
	if sum.LorisConns < 1 {
		t.Errorf("no slow-loris connection was attempted")
	}
	if sum.HotSwaps < 1 {
		t.Errorf("no hot swap completed under load (%d)", sum.HotSwaps)
	}
	if sum.CorruptReloads < 1 || !sum.CorruptKeptServing || !sum.GoodReloadAfterCorrupt {
		t.Errorf("corrupt-reload runbook failed: reloads=%d kept=%v recovered=%v",
			sum.CorruptReloads, sum.CorruptKeptServing, sum.GoodReloadAfterCorrupt)
	}
	if !sum.MetricsReconciled {
		t.Errorf("/metrics drifted from harness accounting: %s", sum.MetricsDiff)
	}
}

// TestShardRun drives the sharded-serving experiment end to end on a
// tiny preset: the correctness invariants the CI shard run enforces
// must hold here too — zero failed requests, every
// routed response byte-identical to the single-process daemon's, and
// zero partial responses while all replicas are up. Speedup is only
// checked for sanity (> 0): it is hardware-dependent and judged
// conditionally by ShardSummary.Floors, not here.
func TestShardRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second serving comparison")
	}
	e := tinyEnv()
	sum, err := e.Shard()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if sum.FailedReqs != 0 {
		t.Errorf("%d routed requests failed", sum.FailedReqs)
	}
	if sum.MismatchedResps != 0 {
		t.Errorf("%d routed responses were not byte-identical to the single-process daemon", sum.MismatchedResps)
	}
	if sum.Partials != 0 {
		t.Errorf("%d responses degraded to partial with all replicas healthy", sum.Partials)
	}
	if sum.Speedup <= 0 || sum.SingleQPS <= 0 || sum.RoutedQPS <= 0 {
		t.Errorf("degenerate throughput record: single %.2f, routed %.2f, speedup %.2f",
			sum.SingleQPS, sum.RoutedQPS, sum.Speedup)
	}
	if sum.Shards != 2 || sum.Workers != 1 {
		t.Errorf("experiment shape drifted: %d shards, %d workers per process", sum.Shards, sum.Workers)
	}
}
