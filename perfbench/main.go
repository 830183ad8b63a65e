// Command perfbench is the repository's benchmark: one command that runs
// a workload through the program's public surface (c2knn, internal/core,
// internal/persist, internal/server), checks every answer, and prints
// each end-to-end metric by name with its unit; with -trace 1 it prints
// the per-layer metrics instead, plus each end-to-end metric's split
// into layer self times and an unattributed residual.
//
//	go run . -workload build -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is the result object; the full record
// (context header, metrics, attribution, spans) is written under -out.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// profile is one workload: an input and how a run divides its time
// between the three phases every run goes through (repeated builds, the
// read-only daemon, the writable daemon).
type profile struct {
	why    string
	preset string
	// holdout users are generated beyond the preset's count and kept out
	// of the base; the freshness phase upserts them as new users.
	holdout int
	// Shares of -seconds per phase; the serve share splits evenly into
	// a closed-loop and an open-loop half.
	buildShare, serveShare, freshShare float64
	minBuilds                          int
	// writable selects the daemon whose set-up setup_s reports: the
	// writable one (with the delta overlay attached) or the read-only one.
	writable bool
}

// setupReps is how many times the reported daemon is set up per run;
// setup_s is their median.
const setupReps = 25

var profiles = map[string]profile{
	"build": {
		why:    "ml10M at paper scale with the paper's parameters: solve-bound, so kernel, solver, merge and clustering changes show in build_s",
		preset: "ml10M", holdout: 400,
		buildShare: 0.4, serveShare: 0.45, freshShare: 0.15, minBuilds: 3,
	},
	"serve": {
		why:    "read-only daemon over the ml10M snapshot with Zipf-skewed users: the response cache absorbs the hot head, misses pay recommend scoring",
		preset: "ml10M", holdout: 400,
		buildShare: 0, serveShare: 0.75, freshShare: 0.25, minBuilds: 1,
	},
	"freshness": {
		why:    "writable ml1M daemon: upserts and compactions invalidate the cache, so reads miss and go through the delta merged view",
		preset: "ml1M", holdout: 1000,
		buildShare: 0.15, serveShare: 0.3, freshShare: 0.55, minBuilds: 3,
		writable: true,
	},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    float64 // dataset scale; 0 means 1, paper scale (the smoke test runs smaller)
	out      string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: build, serve or freshness")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: inputs, traces and samples derive from it")
	flag.IntVar(&o.seconds, "seconds", 30, "seconds one run measures for")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics and attribution")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for run records and scratch files")
	flag.Parse()
	o.trace = trace == 1
	if _, ok := profiles[o.workload]; !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload build|serve|freshness, -seconds ≥ 1, -trace 0|1")
		os.Exit(2)
	}
	rec, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record is the full run record written under -out.
type Record struct {
	Header      Header         `json:"header"`
	Result      Result         `json:"result"`
	Failures    []string       `json:"failures,omitempty"`
	Diagnostics map[string]any `json:"diagnostics"`
	Attribution []Attribution  `json:"attribution,omitempty"`
	Spans       []Span         `json:"spans,omitempty"`
}

// failures counts operations attempted and failed across a run; a wrong
// answer is a failed operation.
type failures struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	msgs              []string
}

func (f *failures) attempt() { f.attempted.Add(1) }

func (f *failures) fail(format string, args ...any) {
	f.failed.Add(1)
	f.mu.Lock()
	if len(f.msgs) < 20 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
	f.mu.Unlock()
}

// gated lists the end-to-end metrics BENCHMARK.json bounds. One rule
// chose them: over ten seeds, a metric's spread (the distance between its
// quartiles over its median) stayed at or below its 0.25 bound on every
// workload, in each of two sets of runs on a 2-vCPU VM. setup_s is gated
// regardless. The latencies failed the rule there (host noise meets
// open-loop queueing on two connections); they are still measured and
// attributed, and recorded under diagnostics.unsteady.
var gated = []string{
	"build_s", "build_quality", "setup_s",
	"serve_qps", "serve_heap_mb", "fresh_quality",
}

// Quality floors: a build or compaction whose Eq. 2 estimate falls below
// them is a wrong output, not a slow one.
const (
	minBuildQuality = 0.8
	minFreshQuality = 0.8
)

func run(o options, stdout io.Writer) (*Record, error) {
	if o.scale == 0 {
		o.scale = 1
	}
	p := profiles[o.workload]
	workers := runtime.GOMAXPROCS(0)
	total := time.Duration(o.seconds) * time.Second
	share := func(f float64) time.Duration { return time.Duration(f * float64(total)) }
	rng := rand.New(rand.NewSource(o.seed))
	tr := newTracer(o.trace)
	fails := &failures{}

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.out, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	holdout := max(20, int(float64(p.holdout)*min(o.scale, 1)))
	in, err := makeInputs(p.preset, o.scale, holdout, o.seed)
	if err != nil {
		return nil, err
	}
	hdr := newHeader(o, p, in, workers)
	printJSON(stdout, map[string]any{"header": hdr})

	// Phase 1: repeated builds; the last snapshot is served below.
	b, err := runBuild(in, o.seed, share(p.buildShare), p.minBuilds, dir, tr, rng, fails)
	if err != nil {
		return nil, err
	}
	if b.quality < minBuildQuality {
		fails.fail("build quality %.4f below %.2f", b.quality, minBuildQuality)
	}
	// Hand the builds' memory back to the OS now, so that the runtime's
	// background scavenger does not do it during the daemons' phases.
	debug.FreeOSMemory()
	freshPath := filepath.Join(dir, "fresh.c2")
	if err := copyFile(b.snapPath, freshPath); err != nil {
		return nil, err
	}

	// Phase 2: the read-only daemon.
	reps, wreps := setupReps, 1
	if p.writable {
		reps, wreps = 1, setupReps
	}
	half := share(p.serveShare / 2)
	strace := newServeTrace(rng, in.base.NumUsers(), in.zipfS, half, half, o.trace)
	d, roSetups, heapBefore, err := setUp(b.snapPath, false, reps, tr, "setup", fails)
	if err != nil {
		return nil, err
	}
	heapSetup := heapInUse()
	s := runServe(d, strace, heapBefore, half, half, workers, tr, fails)
	roStats := d.statsz()
	d.stop()

	// Phase 3: the writable daemon, read at the same share of the
	// capacity the read-only one showed.
	d, rwSetups, _, err := setUp(freshPath, true, wreps, tr, "setup.writable", fails)
	if err != nil {
		return nil, err
	}
	f, ops := runFresh(d, in, rng, s.openRate, share(p.freshShare), workers, tr, fails)
	d.stop()
	f.quality, err = checkFinal(freshPath, in, ops, rng, fails)
	if err != nil {
		return nil, err
	}
	if f.quality < minFreshQuality {
		fails.fail("compacted graph quality %.4f below %.2f", f.quality, minFreshQuality)
	}

	setups := roSetups
	if p.writable {
		setups = rwSetups
	}
	setupS := make([]float64, len(setups))
	for i, st := range setups {
		setupS[i] = st.total.Seconds()
	}
	e2e := map[string]Metric{
		"build_s":           {median(b.times), "s"},
		"build_quality":     {b.quality, "ratio"},
		"setup_s":           {median(setupS), "s"},
		"serve_p50_ms":      {s.p50, "ms"},
		"serve_p99_ms":      {s.p99, "ms"},
		"serve_qps":         {s.qps, "req/s"},
		"serve_heap_mb":     {s.heapMB, "MB"},
		"upsert_p50_ms":     {windowed(f.upsertMS, upsertWindows, 0.5), "ms"},
		"upsert_p99_ms":     {windowed(f.upsertMS, upsertWindows, 0.99), "ms"},
		"fresh_read_p50_ms": {windowed(f.readMS, latencyWindows, 0.5), "ms"},
		"fresh_read_p99_ms": {windowed(f.readMS, latencyWindows, 0.99), "ms"},
		"fresh_quality":     {f.quality, "ratio"},
	}
	rec := &Record{
		Header: hdr,
		Diagnostics: map[string]any{
			"builds":              len(b.times),
			"build_times_s":       b.times,
			"setup_times_s":       setupS,
			"serve_open_requests": len(s.open),
			"serve_open_rate":     s.openRate,
			"serve_closed":        len(s.closed),
			"serve_cache_hits":    roStats.CacheHits,
			"serve_shed":          roStats.Shed,
			"serve_timeouts":      roStats.DeadlineExpired,
			"upserts":             len(f.upsertMS),
			"upsert_rate":         f.writeRate,
			"fresh_reads":         len(f.readMS),
			"compactions":         f.compactions,
			"core_hyreced":        b.stats.Hyreced,
			"core_skipped":        b.stats.Skipped,
		},
	}

	if o.trace {
		layer := map[string]Metric{}
		cs, fst := clusterStandalone(in, o.seed)
		st := b.stats
		layer["goldfinger.fingerprint_s"] = Metric{median(b.fpS), "s"}
		layer["frh.cluster_s"] = Metric{cs.Seconds(), "s"}
		layer["frh.clusters"] = Metric{float64(fst.Clusters), "count"}
		layer["frh.splits"] = Metric{float64(fst.Splits), "count"}
		layer["frh.max_cluster"] = Metric{float64(fst.MaxCluster), "count"}
		layer["core.overlap_s"] = Metric{st.OverlapTime.Seconds(), "s"}
		layer["core.solve_wait_s"] = Metric{(st.TotalTime - st.KNNTime).Seconds(), "s"}
		layer["schedule.max_queue_depth"] = Metric{float64(st.MaxQueueDepth), "count"}
		layer["core.solve_s"] = Metric{st.KNNTime.Seconds(), "s"}
		layer["core.bruteforced"] = Metric{float64(st.BruteForced), "count"}
		layer["similarity.pairs"] = Metric{float64(b.pairs), "count"}
		if !hdr.flagged("similarity.ns_per_pair") {
			layer["similarity.ns_per_pair"] = Metric{float64(st.KNNTime.Nanoseconds()) * float64(workers) / float64(b.pairs), "ns"}
		}
		layer["knng.freeze_s"] = Metric{median(b.freezeS), "s"}
		layer["persist.write_s"] = Metric{median(b.writeS), "s"}
		layer["persist.snapshot_mb"] = Metric{b.snapMB, "MB"}
		loads := make([]float64, len(roSetups))
		for i, st := range roSetups {
			loads[i] = ms(st.load)
		}
		layer["persist.load_ms"] = Metric{median(loads), "ms"}
		for _, k := range []string{"recommend", "topk", "neighbors", "batch"} {
			layer["index."+k+"_us"] = Metric{s.indexUS[k], "us"}
		}
		layer["server.self_us"] = Metric{s.serverUS, "us"}
		layer["server.cache_hit_rate"] = Metric{s.hitRate, "ratio"}
		layer["http.self_us"] = Metric{s.httpUS, "us"}
		up, err := replayUpserts(b.snapPath, ops)
		if err != nil {
			return nil, fmt.Errorf("upsert replay: %w", err)
		}
		layer["delta.upsert_us"] = Metric{us(up), "us"}
		layer["delta.depth_max"] = Metric{float64(f.depthMax), "count"}
		layer["delta.compactions"] = Metric{float64(f.compactions), "count"}
		layer["delta.compact_s"] = Metric{median(f.compactS), "s"}
		layer["delta.cache_hit_rate"] = Metric{f.hitRate, "ratio"}
		late := append(lateOf(s.open), f.late...)
		layer["gen.late_ms"] = Metric{quantile(late, 0.99), "ms"}
		rec.Result.Metrics = layer
		rec.Spans = tr.spans
		rec.Attribution = attributeAll(tr.spans, e2e, s, f, setupRoot(p), workers, heapBefore, heapSetup)
		for _, a := range rec.Attribution {
			printJSON(stdout, map[string]any{"attribution": a})
		}
	} else {
		rec.Result.Metrics = map[string]Metric{}
		unsteady := map[string]Metric{}
		for name, m := range e2e {
			if slices.Contains(gated, name) {
				rec.Result.Metrics[name] = m
			} else {
				unsteady[name] = m
			}
		}
		rec.Diagnostics["unsteady"] = unsteady
	}
	rec.Header = hdr
	rec.Result.Attempted = fails.attempted.Load()
	rec.Result.Failed = fails.failed.Load()
	rec.Result.Correct = rec.Result.Failed == 0
	rec.Failures = fails.msgs
	for _, m := range fails.msgs {
		fmt.Fprintf(stdout, "# failure: %s\n", m)
	}
	if err := writeRecord(o, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// setUp starts the daemon over path reps times, stopping every one but
// the last, and returns the last with every set-up's times and the heap
// in use just before the last set-up.
func setUp(path string, writable bool, reps int, tr *tracer, root string, fails *failures) (d *daemon, times []setupTimes, heapBefore uint64, err error) {
	for r := 0; r < reps; r++ {
		if d != nil {
			d.stop()
		}
		heapBefore = heapInUse() // a GC too, so that none lands inside the set-up
		var st setupTimes
		d, st, err = startDaemon(path, writable, tr, root, int64(r))
		fails.attempt()
		if err != nil {
			return nil, nil, 0, err
		}
		times = append(times, st)
	}
	return d, times, heapBefore, nil
}

func setupRoot(p profile) string {
	if p.writable {
		return "setup.writable"
	}
	return "setup"
}

func lateOf(calls []call) []float64 {
	out := make([]float64, len(calls))
	for i, cl := range calls {
		out[i] = ms(cl.send.Sub(cl.due))
	}
	return out
}

// attributeAll splits every end-to-end metric of a traced run.
func attributeAll(spans []Span, e2e map[string]Metric, s *serveResult, f *freshResult, setup string, workers int, heapBefore, heapSetup uint64) []Attribution {
	var out []Attribution
	ids := func(n int) []int64 {
		r := make([]int64, n)
		for i := range r {
			r[i] = int64(i)
		}
		return r
	}
	// The requests ranked q±w within the window that set the windowed
	// percentile.
	bandOf := func(lat []float64, windows int, q, w float64) []int64 {
		lo, hi := medianWindow(lat, windows, q)
		var r []int64
		for _, i := range band(lat[lo:hi], q, w) {
			r = append(r, int64(lo+i))
		}
		return r
	}
	build := selfTimes(spans, "build")
	out = append(out, attribute("build_s", "s", "mean over the run's builds", e2e["build_s"].Value, build, ids(len(build)), 1))
	st := selfTimes(spans, setup)
	out = append(out, attribute("setup_s", "s", "mean over the reported daemon's set-ups", e2e["setup_s"].Value, st, ids(len(st)), 1))
	openLat := make([]float64, len(s.open))
	for i, cl := range s.open {
		openLat[i] = ms(cl.latencyDur)
	}
	open := selfTimes(spans, "serve.open")
	out = append(out, attribute("serve_p50_ms", "ms", "mean over open-loop requests ranked 45-55% in the median window", e2e["serve_p50_ms"].Value, open, bandOf(openLat, latencyWindows, 0.5, 0.05), 1e3))
	out = append(out, attribute("serve_p99_ms", "ms", "mean over open-loop requests ranked 98.5-99.5% in the median window", e2e["serve_p99_ms"].Value, open, bandOf(openLat, latencyWindows, 0.99, 0.005), 1e3))
	closed := selfTimes(spans, "serve.closed")
	perReq := float64(workers) * 1e6 / e2e["serve_qps"].Value
	out = append(out, attribute("serve_qps", "us", "connection time per completed request (workers/qps), mean over closed-loop requests", perReq, closed, ids(len(s.closed)), 1e6))
	out = append(out, Attribution{
		Metric: "serve_heap_mb", Unit: "MB", Value: e2e["serve_heap_mb"].Value, Basis: "heap growth by stage",
		Layers: map[string]float64{
			"persist.LoadIndex+server.New":   float64(int64(heapSetup)-int64(heapBefore)) / (1 << 20),
			"warm-up traffic (cache, pools)": e2e["serve_heap_mb"].Value - float64(int64(heapSetup)-int64(heapBefore))/(1<<20),
		},
	})
	up := selfTimes(spans, "upsert")
	out = append(out, attribute("upsert_p50_ms", "ms", "mean over upserts ranked 45-55% in the median window", e2e["upsert_p50_ms"].Value, up, bandOf(f.upsertMS, upsertWindows, 0.5, 0.05), 1e3))
	out = append(out, attribute("upsert_p99_ms", "ms", "mean over upserts ranked 98.5-99.5% in the median window", e2e["upsert_p99_ms"].Value, up, bandOf(f.upsertMS, upsertWindows, 0.99, 0.005), 1e3))
	rd := selfTimes(spans, "fresh.read")
	out = append(out, attribute("fresh_read_p50_ms", "ms", "mean over fresh reads ranked 45-55% in the median window", e2e["fresh_read_p50_ms"].Value, rd, bandOf(f.readMS, latencyWindows, 0.5, 0.05), 1e3))
	out = append(out, attribute("fresh_read_p99_ms", "ms", "mean over fresh reads ranked 98.5-99.5% in the median window", e2e["fresh_read_p99_ms"].Value, rd, bandOf(f.readMS, latencyWindows, 0.99, 0.005), 1e3))
	for _, q := range []string{"build_quality", "fresh_quality"} {
		out = append(out, Attribution{Metric: q, Unit: "ratio", Value: e2e[q].Value, Basis: "a quality ratio, not a time: no layer split", Layers: map[string]float64{}})
	}
	return out
}

func printJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of numbers and strings always marshal
	}
	fmt.Fprintln(w, string(b))
}

func writeRecord(o options, rec *Record) error {
	trace := 0
	if o.trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace)
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, name), b, 0o644)
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}
