package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"c2knn"
	"c2knn/internal/core"
	"c2knn/internal/router"
	"c2knn/internal/server"
)

// ShardSummary condenses the sharded-serving experiment. Its Floors
// judge the correctness fields: FailedReqs, MismatchedResps (routed
// bodies byte-compared against the single-process daemon's) and
// Partials must all be zero, and Speedup —
// routed throughput over the single-process baseline at the same
// per-process worker budget — must clear 1.8x at 2 shards, or the
// scatter-gather tier is costing more than the parallelism it buys.
type ShardSummary struct {
	Dataset string
	Users   int
	Shards  int
	Workers int
	// Cores is GOMAXPROCS at run time. Sharded speedup needs real
	// parallel hardware: on a 1-core box two shard workers time-slice
	// one CPU and the best possible speedup is 1.0x, so Floors only
	// judges Speedup when Cores >= Shards.
	Cores int

	Clients   int
	BatchSize int
	Requests  int // per phase (same plan both phases)

	FailedReqs      int
	MismatchedResps int // routed body != single-process body
	Partials        int

	SingleQPS float64
	RoutedQPS float64
	Speedup   float64
}

// Shard is the sharded-serving experiment: one C² index served two
// ways — a single-process daemon, and the same index partitioned into 2
// shard servers behind a scatter-gather router — under an identical
// heavy-batch recommend load, with every routed response byte-compared
// against the single-process daemon's. Each serving process gets a
// 1-worker pool and no cache, so the only parallelism in play is the
// one the shard split buys; the routed tier must therefore approach 2x
// the baseline's throughput, and any JSON it returns differently is a
// routing bug, not noise.
func (e *Env) Shard() (*ShardSummary, error) {
	e.setDefaults()
	const name = "ml1M"
	const nRec = 30
	const shards = 2
	const clients = 8
	const batchSize = 128
	e.printf("Shard: scatter-gather serving on %s (scale %.3g, %d shards, %d clients, batches of %d)\n",
		name, e.Scale, shards, clients, batchSize)
	p, err := e.Prepare(name)
	if err != nil {
		return nil, err
	}
	b, t, n := e.C2Params(name)
	g, _ := core.Build(p.Data, p.GF, core.Options{
		K: e.K, B: b, T: t, MaxClusterSize: n, Workers: e.Workers, Seed: e.Seed,
	})
	ix, err := c2knn.NewIndex(g, p.Data, p.GF)
	if err != nil {
		return nil, err
	}
	users := p.Data.NumUsers()

	// Per-process serving config: 1 worker, no cache. The baseline is a
	// deliberately CPU-starved single daemon so the measured speedup
	// isolates what sharding adds, instead of drowning it in pool-level
	// parallelism both tiers would share.
	serveCfg := server.Config{MaxConcurrent: 1, CacheEntries: -1, Front: server.Front{Logf: discardLogf}}
	single, err := server.New(ix, serveCfg)
	if err != nil {
		return nil, err
	}
	singleBase, closeSingle, err := listenOn(single.Handler())
	if err != nil {
		return nil, err
	}
	defer closeSingle()

	ranges := c2knn.PartitionShardBuckets(c2knn.DefaultShardBuckets, shards)
	parts, _, err := c2knn.PartitionIndex(ix, c2knn.DefaultShardBuckets, ranges)
	if err != nil {
		return nil, err
	}
	rcfg := router.Config{Buckets: c2knn.DefaultShardBuckets, Front: server.Front{Logf: discardLogf}}
	var closers []func()
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	for i, part := range parts {
		shardSrv, err := server.New(part, serveCfg)
		if err != nil {
			return nil, err
		}
		base, closeShard, err := listenOn(shardSrv.Handler())
		if err != nil {
			return nil, err
		}
		closers = append(closers, closeShard)
		rcfg.Shards = append(rcfg.Shards, router.ShardSpec{ID: i, Range: ranges[i], Replicas: []string{base}})
	}
	rt, err := router.New(rcfg)
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	routedBase, closeRouter, err := listenOn(rt.Handler())
	if err != nil {
		return nil, err
	}
	defer closeRouter()

	// Request plan: contiguous batches of batchSize users tiling the
	// whole population — every batch spans both shards' bucket ranges,
	// so each routed request exercises split + stitch, and each request
	// is heavy enough that fan-out overhead must be amortized, not
	// hidden.
	var bodies [][]byte
	for lo := 0; lo < users; lo += batchSize {
		span := make([]int32, 0, batchSize)
		for u := lo; u < lo+batchSize && u < users; u++ {
			span = append(span, int32(u))
		}
		body, _ := json.Marshal(map[string]any{"users": span, "n": nRec})
		bodies = append(bodies, body)
	}

	client := &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        2 * clients,
			MaxIdleConnsPerHost: 2 * clients,
		},
	}

	// The byte reference: each distinct batch's body as the
	// single-process daemon serves it. Routed answers must match these
	// bit-for-bit — the router's contract, checked on every response.
	expected := make([][]byte, len(bodies))
	for i, body := range bodies {
		raw, _, err := postBatch(client, singleBase, body)
		if err != nil {
			return nil, fmt.Errorf("reference fetch %d: %w", i, err)
		}
		expected[i] = raw
	}

	const rounds = 4 // each client replays the full batch plan this many times
	sum := &ShardSummary{
		Dataset: name, Users: users, Shards: shards, Workers: 1,
		Cores:   runtime.GOMAXPROCS(0),
		Clients: clients, BatchSize: batchSize, Requests: clients * rounds * len(bodies),
	}

	load := func(base string, check bool) (time.Duration, error) {
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for i := range bodies {
						// Rotate the start index per client so the two
						// shards see interleaved, not phase-locked, load.
						j := (i + c) % len(bodies)
						raw, partial, err := postBatch(client, base, bodies[j])
						mu.Lock()
						switch {
						case err != nil:
							sum.FailedReqs++
							if firstErr == nil {
								firstErr = err
							}
						case partial:
							sum.Partials++
						case check && !bytes.Equal(raw, expected[j]):
							sum.MismatchedResps++
						}
						mu.Unlock()
					}
				}
			}(c)
		}
		wg.Wait()
		return time.Since(start), firstErr
	}

	elapsedSingle, err := load(singleBase, false)
	if err != nil {
		return nil, err
	}
	elapsedRouted, err := load(routedBase, true)
	if err != nil {
		return nil, err
	}
	sum.SingleQPS = float64(sum.Requests) / elapsedSingle.Seconds()
	sum.RoutedQPS = float64(sum.Requests) / elapsedRouted.Seconds()
	sum.Speedup = sum.RoutedQPS / sum.SingleQPS

	e.printf("  %d requests x %d users: single %.0f req/s (%v), routed %.0f req/s (%v) — %.2fx\n",
		sum.Requests, batchSize, sum.SingleQPS, elapsedSingle.Round(time.Millisecond),
		sum.RoutedQPS, elapsedRouted.Round(time.Millisecond), sum.Speedup)
	e.printf("  failed %d, mismatched %d, partial %d (all must be 0)\n",
		sum.FailedReqs, sum.MismatchedResps, sum.Partials)
	return sum, nil
}

// postBatch POSTs one pre-marshalled batch body and returns the raw
// response bytes plus whether the router flagged it partial.
func postBatch(client *http.Client, base string, body []byte) ([]byte, bool, error) {
	resp, err := client.Post(base+"/v1/recommend", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	partial := resp.Header.Get(router.HeaderPartial) != ""
	if resp.StatusCode != http.StatusOK {
		return nil, partial, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	return raw, partial, nil
}

// listenOn serves a handler on a fresh loopback port, returning the
// base URL and a closer.
func listenOn(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }, nil
}

// discardLogf drops serving-tier logs: experiment output goes through
// Env.Out, not the daemons' operational logging.
func discardLogf(string, ...any) {}
