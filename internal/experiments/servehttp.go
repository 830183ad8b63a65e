package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"c2knn"
	"c2knn/internal/core"
	"c2knn/internal/server"
)

// HTTPSummary condenses the HTTP serving-daemon load test. Its Floors
// judge the correctness fields: FailedReqs and MismatchedResps must be
// zero even though a snapshot hot-swap runs mid-load, and
// CacheHitAllocsPerQuery must be zero (the cache-hit fast path may not
// produce garbage). The throughput/latency fields are reported, not
// judged — shared runners are too noisy.
type HTTPSummary struct {
	Dataset string
	Users   int
	Workers int // server worker-pool size

	Clients         int
	Requests        int // HTTP requests issued
	Queries         int // user-queries answered (batches count each user)
	HotSwaps        int // snapshot reloads completed mid-load
	FailedReqs      int
	MismatchedResps int

	QPS       float64 // client-observed requests/sec
	QueriesPS float64
	P50Micros float64 // client-observed
	P99Micros float64

	CacheHitRate           float64 // server-reported
	CacheHitAllocsPerQuery float64
}

// ServeHTTP is the serving-daemon load experiment: it builds a C² index
// over the ml1M preset, snapshots it, serves it through
// internal/server on a real TCP listener, and fires 100 concurrent
// clients at it — a mix of single GETs and batched POSTs, every
// response checked bit-for-bit against the serial Index.Recommend
// reference — while the snapshot is hot-swapped mid-load. It reports
// client-observed qps/p50/p99, the server's cache hit rate, and the
// allocation count of the cache-hit fast path.
func (e *Env) ServeHTTP() (*HTTPSummary, error) {
	e.setDefaults()
	const name = "ml1M"
	const nRec = 30
	const clients = 100
	e.printf("ServeHTTP: daemon load test on %s (scale %.3g, %d-worker pool, %d clients)\n",
		name, e.Scale, e.Workers, clients)
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
	dir, err := os.MkdirTemp("", "c2http")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "index.c2")
	if err := ix.Save(snap); err != nil {
		return nil, err
	}

	srv, err := server.New(ix, server.Config{
		SnapshotPath:  snap,
		MaxConcurrent: e.Workers,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	// Request plan: clients draw from a bounded hot set so the same
	// queries recur and the cache actually gets hit (real traffic is
	// Zipfian; a uniform sweep over every user would never repeat within
	// the test's horizon). Every fifth request is a batch of 8.
	const perClient = 12
	const batchEvery, batchSize = 5, 8
	users := p.Data.NumUsers()
	hotSet := users
	if hotSet > 100 {
		hotSet = 100
	}

	// Serial references for exactly the users the load will touch.
	expected := make([][]int32, hotSet)
	for u := 0; u < hotSet; u++ {
		expected[u] = ix.Recommend(int32(u), nRec)
	}

	client := &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        2 * clients,
			MaxIdleConnsPerHost: 2 * clients,
		},
	}

	type clientResult struct {
		latencies  []time.Duration
		requests   int
		queries    int
		failed     int
		mismatched int
	}
	results := make([]clientResult, clients)
	var done atomic.Int64 // requests issued so far, for swap timing
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			res.latencies = make([]time.Duration, 0, perClient)
			for i := 0; i < perClient; i++ {
				// Stride by perClient so consecutive requests rotate over
				// the hot set (clients == hotSet is possible, which would
				// make a clients-stride degenerate to one user per client).
				u := (c*perClient + i) % hotSet
				t0 := time.Now()
				done.Add(1)
				if i%batchEvery == batchEvery-1 {
					// Batch starts are aligned so different clients issue
					// identical batches — batched cache keys repeat too.
					span := make([]int32, batchSize)
					for j := range span {
						span[j] = int32((u/batchSize*batchSize + j) % hotSet)
					}
					body, _ := json.Marshal(map[string]any{"users": span, "n": nRec})
					resp, err := client.Post(base+"/v1/recommend", "application/json", bytes.NewReader(body))
					if err != nil {
						res.failed++
						continue
					}
					var br struct {
						Results []struct {
							User  int32   `json:"user"`
							Items []int32 `json:"items"`
						} `json:"results"`
					}
					err = json.NewDecoder(resp.Body).Decode(&br)
					resp.Body.Close()
					res.latencies = append(res.latencies, time.Since(t0))
					res.requests++
					res.queries += batchSize
					if err != nil || resp.StatusCode != 200 || len(br.Results) != batchSize {
						res.failed++
						continue
					}
					for j, r := range br.Results {
						if !slices.Equal(r.Items, expected[span[j]]) {
							res.mismatched++
						}
					}
				} else {
					resp, err := client.Get(fmt.Sprintf("%s/v1/recommend?user=%d&n=%d", base, u, nRec))
					if err != nil {
						res.failed++
						continue
					}
					var rec struct {
						Items []int32 `json:"items"`
					}
					err = json.NewDecoder(resp.Body).Decode(&rec)
					resp.Body.Close()
					res.latencies = append(res.latencies, time.Since(t0))
					res.requests++
					res.queries++
					if err != nil || resp.StatusCode != 200 {
						res.failed++
						continue
					}
					if !slices.Equal(rec.Items, expected[u]) {
						res.mismatched++
					}
				}
			}
		}(c)
	}

	// Mid-load hot swap: wait until roughly a third of the load is in
	// flight, then re-read the (identical) snapshot and swap it in.
	// Identity must hold across the swap because the content is
	// unchanged — any failure or mismatch below means the swap broke a
	// request in flight.
	total := int64(clients * perClient)
	for deadline := time.Now().Add(30 * time.Second); done.Load() < total/3 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	swaps := 0
	swapResp, err := http.Post(base+"/admin/reload", "application/json", nil)
	if err == nil {
		swapResp.Body.Close()
		if swapResp.StatusCode == http.StatusOK {
			swaps++
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	sum := &HTTPSummary{
		Dataset: name, Users: users, Workers: e.Workers,
		Clients: clients, HotSwaps: swaps,
	}
	var all []time.Duration
	for i := range results {
		sum.Requests += results[i].requests
		sum.Queries += results[i].queries
		sum.FailedReqs += results[i].failed
		sum.MismatchedResps += results[i].mismatched
		all = append(all, results[i].latencies...)
	}
	sum.QPS = float64(sum.Requests) / elapsed.Seconds()
	sum.QueriesPS = float64(sum.Queries) / elapsed.Seconds()
	slices.Sort(all)
	if len(all) > 0 {
		sum.P50Micros = float64(all[len(all)/2]) / float64(time.Microsecond)
		sum.P99Micros = float64(all[len(all)*99/100]) / float64(time.Microsecond)
	}

	// Server-side cache hit rate, read the way an operator would.
	statsResp, err := http.Get(base + "/statsz")
	if err == nil {
		var st struct {
			CacheHitRate float64 `json:"cache_hit_rate"`
		}
		json.NewDecoder(statsResp.Body).Decode(&st)
		statsResp.Body.Close()
		sum.CacheHitRate = st.CacheHitRate
	}

	// Allocation count of the cache-hit fast path, measured on the idle
	// server (single goroutine, no competing traffic).
	sum.CacheHitAllocsPerQuery = srv.CacheHitAllocs(1, nRec, 20000)

	e.printf("  %d requests (%d queries) from %d clients in %v: %.0f req/s, %.0f q/s\n",
		sum.Requests, sum.Queries, clients, elapsed.Round(time.Millisecond), sum.QPS, sum.QueriesPS)
	e.printf("  latency p50 %.0f µs, p99 %.0f µs; cache hit rate %.2f; hit-path allocs %.4f\n",
		sum.P50Micros, sum.P99Micros, sum.CacheHitRate, sum.CacheHitAllocsPerQuery)
	e.printf("  hot swaps mid-load: %d; failed %d, mismatched %d (both must be 0)\n",
		sum.HotSwaps, sum.FailedReqs, sum.MismatchedResps)
	return sum, nil
}
