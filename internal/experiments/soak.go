package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"c2knn"
	"c2knn/internal/core"
	"c2knn/internal/server"
)

// SoakOptions sizes the fault-injection soak (see Env.Soak).
type SoakOptions struct {
	// Duration is the wall-clock load window (default 20s; the short
	// regression test uses ~2s, CI runs cmd/soak for 30s).
	Duration time.Duration
	// Clients is the number of concurrent well-formed clients
	// (default 8).
	Clients int
}

// SoakSummary condenses the soak. Its Floors are the hardening
// invariants: requests answered, zero failed or mismatched well-formed
// requests, zero daemon deaths, every fault class provoked and answered
// with its documented status code, a corrupt snapshot reload survived
// without dropping the old epoch, and the /metrics counters reconciled
// exactly against the harness's own accounting. Latency is recorded for
// tracking; only a grossly pathological p99 fails.
type SoakSummary struct {
	Dataset      string
	Users        int
	Workers      int
	DurationSecs float64
	Clients      int

	Requests        int // well-formed requests answered
	Queries         int // user-queries inside them (batches count each user)
	FailedReqs      int
	MismatchedResps int
	Retried429      int // well-formed requests that hit shedding and retried

	Fault413        int
	Fault400        int
	Fault500        int
	Fault503        int
	Shed429         int
	LorisConns      int
	FaultUnexpected int // fault probes answered with the wrong status

	HotSwaps               int
	CorruptReloads         int
	CorruptKeptServing     bool
	GoodReloadAfterCorrupt bool
	Restarts               int // daemon deaths; in-process, so any nonzero is a crash

	MetricsReconciled bool
	MetricsDiff       string

	QPS       float64 // well-formed requests/sec
	P50Micros float64
	P99Micros float64
}

// Soak is the long-haul fault-injection experiment: it serves a C²
// snapshot through the full hardened middleware stack on a real TCP
// listener, keeps a pool of paced well-formed clients running — every
// response checked bit-for-bit against Index.Recommend — and
// concurrently injects every fault class the stack is built to absorb:
// oversized bodies (413), over-cap batches (400), handler panics (500),
// deadline-exceeding requests (503), admission-control stampedes (429),
// slow-loris connections (cut by the read timeouts), and a mid-load
// snapshot corruption with reload (old epoch keeps serving, typed
// "corrupt" error, later good reload succeeds). At the end it scrapes
// /metrics and reconciles the server's counters against the harness's
// own per-status accounting — every response either side saw must match.
func (e *Env) Soak(opts SoakOptions) (*SoakSummary, error) {
	e.setDefaults()
	if opts.Duration <= 0 {
		opts.Duration = 20 * time.Second
	}
	if opts.Clients <= 0 {
		opts.Clients = 8
	}
	const name = "ml1M"
	const nRec = 30
	const (
		maxInFlight = 8
		reqTimeout  = 750 * time.Millisecond
		maxBody     = 64 << 10
		maxBatch    = 64
		batchSize   = 8
	)
	e.printf("Soak: %v fault-injection soak on %s (%d clients, %d-worker pool, inflight cap %d)\n",
		opts.Duration.Round(time.Second), name, opts.Clients, e.Workers, maxInFlight)

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
	dir, err := os.MkdirTemp("", "c2soak")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "index.c2")
	if err := ix.Save(snap); err != nil {
		return nil, err
	}
	good, err := os.ReadFile(snap)
	if err != nil {
		return nil, err
	}

	srv, err := server.New(ix, server.Config{
		SnapshotPath:   snap,
		MaxConcurrent:  e.Workers,
		FaultInjection: true,
		Front: server.Front{
			MaxBatch:       maxBatch,
			MaxBodyBytes:   maxBody,
			RequestTimeout: reqTimeout,
			MaxInFlight:    maxInFlight,
			// Injected panics log a full stack each; keep the report readable.
			Logf: func(string, ...any) {},
		},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 2 * time.Second, // cuts header-stage slow loris
		ReadTimeout:       5 * time.Second, // cuts body-stage slow loris
		IdleTimeout:       time.Minute,
	}
	// Any Serve return before we initiate shutdown is a daemon death —
	// exactly what the panic-recovery stack exists to prevent.
	var shuttingDown, died atomic.Bool
	go func() {
		err := httpSrv.Serve(ln)
		if !shuttingDown.Load() && err != nil {
			died.Store(true)
		}
	}()
	defer func() {
		shuttingDown.Store(true)
		httpSrv.Close()
	}()
	base := "http://" + ln.Addr().String()

	users := p.Data.NumUsers()
	hotSet := users
	if hotSet > 100 {
		hotSet = 100
	}
	expected := make([][]int32, hotSet)
	for u := 0; u < hotSet; u++ {
		expected[u] = ix.Recommend(int32(u), nRec)
	}

	client := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        4 * (opts.Clients + maxInFlight),
			MaxIdleConnsPerHost: 4 * (opts.Clients + maxInFlight),
		},
	}

	// Every response observed on the query/admin surfaces, by status
	// code — the other half of the /metrics reconciliation.
	var statusMu sync.Mutex
	statusCount := map[string]int{}
	countStatus := func(code int) {
		statusMu.Lock()
		statusCount[fmt.Sprintf("%d", code)]++
		statusMu.Unlock()
	}

	var (
		queries    atomic.Int64 // user-queries answered 200 (batch counts each user)
		shed429    atomic.Int64
		fault503   atomic.Int64
		fault500   atomic.Int64
		fault413   atomic.Int64
		fault400   atomic.Int64
		unexpected atomic.Int64
		lorisConns atomic.Int64
	)

	start := time.Now()
	deadline := start.Add(opts.Duration)

	// --- Well-formed load: paced clients over a hot set, bit-for-bit
	// checked. A 429 is backpressure, not a failure: the client honors it
	// by backing off and retrying the same request, as the middleware
	// package documents.
	type wfResult struct {
		latencies  []time.Duration
		requests   int
		failed     int
		mismatched int
		retried    int
	}
	results := make([]wfResult, opts.Clients)
	var wg sync.WaitGroup
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			do := func(req func() (*http.Response, error)) (*http.Response, bool) {
				for retryUntil := deadline.Add(2 * time.Second); ; {
					resp, err := req()
					if err != nil {
						res.failed++
						return nil, false
					}
					countStatus(resp.StatusCode)
					if resp.StatusCode != http.StatusTooManyRequests {
						return resp, true
					}
					resp.Body.Close()
					res.retried++
					shed429.Add(1)
					if time.Now().After(retryUntil) {
						res.failed++
						return nil, false
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
			for i := 0; time.Now().Before(deadline); i++ {
				u := (c*9973 + i) % hotSet
				t0 := time.Now()
				if i%5 == 4 {
					span := make([]int32, batchSize)
					for j := range span {
						span[j] = int32((u/batchSize*batchSize + j) % hotSet)
					}
					body, _ := json.Marshal(map[string]any{"users": span, "n": nRec})
					resp, ok := do(func() (*http.Response, error) {
						return client.Post(base+"/v1/recommend", "application/json", bytes.NewReader(body))
					})
					if !ok {
						continue
					}
					var br struct {
						Results []struct {
							User  int32   `json:"user"`
							Items []int32 `json:"items"`
						} `json:"results"`
					}
					err := json.NewDecoder(resp.Body).Decode(&br)
					resp.Body.Close()
					res.latencies = append(res.latencies, time.Since(t0))
					res.requests++
					if err != nil || resp.StatusCode != 200 || len(br.Results) != batchSize {
						res.failed++
						continue
					}
					queries.Add(batchSize)
					for j, r := range br.Results {
						if !slices.Equal(r.Items, expected[span[j]]) {
							res.mismatched++
						}
					}
				} else {
					resp, ok := do(func() (*http.Response, error) {
						return client.Get(fmt.Sprintf("%s/v1/recommend?user=%d&n=%d", base, u, nRec))
					})
					if !ok {
						continue
					}
					var rec struct {
						Items []int32 `json:"items"`
					}
					err := json.NewDecoder(resp.Body).Decode(&rec)
					resp.Body.Close()
					res.latencies = append(res.latencies, time.Since(t0))
					res.requests++
					if err != nil || resp.StatusCode != 200 {
						res.failed++
						continue
					}
					queries.Add(1)
					if !slices.Equal(rec.Items, expected[u]) {
						res.mismatched++
					}
				}
				time.Sleep(500 * time.Microsecond)
			}
		}(c)
	}

	// probe issues one fault request and verifies the status the stack
	// must answer it with; anything else is a harness-visible bug.
	probe := func(resp *http.Response, err error, want int, got *atomic.Int64) {
		if err != nil {
			unexpected.Add(1)
			return
		}
		drain(resp)
		countStatus(resp.StatusCode)
		if resp.StatusCode == want {
			got.Add(1)
		} else {
			unexpected.Add(1)
		}
	}

	// --- Fault injector: cycles every fault class while the well-formed
	// load runs; the corrupt-reload sequence fires once past halfway.
	sum := &SoakSummary{
		Dataset: name, Users: users, Workers: e.Workers, Clients: opts.Clients,
	}
	oversized := []byte(`{"users":[` + strings.Repeat("0,", maxBody/2) + `0]}`)
	overbatch, _ := json.Marshal(map[string]any{
		"users": make([]int32, maxBatch+1), "n": nRec,
	})
	var lorisWG sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		half := start.Add(opts.Duration / 2)
		corruptDone := false
		for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
			// 413: a valid JSON body over the byte cap.
			resp, err := client.Post(base+"/v1/recommend", "application/json", bytes.NewReader(oversized))
			probe(resp, err, http.StatusRequestEntityTooLarge, &fault413)

			// 400: a batch over the fan-out cap, well under the byte cap.
			resp, err = client.Post(base+"/v1/recommend", "application/json", bytes.NewReader(overbatch))
			probe(resp, err, http.StatusBadRequest, &fault400)

			// 500: an injected handler panic the daemon must survive.
			resp, err = client.Post(base+"/admin/panic", "application/json", nil)
			probe(resp, err, http.StatusInternalServerError, &fault500)

			// 503: a request that outlives the per-request deadline.
			resp, err = client.Get(base + "/admin/delay?d=" + (reqTimeout + 500*time.Millisecond).String())
			probe(resp, err, http.StatusServiceUnavailable, &fault503)

			// 429: a stampede wider than the in-flight cap; the surplus
			// must shed, the admitted must finish.
			var burst sync.WaitGroup
			for j := 0; j < maxInFlight+4; j++ {
				burst.Add(1)
				go func() {
					defer burst.Done()
					resp, err := client.Get(base + "/admin/delay?d=150ms")
					if err != nil {
						unexpected.Add(1)
						return
					}
					drain(resp)
					countStatus(resp.StatusCode)
					switch resp.StatusCode {
					case http.StatusOK:
					case http.StatusTooManyRequests:
						shed429.Add(1)
					default:
						unexpected.Add(1)
					}
				}()
			}
			burst.Wait()

			// Slow loris: trickle a never-completing request; the read
			// timeouts must cut it without disturbing anyone else.
			lorisWG.Add(1)
			go func() {
				defer lorisWG.Done()
				conn, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					return
				}
				defer conn.Close()
				lorisConns.Add(1)
				conn.Write([]byte("GET /v1/topk?user=0 HTTP/1.1\r\nHost: soak\r\nX-Loris: "))
				for i := 0; i < 20; i++ { // 6s of trickle vs a 2s header timeout
					if _, err := conn.Write([]byte("z")); err != nil {
						return // server cut us off, as it must
					}
					time.Sleep(300 * time.Millisecond)
				}
			}()

			// Good hot-swap under load: the identical snapshot re-read and
			// swapped in; in-flight well-formed requests must not notice.
			resp, err = client.Post(base+"/admin/reload", "application/json", nil)
			if err == nil {
				drain(resp)
				countStatus(resp.StatusCode)
				if resp.StatusCode == http.StatusOK {
					sum.HotSwaps++
				} else {
					unexpected.Add(1)
				}
			} else {
				unexpected.Add(1)
			}

			if !corruptDone && time.Now().After(half) {
				corruptDone = true
				runCorrupt(sum, client, base, srv, snap, good, expected, nRec, countStatus, &queries, &unexpected)
			}
			time.Sleep(100 * time.Millisecond)
		}
		if !corruptDone {
			runCorrupt(sum, client, base, srv, snap, good, expected, nRec, countStatus, &queries, &unexpected)
		}
	}()

	wg.Wait()
	elapsed := time.Since(start)
	lorisWG.Wait()

	var all []time.Duration
	for i := range results {
		sum.Requests += results[i].requests
		sum.FailedReqs += results[i].failed
		sum.MismatchedResps += results[i].mismatched
		sum.Retried429 += results[i].retried
		all = append(all, results[i].latencies...)
	}
	sum.DurationSecs = elapsed.Seconds()
	sum.Queries = int(queries.Load())
	sum.Fault413 = int(fault413.Load())
	sum.Fault400 = int(fault400.Load())
	sum.Fault500 = int(fault500.Load())
	sum.Fault503 = int(fault503.Load())
	sum.Shed429 = int(shed429.Load())
	sum.LorisConns = int(lorisConns.Load())
	sum.FaultUnexpected = int(unexpected.Load())
	if died.Load() {
		sum.Restarts = 1
	}
	sum.QPS = float64(sum.Requests) / elapsed.Seconds()
	slices.Sort(all)
	if len(all) > 0 {
		sum.P50Micros = float64(all[len(all)/2]) / float64(time.Microsecond)
		sum.P99Micros = float64(all[len(all)*99/100]) / float64(time.Microsecond)
	}

	// --- Reconcile /metrics against the harness's own accounting. All
	// load has stopped; every counter the server kept must now equal
	// what the clients saw — any drift means a response was double- or
	// never-counted somewhere in the middleware stack.
	sum.MetricsDiff = reconcileMetrics(client, base, statusCount, map[string]int{
		"c2_queries_total":          sum.Queries,
		"c2_panics_total":           sum.Fault500,
		"c2_shed_total":             sum.Shed429,
		"c2_deadline_expired_total": sum.Fault503,
		"c2_body_too_large_total":   sum.Fault413,
	})
	sum.MetricsReconciled = sum.MetricsDiff == ""

	e.printf("  %d well-formed requests (%d queries) in %v: %.0f req/s, p50 %.0f µs, p99 %.0f µs\n",
		sum.Requests, sum.Queries, elapsed.Round(time.Millisecond), sum.QPS, sum.P50Micros, sum.P99Micros)
	e.printf("  failed %d, mismatched %d (both must be 0); %d retried through shedding\n",
		sum.FailedReqs, sum.MismatchedResps, sum.Retried429)
	e.printf("  faults: 413×%d 400×%d 500×%d 503×%d 429×%d loris×%d unexpected×%d\n",
		sum.Fault413, sum.Fault400, sum.Fault500, sum.Fault503, sum.Shed429, sum.LorisConns, sum.FaultUnexpected)
	e.printf("  reloads: %d hot swaps, %d corrupt (kept serving: %v, recovered: %v); restarts %d\n",
		sum.HotSwaps, sum.CorruptReloads, sum.CorruptKeptServing, sum.GoodReloadAfterCorrupt, sum.Restarts)
	if sum.MetricsReconciled {
		e.printf("  /metrics reconciled exactly against harness accounting\n")
	} else {
		e.printf("  /metrics FAILED to reconcile: %s\n", sum.MetricsDiff)
	}
	return sum, nil
}

// runCorrupt damages the snapshot on disk, asks the daemon to reload it
// (must refuse with 503/"corrupt" and keep serving the old epoch,
// bit-for-bit), then restores the good bytes and reloads again (must
// succeed and advance the epoch) — the operator runbook, mid-load.
//
// The damage is done by atomic replacement (temp + rename), never by
// writing the path in place: the serving epoch may be a MAP_SHARED
// view of the file's inode, so in-place truncation would SIGBUS the
// daemon mid-query and in-place byte edits would silently corrupt live
// answers. Rename swaps the directory entry and leaves the mapped
// inode untouched — the same contract persist.WriteFile gives every
// legitimate snapshot writer.
func runCorrupt(sum *SoakSummary, client *http.Client, base string, srv *server.Server,
	snap string, good []byte, expected [][]int32, nRec int, countStatus func(int),
	queries, unexpected *atomic.Int64) {
	epochBefore := srv.Epoch()
	if err := replaceFile(snap, good[:len(good)/2]); err != nil {
		unexpected.Add(1)
		return
	}
	resp, err := client.Post(base+"/admin/reload", "application/json", nil)
	if err != nil {
		unexpected.Add(1)
		return
	}
	drain(resp)
	countStatus(resp.StatusCode)
	if resp.StatusCode != http.StatusServiceUnavailable {
		unexpected.Add(1)
		return
	}
	sum.CorruptReloads++

	// The old epoch must still answer, identically.
	kept := srv.Epoch() == epochBefore
	resp, err = client.Get(fmt.Sprintf("%s/v1/recommend?user=0&n=%d", base, nRec))
	if err != nil {
		unexpected.Add(1)
		return
	}
	countStatus(resp.StatusCode)
	var rec struct {
		Items []int32 `json:"items"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&rec)
	resp.Body.Close()
	if resp.StatusCode == 200 {
		queries.Add(1)
	}
	sum.CorruptKeptServing = kept && decErr == nil && resp.StatusCode == 200 &&
		slices.Equal(rec.Items, expected[0])

	// Restore and reload: the runbook's recovery step.
	if err := replaceFile(snap, good); err != nil {
		unexpected.Add(1)
		return
	}
	resp, err = client.Post(base+"/admin/reload", "application/json", nil)
	if err != nil {
		unexpected.Add(1)
		return
	}
	drain(resp)
	countStatus(resp.StatusCode)
	if resp.StatusCode == http.StatusOK && srv.Epoch() == epochBefore+1 {
		sum.GoodReloadAfterCorrupt = true
		sum.HotSwaps++
	} else {
		unexpected.Add(1)
	}
}

// reconcileMetrics scrapes /metrics and compares the server's counters
// against the harness's accounting: the full c2_responses_total{code}
// map must match statusCount exactly in both directions, and each named
// counter must equal its expected value. Returns "" on success, else a
// semicolon-joined list of mismatches.
func reconcileMetrics(client *http.Client, base string, statusCount map[string]int, want map[string]int) string {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return "scrape failed: " + err.Error()
	}
	defer resp.Body.Close()
	metrics := map[string]float64{}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &v); err == nil {
			metrics[line[:sp]] = v
		}
	}

	var diffs []string
	for code, n := range statusCount {
		key := fmt.Sprintf("c2_responses_total{code=%q}", code)
		if int(metrics[key]) != n {
			diffs = append(diffs, fmt.Sprintf("%s=%d want %d", key, int(metrics[key]), n))
		}
	}
	for key, v := range metrics {
		if !strings.HasPrefix(key, "c2_responses_total{") {
			continue
		}
		code := strings.TrimSuffix(strings.TrimPrefix(key, `c2_responses_total{code="`), `"}`)
		if _, ok := statusCount[code]; !ok && v != 0 {
			diffs = append(diffs, fmt.Sprintf("%s=%d unseen by harness", key, int(v)))
		}
	}
	for key, n := range want {
		if int(metrics[key]) != n {
			diffs = append(diffs, fmt.Sprintf("%s=%d want %d", key, int(metrics[key]), n))
		}
	}
	slices.Sort(diffs)
	return strings.Join(diffs, "; ")
}

// replaceFile atomically replaces path's directory entry with the given
// bytes via a same-directory temp file and rename, leaving the old
// inode — possibly still memory-mapped by a serving epoch — untouched.
func replaceFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".soak-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// drain empties and closes a response body so its connection can be
// reused by the shared transport.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
