package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"c2knn"
	"c2knn/internal/frh"
	"c2knn/internal/server"
)

func testIndex(tb testing.TB) *c2knn.Index {
	tb.Helper()
	d, err := c2knn.Generate("ml1M", 0.03)
	if err != nil {
		tb.Fatal(err)
	}
	sim, err := c2knn.NewGoldFinger(d, 256)
	if err != nil {
		tb.Fatal(err)
	}
	g, _ := c2knn.BuildC2(d, sim, c2knn.BuildOptions{K: 8, Workers: 2, Seed: 7})
	ix, err := c2knn.NewIndex(g, d, sim)
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// startShard serves ix as one shard replica.
func startShard(tb testing.TB, ix *c2knn.Index) (*server.Server, *httptest.Server) {
	tb.Helper()
	s, err := server.New(ix, server.Config{CacheEntries: -1})
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return s, ts
}

func newRouter(tb testing.TB, cfg Config) *Router {
	tb.Helper()
	cfg.HealthEvery = -1 // tests poll explicitly
	rt, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Close)
	return rt
}

func get(tb testing.TB, h http.Handler, path string) (int, http.Header, []byte) {
	tb.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Header(), rec.Body.Bytes()
}

func post(tb testing.TB, h http.Handler, path, body string) (int, http.Header, []byte) {
	tb.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Header(), rec.Body.Bytes()
}

// TestRoutedByteIdentity is the merge-determinism acceptance test: a
// router over a 1-shard layout must answer byte-identically to (a) the
// direct single-snapshot server and (b) JSON marshaled straight from
// the c2knn.Index — on every endpoint, single and batched, including
// error responses.
func TestRoutedByteIdentity(t *testing.T) {
	ix := testIndex(t)
	_, direct := startShard(t, ix)
	_, shardSrv := startShard(t, ix)
	rt := newRouter(t, Config{
		Shards: []ShardSpec{{ID: 0, Range: frh.BucketRange{Lo: 1, Hi: frh.DefaultShardBuckets}, Replicas: []string{shardSrv.URL}}},
	})

	users := []int32{0, 1, 7, 41, 500, 1<<30 - 1} // incl. out-of-range
	paths := []string{
		"/v1/neighbors?user=%d", "/v1/neighbors?user=%d&k=3",
		"/v1/topk?user=%d&k=5", "/v1/recommend?user=%d&n=10",
		"/v1/neighbors?user=%d&k=0",    // 400 from the shard, proxied
		"/v1/recommend?user=%d&n=9999", // over MaxResults: 400
	}
	for _, u := range users {
		for _, p := range paths {
			path := fmt.Sprintf(p, u)
			wantResp, err := http.Get(direct.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := io.ReadAll(wantResp.Body)
			wantResp.Body.Close()
			code, _, got := get(t, rt.Handler(), path)
			if code != wantResp.StatusCode {
				t.Fatalf("%s: routed status %d, direct %d", path, code, wantResp.StatusCode)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: routed body differs\nrouted: %s\ndirect: %s", path, got, want)
			}
		}
	}

	// Batched POST, order preserved.
	body := `{"users":[41,0,7,500,1],"k":4}`
	wantResp, err := http.Post(direct.URL+"/v1/neighbors", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(wantResp.Body)
	wantResp.Body.Close()
	code, hdr, got := get2(t, rt.Handler(), "/v1/neighbors", body)
	if code != 200 || !bytes.Equal(got, want) {
		t.Fatalf("batch: status %d\nrouted: %s\ndirect: %s", code, got, want)
	}
	if hdr.Get(HeaderPartial) != "" {
		t.Fatal("healthy routed batch flagged partial")
	}

	// Against the index directly: the shared wire structs must marshal
	// exactly what the server marshals.
	u := int32(41)
	ids, sims := ix.Neighbors(u)
	wantJSON, _ := json.Marshal(server.NeighborsResult{User: u, IDs: ids, Sims: sims})
	code, _, got = get(t, rt.Handler(), fmt.Sprintf("/v1/neighbors?user=%d", u))
	if code != 200 || !bytes.Equal(bytes.TrimRight(got, "\n"), wantJSON) {
		t.Fatalf("routed vs index: %s vs %s", got, wantJSON)
	}

	// Errors the router raises itself, never asking a shard, must match
	// the direct server's status, Content-Type and body bytes.
	overBatch, _ := json.Marshal(map[string]any{"users": make([]int32, 1025)})
	overBody := `{"users":[` + strings.Repeat("1,", 600_000) + `1]}`
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/neighbors?user=notanint", ""},
		{http.MethodPost, "/v1/neighbors", `{"users":[]}`},
		{http.MethodPost, "/v1/topk", string(overBatch)},
		{http.MethodPost, "/v1/topk", `not json`},
		{http.MethodPost, "/v1/recommend", `{"users":[1],"n":100000}`},
		{http.MethodPost, "/v1/recommend", overBody},
		{http.MethodDelete, "/v1/neighbors", ""},
	} {
		req, _ := http.NewRequest(tc.method, direct.URL+tc.path, strings.NewReader(tc.body))
		wantResp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := io.ReadAll(wantResp.Body)
		wantResp.Body.Close()
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
		if rec.Code != wantResp.StatusCode || rec.Header().Get("Content-Type") != wantResp.Header.Get("Content-Type") ||
			!bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s %s (%d-byte body): routed %d %q %q, direct %d %q %q", tc.method, tc.path, len(tc.body),
				rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes(),
				wantResp.StatusCode, wantResp.Header.Get("Content-Type"), want)
		}
	}
	if n := rt.Stats().upstreamErrs.Load(); n != 0 {
		t.Fatalf("router-raised errors reached a shard: %d upstream errors", n)
	}
}

// TestRouterMetricsStable: the router's /metrics lists its series in a
// fixed order — scrapes of an idle router differ only in the uptime —
// and exports the shared series its server.Stats counts.
func TestRouterMetricsStable(t *testing.T) {
	rt := newRouter(t, Config{
		Shards: []ShardSpec{{ID: 0, Range: frh.BucketRange{Lo: 1, Hi: frh.DefaultShardBuckets},
			Replicas: []string{"http://127.0.0.1:1"}}},
	})
	// Fill several status codes so every labelled family has entries.
	get(t, rt.Handler(), "/v1/topk?user=x")
	post(t, rt.Handler(), "/v1/upsert", `{}`)
	get(t, rt.Handler(), "/v1/upsert")
	scrape := func() string {
		code, _, body := get(t, rt.Handler(), "/metrics")
		if code != 200 {
			t.Fatalf("/metrics status %d", code)
		}
		var keep []string
		for _, line := range strings.Split(string(body), "\n") {
			if !strings.HasPrefix(line, "c2_uptime_seconds ") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	first := scrape()
	for i := 0; i < 20; i++ {
		if again := scrape(); again != first {
			t.Fatalf("scrape %d differs from the first:\n%s\n--- first ---\n%s", i+2, again, first)
		}
	}
	for _, series := range []string{"c2_queries_total 0", "c2_body_too_large_total 0", "c2_request_duration_seconds_count 0"} {
		if !strings.Contains(first, "\n"+series+"\n") {
			t.Errorf("/metrics lacks %q", series)
		}
	}
}

// TestRouterCountBoundary pins the k/n cap at its boundary on the
// router's own parsing: 1000 is answered, 1001 is refused with 400, for
// single and batched requests on every endpoint.
func TestRouterCountBoundary(t *testing.T) {
	ix := testIndex(t)
	_, shardSrv := startShard(t, ix)
	rt := newRouter(t, Config{
		Shards: []ShardSpec{{ID: 0, Range: frh.BucketRange{Lo: 1, Hi: frh.DefaultShardBuckets}, Replicas: []string{shardSrv.URL}}},
	})
	for _, ep := range []struct{ name, param string }{{"neighbors", "k"}, {"topk", "k"}, {"recommend", "n"}} {
		for _, tc := range []struct{ count, want int }{{1000, 200}, {1001, 400}} {
			path := fmt.Sprintf("/v1/%s?user=1&%s=%d", ep.name, ep.param, tc.count)
			if code, _, body := get(t, rt.Handler(), path); code != tc.want {
				t.Errorf("GET %s: status %d, want %d (%s)", path, code, tc.want, body)
			}
			batch := fmt.Sprintf(`{"users":[1,2],%q:%d}`, ep.param, tc.count)
			if code, _, body := post(t, rt.Handler(), "/v1/"+ep.name, batch); code != tc.want {
				t.Errorf("POST /v1/%s %s: status %d, want %d (%s)", ep.name, batch, code, tc.want, body)
			}
		}
	}
}

func get2(tb testing.TB, h http.Handler, path, body string) (int, http.Header, []byte) {
	return post(tb, h, path, body)
}

// TestRoutedTwoShards proves the scatter-gather path: a 2-shard router
// must still answer byte-identically to one process over the whole
// snapshot, for singles and for batches spanning both shards.
func TestRoutedTwoShards(t *testing.T) {
	ix := testIndex(t)
	_, direct := startShard(t, ix)
	ranges := frh.PartitionBuckets(frh.DefaultShardBuckets, 2)
	parts, users, err := c2knn.PartitionIndex(ix, frh.DefaultShardBuckets, ranges)
	if err != nil {
		t.Fatal(err)
	}
	if users[0]+users[1] != ix.NumUsers() {
		t.Fatalf("partition lost users: %v vs %d", users, ix.NumUsers())
	}
	_, s0 := startShard(t, parts[0])
	_, s1 := startShard(t, parts[1])
	rt := newRouter(t, Config{Shards: []ShardSpec{
		{ID: 0, Range: ranges[0], Replicas: []string{s0.URL}},
		{ID: 1, Range: ranges[1], Replicas: []string{s1.URL}},
	}})

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		us := make([]int32, n)
		for i := range us {
			us[i] = int32(rng.Intn(ix.NumUsers() + 50))
		}
		for _, ep := range []string{"neighbors", "topk", "recommend"} {
			req, _ := json.Marshal(map[string]any{"users": us, "k": 6})
			if ep == "recommend" {
				req, _ = json.Marshal(map[string]any{"users": us, "n": 12})
			}
			wantResp, err := http.Post(direct.URL+"/v1/"+ep, "application/json", bytes.NewReader(req))
			if err != nil {
				t.Fatal(err)
			}
			want, _ := io.ReadAll(wantResp.Body)
			wantResp.Body.Close()
			code, hdr, got := post(t, rt.Handler(), "/v1/"+ep, string(req))
			if code != 200 {
				t.Fatalf("%s: routed status %d: %s", ep, code, got)
			}
			if hdr.Get(HeaderPartial) != "" {
				t.Fatalf("%s: healthy 2-shard batch flagged partial", ep)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s trial %d: routed body differs from single-process\nrouted: %.200s\ndirect: %.200s", ep, trial, got, want)
			}
		}
		// And a few singles.
		u := us[0]
		for _, p := range []string{"/v1/neighbors?user=%d&k=5", "/v1/topk?user=%d", "/v1/recommend?user=%d&n=7"} {
			path := fmt.Sprintf(p, u)
			wantResp, err := http.Get(direct.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := io.ReadAll(wantResp.Body)
			wantResp.Body.Close()
			if _, _, got := get(t, rt.Handler(), path); !bytes.Equal(got, want) {
				t.Fatalf("%s: routed single differs\nrouted: %s\ndirect: %s", path, got, want)
			}
		}
	}
}

// TestFailoverAndPartial: with two replicas, killing one must be
// invisible (failover); killing both must degrade to empty fills with
// the partial header — never a failed request.
func TestFailoverAndPartial(t *testing.T) {
	ix := testIndex(t)
	_, live := startShard(t, ix)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "shard down", http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)
	full := frh.BucketRange{Lo: 1, Hi: frh.DefaultShardBuckets}
	rt := newRouter(t, Config{
		HedgeAfter: -1,
		Shards:     []ShardSpec{{ID: 0, Range: full, Replicas: []string{dead.URL, live.URL}}},
	})

	// Every request must succeed despite the 500ing replica being first
	// in some rotations.
	for i := 0; i < 8; i++ {
		code, hdr, body := get(t, rt.Handler(), "/v1/neighbors?user=3")
		if code != 200 || hdr.Get(HeaderPartial) != "" {
			t.Fatalf("try %d: status %d partial=%q body=%s", i, code, hdr.Get(HeaderPartial), body)
		}
	}
	if rt.Stats().failovers.Load() == 0 {
		t.Fatal("no failovers recorded despite a dead replica")
	}

	// All replicas dead: 200 + partial + the exact empty fill.
	rtDead := newRouter(t, Config{
		HedgeAfter: -1, UpstreamTimeout: 200 * time.Millisecond,
		Shards: []ShardSpec{{ID: 0, Range: full, Replicas: []string{dead.URL}}},
	})
	code, hdr, body := get(t, rtDead.Handler(), "/v1/topk?user=5")
	if code != 200 {
		t.Fatalf("dead shard must degrade, got status %d: %s", code, body)
	}
	if hdr.Get(HeaderPartial) != "1" {
		t.Fatalf("partial header = %q, want 1", hdr.Get(HeaderPartial))
	}
	if want := `{"user":5,"neighbors":[]}`; strings.TrimRight(string(body), "\n") != want {
		t.Fatalf("degraded fill = %s, want %s", body, want)
	}
	code, hdr, body = post(t, rtDead.Handler(), "/v1/recommend", `{"users":[1,2,3],"n":5}`)
	if code != 200 || hdr.Get(HeaderPartial) != "3" {
		t.Fatalf("degraded batch: status %d partial=%q body=%s", code, hdr.Get(HeaderPartial), body)
	}
	var env struct {
		Results []server.RecommendResult `json:"results"`
	}
	if err := json.Unmarshal(body, &env); err != nil || len(env.Results) != 3 {
		t.Fatalf("degraded batch body malformed: %s (%v)", body, err)
	}
	for i, r := range env.Results {
		if r.User != int32(i+1) || len(r.Items) != 0 {
			t.Fatalf("degraded batch result %d = %+v", i, r)
		}
	}
	if rtDead.Stats().partials.Load() != 2 {
		t.Fatalf("partials counter = %d, want 2", rtDead.Stats().partials.Load())
	}
}

// TestHedging: a stalled replica must not stall the request — the
// hedge fires and the fast replica answers.
func TestHedging(t *testing.T) {
	ix := testIndex(t)
	_, fast := startShard(t, ix)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
		http.Error(w, "too slow", http.StatusInternalServerError)
	}))
	t.Cleanup(slow.Close)
	rt := newRouter(t, Config{
		HedgeAfter: 30 * time.Millisecond, UpstreamTimeout: 5 * time.Second,
		Shards: []ShardSpec{{ID: 0, Range: frh.BucketRange{Lo: 1, Hi: frh.DefaultShardBuckets},
			Replicas: []string{slow.URL, fast.URL}}},
	})
	start := time.Now()
	code, _, body := get(t, rt.Handler(), "/v1/neighbors?user=1")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("hedge did not rescue the request: took %v", d)
	}
	if rt.Stats().hedges.Load() == 0 {
		t.Fatal("no hedged try recorded")
	}
}

// TestEpochSkewSurfaced is the regression test for the degradation
// satellite: a replica stuck on an old epoch after a hot swap must
// surface on /statsz — both in the per-shard health and through the
// RecordReloadFailure plumbing (kind "epoch-skew").
func TestEpochSkewSurfaced(t *testing.T) {
	ix := testIndex(t)
	srvA, repA := startShard(t, ix)
	_, repB := startShard(t, ix)
	rt := newRouter(t, Config{
		Shards: []ShardSpec{{ID: 0, Range: frh.BucketRange{Lo: 1, Hi: frh.DefaultShardBuckets},
			Replicas: []string{repA.URL, repB.URL}}},
	})
	rt.PollHealth()
	if sec := rt.routerSection(); sec.EpochSkew {
		t.Fatal("skew reported before any swap")
	}

	// Hot-swap replica A only: B is now stuck on epoch 1.
	srvA.Swap(ix)
	rt.PollHealth()
	sec := rt.routerSection()
	if !sec.EpochSkew || !sec.Shards[0].EpochSkew {
		t.Fatalf("epoch skew not surfaced: %+v", sec)
	}
	if sec.EpochMin != 1 || sec.EpochMax != 2 {
		t.Fatalf("epoch bounds [%d, %d], want [1, 2]", sec.EpochMin, sec.EpochMax)
	}
	snap := rt.Stats().Snapshot()
	if snap.ReloadFailures != 1 || snap.LastReloadKind != "epoch-skew" {
		t.Fatalf("skew not routed through reload-failure plumbing: failures=%d kind=%q",
			snap.ReloadFailures, snap.LastReloadKind)
	}
	// Polling again while still skewed must not re-count the incident.
	rt.PollHealth()
	if n := rt.Stats().Snapshot().ReloadFailures; n != 1 {
		t.Fatalf("skew incident double-counted: %d", n)
	}
	// /statsz carries the router section on the wire.
	code, _, body := get(t, rt.Handler(), "/statsz")
	if code != 200 || !bytes.Contains(body, []byte(`"epoch_skew":true`)) {
		t.Fatalf("statsz does not surface skew: %d %s", code, body)
	}
	// Convergence clears the sticky bit so the NEXT incident records.
	srvA.Swap(ix) // A at 3, B still 1: still skewed, but sticky
	rt.PollHealth()
	if n := rt.Stats().Snapshot().ReloadFailures; n != 1 {
		t.Fatalf("still-skewed poll re-counted: %d", n)
	}
}

// TestMergeDeterminism: splitting one user's edges across fake shards
// and merging must reproduce the canonical frozen ordering exactly,
// including float32 tie-breaks by ascending id and overlap dedup.
func TestMergeDeterminism(t *testing.T) {
	full := server.NeighborsResult{User: 9,
		IDs:  []int32{4, 11, 2, 30, 7},
		Sims: []float32{0.9, 0.7, 0.7, 0.5, 0.3},
	}
	// Shard rows: interleaved, with an overlap duplicate (id 2).
	a := server.NeighborsResult{User: 9, IDs: []int32{11, 30}, Sims: []float32{0.7, 0.5}}
	b := server.NeighborsResult{User: 9, IDs: []int32{4, 2, 7}, Sims: []float32{0.9, 0.7, 0.3}}
	c := server.NeighborsResult{User: 9, IDs: []int32{2}, Sims: []float32{0.7}} // overlap copy
	for _, order := range [][]server.NeighborsResult{{a, b, c}, {c, b, a}, {b, c, a}} {
		got := mergeNeighbors(order, 9, -1)
		// Ties (0.7) break by ascending id: 2 before 11.
		wantIDs := []int32{4, 2, 11, 30, 7}
		gj, _ := json.Marshal(got.IDs)
		wj, _ := json.Marshal(wantIDs)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("merge order %v, want %v", got.IDs, wantIDs)
		}
	}
	if got := mergeNeighbors([]server.NeighborsResult{a, b}, 9, 2); len(got.IDs) != 2 {
		t.Fatalf("k truncation failed: %v", got.IDs)
	}
	_ = full

	// topk: float64 wire values that collide only after float32
	// narrowing must still tie-break by id (the frozen graph's rule).
	x := server.TopKResult{User: 1, Neighbors: []server.Neighbor{{ID: 8, Sim: 0.30000001}}}
	y := server.TopKResult{User: 1, Neighbors: []server.Neighbor{{ID: 3, Sim: 0.30000002}}}
	got := mergeTopK([]server.TopKResult{x, y}, 1, -1)
	if got.Neighbors[0].ID != 3 || got.Neighbors[1].ID != 8 {
		t.Fatalf("narrowed tie-break failed: %+v", got.Neighbors)
	}
}

// TestOverlapMigration: with overlapping ranges (a resharding window),
// answers must come back merged and deduplicated from both owners.
func TestOverlapMigration(t *testing.T) {
	ix := testIndex(t)
	// Both "shards" serve the full index: the overlap window sees the
	// same rows twice and must dedup to the single-snapshot answer.
	_, s0 := startShard(t, ix)
	_, s1 := startShard(t, ix)
	_, direct := startShard(t, ix)
	half := uint32(frh.DefaultShardBuckets / 2)
	rt := newRouter(t, Config{Shards: []ShardSpec{
		{ID: 0, Range: frh.BucketRange{Lo: 1, Hi: half + 200}, Replicas: []string{s0.URL}},
		{ID: 1, Range: frh.BucketRange{Lo: half - 200, Hi: frh.DefaultShardBuckets}, Replicas: []string{s1.URL}},
	}})
	// Find a user inside the overlap window.
	var u int32 = -1
	for cand := int32(0); cand < int32(ix.NumUsers()); cand++ {
		key := frh.ShardKey(cand, frh.DefaultShardBuckets)
		if key >= half-200 && key <= half+200 {
			u = cand
			break
		}
	}
	if u < 0 {
		t.Fatal("no user in the overlap window")
	}
	path := fmt.Sprintf("/v1/neighbors?user=%d&k=5", u)
	wantResp, err := http.Get(direct.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(wantResp.Body)
	wantResp.Body.Close()
	code, _, got := get(t, rt.Handler(), path)
	if code != 200 {
		t.Fatalf("overlap single: status %d: %s", code, got)
	}
	if !bytes.Equal(bytes.TrimRight(got, "\n"), bytes.TrimRight(want, "\n")) {
		t.Fatalf("overlap merge differs from single snapshot\nrouted: %s\ndirect: %s", got, want)
	}
	// Batch with the overlap user in the middle.
	body := fmt.Sprintf(`{"users":[0,%d,1],"k":5}`, u)
	code, _, got = post(t, rt.Handler(), "/v1/neighbors", body)
	if code != 200 {
		t.Fatalf("overlap batch: status %d: %s", code, got)
	}
	var env struct {
		Results []server.NeighborsResult `json:"results"`
	}
	if err := json.Unmarshal(got, &env); err != nil || len(env.Results) != 3 {
		t.Fatalf("overlap batch malformed: %s (%v)", got, err)
	}
	if env.Results[1].User != u {
		t.Fatalf("overlap batch order broken: %+v", env.Results[1])
	}
	wantIDs, _ := ix.Neighbors(u)
	if k := 5; len(wantIDs) > k {
		wantIDs = wantIDs[:k]
	}
	gj, _ := json.Marshal(env.Results[1].IDs)
	wj, _ := json.Marshal(wantIDs)
	if !bytes.Equal(gj, wj) {
		t.Fatalf("overlap batch ids %v, want %v", env.Results[1].IDs, wantIDs)
	}
}

// TestOverlapSingleDegrades: a single GET for a user in a migration
// overlap degrades as the batch path does. A bad count is a 400; with
// one owner down the other's answer is served under the partial
// header; with both down the empty fill is. Each degraded answer counts
// one partial.
func TestOverlapSingleDegrades(t *testing.T) {
	ix := testIndex(t)
	_, live := startShard(t, ix)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "shard down", http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)
	half := uint32(frh.DefaultShardBuckets / 2)
	overlap := func(first, second string) *Router {
		return newRouter(t, Config{HedgeAfter: -1, UpstreamTimeout: 200 * time.Millisecond, Shards: []ShardSpec{
			{ID: 0, Range: frh.BucketRange{Lo: 1, Hi: half + 200}, Replicas: []string{first}},
			{ID: 1, Range: frh.BucketRange{Lo: half - 200, Hi: frh.DefaultShardBuckets}, Replicas: []string{second}},
		}})
	}
	var u int32 = -1
	for cand := int32(0); cand < int32(ix.NumUsers()); cand++ {
		if key := frh.ShardKey(cand, frh.DefaultShardBuckets); key >= half-200 && key <= half+200 {
			u = cand
			break
		}
	}
	if u < 0 {
		t.Fatal("no user in the overlap window")
	}

	rt := overlap(live.URL, dead.URL)
	if code, _, body := get(t, rt.Handler(), fmt.Sprintf("/v1/topk?user=%d&k=zero", u)); code != http.StatusBadRequest {
		t.Fatalf("bad count: status %d, want 400: %s", code, body)
	}
	// No k: the shards' default applies, as on a direct GET.
	path := fmt.Sprintf("/v1/neighbors?user=%d", u)
	resp, err := http.Get(live.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	code, hdr, got := get(t, rt.Handler(), path)
	if code != 200 || hdr.Get(HeaderPartial) != "1" {
		t.Fatalf("one owner down: status %d partial=%q body=%s", code, hdr.Get(HeaderPartial), got)
	}
	if !bytes.Equal(bytes.TrimRight(got, "\n"), bytes.TrimRight(want, "\n")) {
		t.Fatalf("one owner down: routed %s, want the live owner's %s", got, want)
	}
	if n := rt.Stats().partials.Load(); n != 1 {
		t.Fatalf("partials = %d, want 1", n)
	}

	rtDead := overlap(dead.URL, dead.URL)
	code, hdr, got = get(t, rtDead.Handler(), fmt.Sprintf("/v1/topk?user=%d&k=5", u))
	if code != 200 || hdr.Get(HeaderPartial) != "1" {
		t.Fatalf("no owner: status %d partial=%q body=%s", code, hdr.Get(HeaderPartial), got)
	}
	if want := fmt.Sprintf(`{"user":%d,"neighbors":[]}`, u); strings.TrimRight(string(got), "\n") != want {
		t.Fatalf("no owner: body %s, want the empty fill %s", got, want)
	}
	if n := rtDead.Stats().partials.Load(); n != 1 {
		t.Fatalf("partials = %d, want 1", n)
	}
}

// TestRouterValidation: malformed requests are refused at the router
// without touching any shard.
func TestRouterValidation(t *testing.T) {
	// No shard server at all: validation failures must never fan out.
	rt := newRouter(t, Config{
		Shards: []ShardSpec{{ID: 0, Range: frh.BucketRange{Lo: 1, Hi: frh.DefaultShardBuckets},
			Replicas: []string{"http://127.0.0.1:1"}}},
	})
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodGet, "/v1/neighbors?user=notanint", "", 400},
		{http.MethodPost, "/v1/neighbors", `{"users":[]}`, 400},
		{http.MethodPost, "/v1/topk", `not json`, 400},
		{http.MethodPost, "/v1/recommend", `{"users":[1],"n":100000}`, 400},
		{http.MethodDelete, "/v1/neighbors", "", 405},
	} {
		var code int
		if tc.method == http.MethodGet {
			code, _, _ = get(t, rt.Handler(), tc.path)
		} else {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, req)
			code = rec.Code
		}
		if code != tc.want {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, code, tc.want)
		}
	}
	if rt.Stats().upstreamErrs.Load() != 0 {
		t.Fatal("validation failures reached the upstream path")
	}
}

// TestRoutedMappedShards: a routed deployment whose shard replicas
// serve zero-copy mapped snapshots must answer byte-identically to a
// direct copy-decoded server — the sharded tier inherits the load-mode
// equivalence guarantee end to end.
func TestRoutedMappedShards(t *testing.T) {
	ix := testIndex(t)
	snap := filepath.Join(t.TempDir(), "shard.c2")
	if err := ix.Save(snap); err != nil {
		t.Fatal(err)
	}
	cpIx, err := c2knn.LoadIndexMode(snap, c2knn.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	mmIx, err := c2knn.LoadIndexMode(snap, c2knn.LoadMMap)
	if err != nil {
		t.Skipf("mmap unavailable on this platform: %v", err)
	}
	defer mmIx.Close()
	if !mmIx.Mapped() {
		t.Fatal("shard index did not load as a mapping")
	}
	_, direct := startShard(t, cpIx)
	_, shardSrv := startShard(t, mmIx)
	rt := newRouter(t, Config{
		Shards: []ShardSpec{{ID: 0, Range: frh.BucketRange{Lo: 1, Hi: frh.DefaultShardBuckets}, Replicas: []string{shardSrv.URL}}},
	})

	for _, u := range []int32{0, 3, 17, 256, 1<<30 - 1} {
		for _, p := range []string{"/v1/neighbors?user=%d&k=5", "/v1/topk?user=%d&k=4", "/v1/recommend?user=%d&n=10"} {
			path := fmt.Sprintf(p, u)
			wantResp, err := http.Get(direct.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := io.ReadAll(wantResp.Body)
			wantResp.Body.Close()
			code, _, got := get(t, rt.Handler(), path)
			if code != wantResp.StatusCode || !bytes.Equal(got, want) {
				t.Fatalf("%s: mapped-shard routed answer differs (status %d vs %d)\nrouted: %s\ndirect: %s",
					path, code, wantResp.StatusCode, got, want)
			}
		}
	}
}
