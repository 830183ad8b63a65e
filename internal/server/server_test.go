package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"c2knn"
)

// testIndex builds a small C² index; seed varies the graph so swap
// tests can install genuinely different content.
func testIndex(tb testing.TB, seed int64) *c2knn.Index {
	tb.Helper()
	d, err := c2knn.Generate("ml1M", 0.03)
	if err != nil {
		tb.Fatal(err)
	}
	sim, err := c2knn.NewGoldFinger(d, 256)
	if err != nil {
		tb.Fatal(err)
	}
	g, _ := c2knn.BuildC2(d, sim, c2knn.BuildOptions{K: 8, Workers: 2, Seed: seed})
	ix, err := c2knn.NewIndex(g, d, sim)
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

func newTestServer(tb testing.TB, ix *c2knn.Index, cfg Config) (*Server, *httptest.Server) {
	tb.Helper()
	s, err := New(ix, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return s, ts
}

// replaceFile swaps in new file content via temp + rename — the only
// safe way to alter a snapshot a live epoch may have memory-mapped. An
// in-place rewrite would mutate (or, across a truncation, SIGBUS) the
// mapped views mid-serve; the rename leaves the mapped inode untouched.
func replaceFile(tb testing.TB, path string, data []byte) {
	tb.Helper()
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".test-*")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := tmp.Write(data); err != nil {
		tb.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		tb.Fatal(err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		tb.Fatal(err)
	}
}

func getJSON(tb testing.TB, url string, out any) {
	tb.Helper()
	resp, err := http.Get(url)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		tb.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		tb.Fatalf("GET %s: decode: %v", url, err)
	}
}

func postJSON(tb testing.TB, url string, req, out any) int {
	tb.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			tb.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestServerSingleEndpointsMatchIndex(t *testing.T) {
	ix := testIndex(t, 1)
	_, ts := newTestServer(t, ix, Config{})
	for u := int32(0); u < int32(ix.NumUsers()); u += 7 {
		var rec RecommendResult
		getJSON(t, fmt.Sprintf("%s/v1/recommend?user=%d&n=10", ts.URL, u), &rec)
		if want := ix.Recommend(u, 10); !slices.Equal(rec.Items, emptyNotNil(want)) {
			t.Fatalf("user %d: HTTP items %v, Index.Recommend %v", u, rec.Items, want)
		}

		var nb NeighborsResult
		getJSON(t, fmt.Sprintf("%s/v1/neighbors?user=%d", ts.URL, u), &nb)
		ids, sims := ix.Neighbors(u)
		if !slices.Equal(nb.IDs, emptyNotNil(ids)) || len(nb.Sims) != len(sims) {
			t.Fatalf("user %d: HTTP neighbors differ", u)
		}
		for i := range sims {
			if nb.Sims[i] != sims[i] {
				t.Fatalf("user %d: sim %d differs: %v vs %v", u, i, nb.Sims[i], sims[i])
			}
		}

		var tk TopKResult
		getJSON(t, fmt.Sprintf("%s/v1/topk?user=%d&k=3", ts.URL, u), &tk)
		want := ix.TopK(u, 3)
		if len(tk.Neighbors) != len(want) {
			t.Fatalf("user %d: topk lengths differ", u)
		}
		for i, nbj := range tk.Neighbors {
			if nbj.ID != want[i].ID || nbj.Sim != want[i].Sim {
				t.Fatalf("user %d: topk[%d] = %+v, want %+v", u, i, nbj, want[i])
			}
		}
	}
	// Out-of-range users: empty results, not errors.
	var rec RecommendResult
	getJSON(t, ts.URL+"/v1/recommend?user=999999&n=10", &rec)
	if len(rec.Items) != 0 {
		t.Fatalf("out-of-range user got items %v", rec.Items)
	}
}

// TestServerNeighborsHonorsK: ?k= must truncate the adjacency (its
// prefix is the top-k, since it is pre-sorted by decreasing sim).
func TestServerNeighborsHonorsK(t *testing.T) {
	ix := testIndex(t, 1)
	_, ts := newTestServer(t, ix, Config{})
	ids, sims := ix.Neighbors(3)
	if len(ids) < 3 {
		t.Skip("user 3 has too few neighbors for a truncation check")
	}
	var nb NeighborsResult
	getJSON(t, ts.URL+"/v1/neighbors?user=3&k=2", &nb)
	if !slices.Equal(nb.IDs, ids[:2]) || !slices.Equal(nb.Sims, sims[:2]) {
		t.Fatalf("k=2 returned (%v, %v), want the 2-prefix of (%v, %v)", nb.IDs, nb.Sims, ids, sims)
	}
	var batch BatchResponse[NeighborsResult]
	if code := postJSON(t, ts.URL+"/v1/neighbors", BatchRequest{Users: []int32{3}, K: 2}, &batch); code != 200 {
		t.Fatalf("batch status %d", code)
	}
	if !slices.Equal(batch.Results[0].IDs, ids[:2]) {
		t.Fatalf("batched k=2 returned %v, want %v", batch.Results[0].IDs, ids[:2])
	}
}

func TestServerBatchMatchesSerial(t *testing.T) {
	ix := testIndex(t, 1)
	_, ts := newTestServer(t, ix, Config{})
	users := []int32{0, 5, 3, 3, int32(ix.NumUsers()) + 4, 11, -2, 1}
	var rec BatchResponse[RecommendResult]
	if code := postJSON(t, ts.URL+"/v1/recommend", BatchRequest{Users: users, N: 12}, &rec); code != 200 {
		t.Fatalf("batch recommend status %d", code)
	}
	if len(rec.Results) != len(users) {
		t.Fatalf("batch returned %d results for %d users", len(rec.Results), len(users))
	}
	for i, u := range users {
		if rec.Results[i].User != u {
			t.Fatalf("result %d is for user %d, want %d", i, rec.Results[i].User, u)
		}
		if want := emptyNotNil(ix.Recommend(u, 12)); !slices.Equal(rec.Results[i].Items, want) {
			t.Fatalf("user %d: batch items %v, serial %v", u, rec.Results[i].Items, want)
		}
	}

	var tk BatchResponse[TopKResult]
	if code := postJSON(t, ts.URL+"/v1/topk", BatchRequest{Users: users, K: 4}, &tk); code != 200 {
		t.Fatalf("batch topk status %d", code)
	}
	for i, u := range users {
		want := ix.TopK(u, 4)
		if len(tk.Results[i].Neighbors) != len(want) {
			t.Fatalf("user %d: batch topk length %d, serial %d", u, len(tk.Results[i].Neighbors), len(want))
		}
	}

	var nb BatchResponse[NeighborsResult]
	if code := postJSON(t, ts.URL+"/v1/neighbors", BatchRequest{Users: users}, &nb); code != 200 {
		t.Fatalf("batch neighbors status %d", code)
	}
	for i, u := range users {
		ids, _ := ix.Neighbors(u)
		if !slices.Equal(nb.Results[i].IDs, emptyNotNil(ids)) {
			t.Fatalf("user %d: batch neighbor ids differ", u)
		}
	}
}

// TestServerCountBoundary pins the k/n cap at its boundary on every
// query endpoint: 1000 is answered, 1001 is refused with 400, for
// single and batched requests.
func TestServerCountBoundary(t *testing.T) {
	ix := testIndex(t, 1)
	_, ts := newTestServer(t, ix, Config{})
	for ep := Endpoint(0); ep < numEndpoints; ep++ {
		for _, tc := range []struct{ count, want int }{{1000, 200}, {1001, 400}} {
			url := fmt.Sprintf("%s/v1/%s?user=1&%s=%d", ts.URL, ep, countParam(ep), tc.count)
			resp, err := http.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("GET %s: status %d, want %d", url, resp.StatusCode, tc.want)
			}
			req := BatchRequest{Users: []int32{1, 2}, K: tc.count}
			if ep == EpRecommend {
				req = BatchRequest{Users: []int32{1, 2}, N: tc.count}
			}
			if code := postJSON(t, ts.URL+"/v1/"+ep.String(), req, nil); code != tc.want {
				t.Errorf("POST /v1/%s with %s=%d: status %d, want %d", ep, countParam(ep), tc.count, code, tc.want)
			}
		}
	}
}

func TestServerBadRequests(t *testing.T) {
	ix := testIndex(t, 1)
	_, ts := newTestServer(t, ix, Config{Front: Front{MaxBatch: 4}})
	for _, url := range []string{
		"/v1/recommend",             // missing user
		"/v1/recommend?user=abc",    // non-numeric
		"/v1/recommend?user=1&n=0",  // zero n
		"/v1/recommend?user=1&n=-3", // negative n
		"/v1/topk?user=1&k=999999",  // above MaxResults
	} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", url, resp.StatusCode)
		}
	}
	if code := postJSON(t, ts.URL+"/v1/recommend", BatchRequest{Users: []int32{1, 2, 3, 4, 5}}, nil); code != 400 {
		t.Errorf("over-limit batch: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/recommend", BatchRequest{}, nil); code != 400 {
		t.Errorf("empty batch: status %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/v1/recommend", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/recommend", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/admin/reload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /admin/reload: status %d, want 405", resp.StatusCode)
	}
}

func TestServerHealthzStatsz(t *testing.T) {
	ix := testIndex(t, 1)
	_, ts := newTestServer(t, ix, Config{})
	var h HealthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" || h.Users != ix.NumUsers() || h.K != ix.K() || h.Epoch != 1 {
		t.Fatalf("healthz = %+v", h)
	}
	// Same query twice: second must be a cache hit.
	var rec RecommendResult
	getJSON(t, ts.URL+"/v1/recommend?user=1&n=5", &rec)
	getJSON(t, ts.URL+"/v1/recommend?user=1&n=5", &rec)
	var st Snapshot
	getJSON(t, ts.URL+"/statsz", &st)
	if st.Requests != 2 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("statsz after 2 identical queries: %+v", st)
	}
	if st.CacheHitRate != 0.5 || st.CacheEntries != 1 {
		t.Fatalf("statsz cache fields: %+v", st)
	}
	if st.ByEndpoint["recommend"] != 2 {
		t.Fatalf("statsz per-endpoint: %+v", st.ByEndpoint)
	}
	if st.P99Micros <= 0 {
		t.Fatalf("statsz p99 = %v, want > 0 after traffic", st.P99Micros)
	}
}

// TestServerCacheHitZeroAlloc: the whole internal fast path — key
// build, shard lookup, recency update — must not allocate on a hit.
func TestServerCacheHitZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates; the non-race run enforces this")
	}
	ix := testIndex(t, 1)
	s, err := New(ix, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := cacheHitAllocs(s, 3, 10, 2000); allocs != 0 {
		t.Errorf("cache-hit path allocates %v per query, want 0", allocs)
	}
}

// cacheHitAllocs measures the allocations per cache-hit query on the
// recommend fast path: it primes the cache with one (user, n) query,
// then replays it iters times and returns the mean allocation count per
// replay, as runtime.MemStats sees it, or -1 if a replay missed. It
// pins the process to one P, as testing.AllocsPerRun does, so other
// goroutines' allocations stay off the counter; call it on an otherwise
// idle server.
func cacheHitAllocs(s *Server, u int32, n, iters int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s.answer(context.Background(), EpRecommend, u, nil, n) // prime (marshal + insert)
	runtime.GC()
	// Re-warm the key-scratch pool: the GC above may have demoted its
	// buffers, and a first Get would then count one allocation that no
	// steady-state query pays.
	if _, hit, _ := s.answer(context.Background(), EpRecommend, u, nil, n); !hit {
		return -1
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		if _, hit, _ := s.answer(context.Background(), EpRecommend, u, nil, n); !hit {
			return -1 // evicted mid-measurement; report as failure
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// TestServerReloadAndErrorKinds exercises /admin/reload end to end:
// a healthy snapshot swaps (epoch bump, cache retired), a version-skewed
// file reports kind=version, a corrupt file kind=corrupt, and in every
// failure case the old index keeps serving.
func TestServerReloadAndErrorKinds(t *testing.T) {
	ix := testIndex(t, 1)
	dir := t.TempDir()
	snap := filepath.Join(dir, "index.c2")
	if err := ix.Save(snap); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, ix, Config{SnapshotPath: snap})

	// Warm the cache, then reload: the swap must flush the dead epoch's
	// entries rather than leave them squatting on the budgets.
	var warm RecommendResult
	getJSON(t, ts.URL+"/v1/recommend?user=2&n=5", &warm)
	if s.cache.Len() != 1 {
		t.Fatalf("cache holds %d entries after one query, want 1", s.cache.Len())
	}
	var rr reloadResponse
	if code := postJSON(t, ts.URL+"/admin/reload", struct{}{}, &rr); code != 200 {
		t.Fatalf("reload status %d", code)
	}
	if rr.Status != "ok" || rr.Epoch != 2 || rr.Users != ix.NumUsers() {
		t.Fatalf("reload response %+v", rr)
	}
	if s.Epoch() != 2 {
		t.Fatalf("server epoch %d after reload, want 2", s.Epoch())
	}
	if s.cache.Len() != 0 {
		t.Fatalf("cache holds %d stale entries after the swap, want 0 (flushed)", s.cache.Len())
	}

	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Version skew: the uint32 at offset 8 is the format version.
	skewed := append([]byte(nil), raw...)
	skewed[8] = 99
	replaceFile(t, snap, skewed)
	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var fail reloadResponse
	json.NewDecoder(resp.Body).Decode(&fail)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || fail.Kind != "version" {
		t.Fatalf("version-skew reload: status %d, kind %q (want 503, version)", resp.StatusCode, fail.Kind)
	}

	// Corruption: flip a payload byte (past the 16-byte header and the
	// 12-byte section header).
	corrupt := append([]byte(nil), raw...)
	corrupt[40] ^= 0xff
	replaceFile(t, snap, corrupt)
	resp, err = http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	fail = reloadResponse{}
	json.NewDecoder(resp.Body).Decode(&fail)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || fail.Kind != "corrupt" {
		t.Fatalf("corrupt reload: status %d, kind %q (want 503, corrupt)", resp.StatusCode, fail.Kind)
	}

	// Failed reloads must not have disturbed serving.
	if s.Epoch() != 2 {
		t.Fatalf("failed reloads changed the epoch to %d", s.Epoch())
	}
	var rec RecommendResult
	getJSON(t, ts.URL+"/v1/recommend?user=1&n=5", &rec)
	if want := emptyNotNil(ix.Recommend(1, 5)); !slices.Equal(rec.Items, want) {
		t.Fatalf("serving diverged after failed reloads")
	}
}

// TestServerHotSwapUnderLoad hammers the server from many goroutines
// while the index is swapped to different content mid-flight: every
// response must be a 200 matching either the old or the new index
// bit-for-bit, and after the swap settles, new requests must see the
// new index (the epoch-keyed cache may not serve stale results).
func TestServerHotSwapUnderLoad(t *testing.T) {
	oldIx := testIndex(t, 1)
	newIx := testIndex(t, 99)
	s, ts := newTestServer(t, oldIx, Config{})

	const nRec = 9
	users := oldIx.NumUsers()
	wantOld := make([][]int32, users)
	wantNew := make([][]int32, users)
	differs := false
	for u := 0; u < users; u++ {
		wantOld[u] = emptyNotNil(oldIx.Recommend(int32(u), nRec))
		wantNew[u] = emptyNotNil(newIx.Recommend(int32(u), nRec))
		if !slices.Equal(wantOld[u], wantNew[u]) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("test indexes are identical; swap would be unobservable")
	}

	const workers = 16
	const perWorker = 60
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	client := ts.Client()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				u := (w*perWorker + i) % users
				resp, err := client.Get(fmt.Sprintf("%s/v1/recommend?user=%d&n=%d", ts.URL, u, nRec))
				if err != nil {
					errs <- err
					return
				}
				var rec RecommendResult
				err = json.NewDecoder(resp.Body).Decode(&rec)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("status %d during swap", resp.StatusCode)
					return
				}
				if !slices.Equal(rec.Items, wantOld[u]) && !slices.Equal(rec.Items, wantNew[u]) {
					errs <- fmt.Errorf("user %d: response matches neither index", u)
					return
				}
			}
		}(w)
	}
	s.Swap(newIx)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.Epoch() != 2 {
		t.Fatalf("epoch %d after swap, want 2", s.Epoch())
	}
	// Post-swap: responses must be the new index's, even for queries the
	// old epoch cached.
	for u := 0; u < users; u++ {
		var rec RecommendResult
		getJSON(t, fmt.Sprintf("%s/v1/recommend?user=%d&n=%d", ts.URL, u, nRec), &rec)
		if !slices.Equal(rec.Items, wantNew[u]) {
			t.Fatalf("user %d: post-swap response is not the new index's", u)
		}
	}
}

// TestServerLoadModeByteIdentity: a server answering from a zero-copy
// mapped index and one answering from a copy-decoded index of the same
// snapshot must return byte-identical HTTP bodies — the guarantee that
// lets the load mode vary per platform (and per C2_LOAD override)
// without any observable behavior change.
func TestServerLoadModeByteIdentity(t *testing.T) {
	ix := testIndex(t, 7)
	snap := filepath.Join(t.TempDir(), "index.c2")
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
	if !mmIx.Mapped() || cpIx.Mapped() {
		t.Fatalf("load modes not honored: mmap Mapped=%v, copy Mapped=%v", mmIx.Mapped(), cpIx.Mapped())
	}
	_, cpTS := newTestServer(t, cpIx, Config{})
	_, mmTS := newTestServer(t, mmIx, Config{})

	body := func(ts *httptest.Server, path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, b)
		}
		return b
	}
	paths := []string{
		"/v1/recommend?user=0&n=10",
		"/v1/recommend?user=17&n=5",
		"/v1/neighbors?user=3&k=8",
		"/v1/neighbors?user=42&k=3",
	}
	for u := 0; u < cpIx.NumUsers(); u += 97 {
		paths = append(paths, fmt.Sprintf("/v1/recommend?user=%d&n=10", u))
	}
	for _, p := range paths {
		if cp, mm := body(cpTS, p), body(mmTS, p); !bytes.Equal(cp, mm) {
			t.Fatalf("GET %s differs between load modes:\ncopy: %s\nmmap: %s", p, cp, mm)
		}
	}
}

// TestServerSwapDrainsMappedEpoch: swapping away from a mapped index
// closes it — new retains are refused, so a request racing the swap
// re-resolves the fresh epoch — while the server keeps answering
// correctly from the new index.
func TestServerSwapDrainsMappedEpoch(t *testing.T) {
	ix := testIndex(t, 1)
	snap := filepath.Join(t.TempDir(), "index.c2")
	if err := ix.Save(snap); err != nil {
		t.Fatal(err)
	}
	mmIx, err := c2knn.LoadIndexMode(snap, c2knn.LoadMMap)
	if err != nil {
		t.Skipf("mmap unavailable on this platform: %v", err)
	}
	s, ts := newTestServer(t, mmIx, Config{})

	var before RecommendResult
	getJSON(t, ts.URL+"/v1/recommend?user=5&n=5", &before)

	next := testIndex(t, 2)
	s.Swap(next)
	if mmIx.Retain() {
		t.Fatal("retired mapped epoch still accepts retains after the swap closed it")
	}
	var after RecommendResult
	getJSON(t, ts.URL+"/v1/recommend?user=5&n=5", &after)
	want := emptyNotNil(next.Recommend(5, 5))
	if !slices.Equal(after.Items, want) {
		t.Fatalf("post-swap response %v does not match the new index %v", after.Items, want)
	}
}
