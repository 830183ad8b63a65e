// End-to-end test of the build/serve toolchain as a user runs it:
// generate a dataset, build a snapshot with the real c2build binary,
// start the real c2serve daemon on a free port, and check that every
// HTTP answer matches the in-process Index bit-for-bit — including
// while 100 concurrent clients are hammering the daemon through a
// zero-downtime snapshot hot-swap (POST /admin/reload and SIGHUP).
package c2knn_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"c2knn"
	"c2knn/internal/dataset"
	"c2knn/internal/persist"
	"c2knn/internal/server"
)

// buildBinaries compiles c2build and c2serve once into dir.
func buildBinaries(t *testing.T, dir string) (c2build, c2serve string) {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH; skipping binary e2e")
	}
	c2build = filepath.Join(dir, "c2build")
	c2serve = filepath.Join(dir, "c2serve")
	args := []string{"build"}
	// When the test itself runs under -race (the CI server-race job),
	// build the daemon race-instrumented too — otherwise the hot-swap
	// interleavings this test provokes would only be checked in the
	// client harness, not in the process actually serving them.
	if server.RaceEnabled {
		args = append(args, "-race")
	}
	for bin, pkg := range map[string]string{c2build: "./cmd/c2build", c2serve: "./cmd/c2serve"} {
		cmd := exec.Command(goBin, append(args, "-o", bin, pkg)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return c2build, c2serve
}

// startServe launches the daemon and returns its base URL and process.
func startServe(t *testing.T, c2serve, snap string) (string, *exec.Cmd) {
	t.Helper()
	return startServeArgs(t, c2serve, "-snap", snap, "-addr", "127.0.0.1:0", "-cache", "2048")
}

// startServeArgs launches c2serve with explicit flags (any role) and
// returns its base URL and process.
func startServeArgs(t *testing.T, c2serve string, args ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(c2serve, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	// The daemon prints "c2serve: listening on HOST:PORT" once bound.
	sc := bufio.NewScanner(stdout)
	deadline := time.After(30 * time.Second)
	addrCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "c2serve: listening on "); ok {
				addrCh <- strings.TrimSpace(rest)
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr, cmd
	case <-deadline:
		t.Fatal("c2serve did not report a listen address within 30s")
		return "", nil
	}
}

type e2eRecommendResult struct {
	User  int32   `json:"user"`
	Items []int32 `json:"items"`
}

type e2eBatchResponse struct {
	Results []e2eRecommendResult `json:"results"`
}

func fetchRecommend(client *http.Client, base string, u int32, n int) ([]int32, error) {
	resp, err := client.Get(fmt.Sprintf("%s/v1/recommend?user=%d&n=%d", base, u, n))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var rec e2eRecommendResult
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		return nil, err
	}
	return rec.Items, nil
}

func fetchEpoch(client *http.Client, base string) (uint64, error) {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, err
	}
	return h.Epoch, nil
}

// TestE2EServeDaemon is the serving load test: through 100 clients and
// two mid-load hot swaps no request fails or diverges from
// Index.Recommend, and the repeating load hits the response cache at
// least a fifth of the time.
func TestE2EServeDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("binary e2e is not -short")
	}
	dir := t.TempDir()
	c2build, c2serve := buildBinaries(t, dir)

	// Synth dataset -> plain-text profile file -> c2build -snap.
	d, err := c2knn.Generate("ml1M", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	dataPath := filepath.Join(dir, "data.txt")
	if err := dataset.WriteFile(dataPath, d); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "index.c2")
	build := exec.Command(c2build, "-in", dataPath, "-snap", snap, "-k", "10", "-workers", "2", "-seed", "7")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("c2build: %v\n%s", err, out)
	}

	// The in-process reference the daemon must match bit-for-bit.
	ix, err := c2knn.LoadIndex(snap)
	if err != nil {
		t.Fatal(err)
	}
	const nRec = 10
	users := ix.NumUsers()
	expected := make([][]int32, users)
	for u := 0; u < users; u++ {
		expected[u] = ix.Recommend(int32(u), nRec)
		if expected[u] == nil {
			expected[u] = []int32{}
		}
	}

	base, proc := startServe(t, c2serve, snap)
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        200,
			MaxIdleConnsPerHost: 200,
		},
	}

	// Phase 1: serial identity, single and batched.
	for u := 0; u < users; u += 3 {
		items, err := fetchRecommend(client, base, int32(u), nRec)
		if err != nil {
			t.Fatalf("user %d: %v", u, err)
		}
		if !slices.Equal(items, expected[u]) {
			t.Fatalf("user %d: HTTP %v, Index.Recommend %v", u, items, expected[u])
		}
	}
	batchUsers := make([]int32, 0, users)
	for u := 0; u < users; u++ {
		batchUsers = append(batchUsers, int32(u))
	}
	body, _ := json.Marshal(map[string]any{"users": batchUsers, "n": nRec})
	resp, err := client.Post(base+"/v1/recommend", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var batch e2eBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(batch.Results) != users {
		t.Fatalf("batch returned %d results for %d users", len(batch.Results), users)
	}
	for u, r := range batch.Results {
		if !slices.Equal(r.Items, expected[u]) {
			t.Fatalf("user %d: batched HTTP %v, Index.Recommend %v", u, r.Items, expected[u])
		}
	}

	// Phase 2: 100 concurrent clients, with a hot swap mid-load. The
	// snapshot content is unchanged (same file reloaded), so every
	// response — before, during, after the swap — must stay bit-for-bit
	// identical, and no request may fail.
	const clients = 100
	const perClient = 20
	var failed, mismatched int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				u := (c*perClient + i) % users
				var items []int32
				var err error
				if i%5 == 4 { // every fifth request is a small batch
					span := []int32{int32(u), int32((u + 1) % users), int32((u + 2) % users)}
					b, _ := json.Marshal(map[string]any{"users": span, "n": nRec})
					resp, perr := client.Post(base+"/v1/recommend", "application/json", bytes.NewReader(b))
					if perr != nil {
						err = perr
					} else {
						var br e2eBatchResponse
						err = json.NewDecoder(resp.Body).Decode(&br)
						resp.Body.Close()
						if err == nil && resp.StatusCode != 200 {
							err = fmt.Errorf("status %d", resp.StatusCode)
						}
						if err == nil && len(br.Results) != len(span) {
							// A truncated results array is a wrong answer,
							// not a shorter loop.
							err = fmt.Errorf("batch returned %d results for %d users", len(br.Results), len(span))
						}
						if err == nil {
							for j, r := range br.Results {
								if !slices.Equal(r.Items, expected[span[j]]) {
									mu.Lock()
									mismatched++
									mu.Unlock()
								}
							}
							continue
						}
					}
					if err != nil {
						mu.Lock()
						failed++
						mu.Unlock()
					}
					continue
				}
				items, err = fetchRecommend(client, base, int32(u), nRec)
				if err != nil {
					mu.Lock()
					failed++
					mu.Unlock()
					continue
				}
				// Compare unconditionally: a wrong-shaped 200 body decodes
				// to nil items and must count as a mismatch, not a skip
				// (expected[u] is non-nil for every user with items).
				if !slices.Equal(items, expected[u]) {
					mu.Lock()
					mismatched++
					mu.Unlock()
				}
			}
		}(c)
	}
	// Mid-load: hot-swap twice, once via the admin endpoint and once via
	// SIGHUP, checking the epoch advances both times.
	epoch0, err := fetchEpoch(client, base)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = client.Post(base+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatalf("admin reload: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("admin reload: status %d", resp.StatusCode)
	}
	if err := proc.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatalf("SIGHUP: %v", err)
	}
	swapDeadline := time.Now().Add(15 * time.Second)
	for {
		ep, err := fetchEpoch(client, base)
		if err == nil && ep >= epoch0+2 {
			break
		}
		if time.Now().After(swapDeadline) {
			t.Fatalf("epoch did not advance past %d within 15s (last %v, err %v)", epoch0+1, ep, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	wg.Wait()
	if failed != 0 {
		t.Fatalf("%d requests failed during the concurrent hot-swap load", failed)
	}
	if mismatched != 0 {
		t.Fatalf("%d responses diverged from Index.Recommend during the load", mismatched)
	}

	// Phase 3: stats sanity after the storm.
	resp, err = client.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Requests     uint64  `json:"requests"`
		CacheHitRate float64 `json:"cache_hit_rate"`
		Swaps        uint64  `json:"snapshot_swaps"`
		P99Micros    float64 `json:"p99_us"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Requests < clients*perClient/2 {
		t.Fatalf("statsz reports %d requests, expected at least %d", stats.Requests, clients*perClient/2)
	}
	if stats.Swaps < 2 {
		t.Fatalf("statsz reports %d swaps, expected >= 2", stats.Swaps)
	}
	t.Logf("cache hit rate %.2f over %d requests", stats.CacheHitRate, stats.Requests)
	if !(stats.CacheHitRate >= 0.2) {
		t.Fatalf("cache hit rate %v after a repeating load, expected >= 0.2", stats.CacheHitRate)
	}
	if stats.P99Micros <= 0 {
		t.Fatalf("p99 %v after traffic, expected > 0", stats.P99Micros)
	}

	// Phase 4: graceful drain — SIGTERM must exit 0 after draining.
	if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- proc.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("c2serve did not exit cleanly on SIGTERM: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("c2serve did not exit within 20s of SIGTERM")
	}

	// Phase 5: a writable daemon on the same snapshot places upserts with
	// the family the snapshot records — c2build's -seed 7 and the
	// default T of 8 — with no flag restating it, and attaches from the
	// bucket table the snapshot carries.
	wbase, _ := startServeArgs(t, c2serve, "-snap", snap, "-addr", "127.0.0.1:0", "-upserts", "-compact-every", "0")
	resp, err = client.Post(wbase+"/v1/upsert", "application/json", strings.NewReader(`{"items":[1,2,3,5,8]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("upsert: status %d", resp.StatusCode)
	}
	resp, err = client.Get(wbase + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var wstats struct {
		Delta *struct {
			Depth     int `json:"depth"`
			Placement struct {
				B, T, N int
				Seed    int64
			} `json:"placement"`
			Buckets  string  `json:"buckets"`
			AttachMS float64 `json:"attach_ms"`
		} `json:"delta"`
	}
	err = json.NewDecoder(resp.Body).Decode(&wstats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if wstats.Delta == nil || wstats.Delta.Depth != 1 {
		t.Fatalf("writable /statsz delta block %+v, want depth 1", wstats.Delta)
	}
	if p := wstats.Delta.Placement; p.Seed != 7 || p.T != 8 || p.B != 4096 || p.N != 2000 {
		t.Fatalf("writable /statsz placement %+v, want the build's B=4096 T=8 N=2000 seed 7", p)
	}
	if d := wstats.Delta; d.Buckets != "snapshot" || d.AttachMS <= 0 {
		t.Fatalf("writable /statsz buckets %q, attach_ms %v; want the snapshot's table and a positive time", d.Buckets, d.AttachMS)
	}
}

// routerStatsz is the slice of the router /statsz body this test reads.
type routerStatsz struct {
	ReloadFailures uint64 `json:"reload_failures"`
	LastReloadKind string `json:"last_reload_kind"`
	Router         struct {
		Partials  uint64 `json:"partial_responses"`
		Failovers uint64 `json:"failover_tries"`
		EpochSkew bool   `json:"epoch_skew"`
		EpochMin  uint64 `json:"epoch_min"`
		EpochMax  uint64 `json:"epoch_max"`
		Shards    []struct {
			ID        int  `json:"id"`
			EpochSkew bool `json:"epoch_skew"`
		} `json:"shards"`
	} `json:"router"`
}

func fetchRouterStatsz(client *http.Client, base string) (routerStatsz, error) {
	var st routerStatsz
	resp, err := client.Get(base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// fetchRecommendPartial is fetchRecommend plus the degradation signal:
// it reports whether the router flagged the response X-C2-Partial.
func fetchRecommendPartial(client *http.Client, base string, u int32, n int) ([]int32, bool, error) {
	resp, err := client.Get(fmt.Sprintf("%s/v1/recommend?user=%d&n=%d", base, u, n))
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	partial := resp.Header.Get("X-C2-Partial") != ""
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		return nil, partial, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var rec e2eRecommendResult
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		return nil, partial, err
	}
	return rec.Items, partial, nil
}

// TestE2EShardedServe runs the full sharded tier as an operator would:
// c2build -shards 2, four shard daemons (two replicas per shard), and a
// router fronting them — then checks routed answers match the unsharded
// in-process Index, keeps 100 concurrent clients running while one
// replica is SIGKILLed and the other shard hot-swaps its snapshot one
// replica at a time (the router must surface the transient epoch skew),
// and requires zero failed requests and zero wrong answers throughout.
func TestE2EShardedServe(t *testing.T) {
	if testing.Short() {
		t.Skip("binary e2e is not -short")
	}
	dir := t.TempDir()
	c2build, c2serve := buildBinaries(t, dir)

	d, err := c2knn.Generate("ml1M", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	dataPath := filepath.Join(dir, "data.txt")
	if err := dataset.WriteFile(dataPath, d); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "index.c2")
	build := exec.Command(c2build, "-in", dataPath, "-snap", snap, "-k", "10", "-workers", "2", "-seed", "7", "-shards", "2")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("c2build -shards: %v\n%s", err, out)
	}
	for _, f := range []string{snap + ".shard0", snap + ".shard1", snap + ".manifest"} {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("c2build -shards did not write %s: %v", f, err)
		}
	}
	// Every shard snapshot records the clustering of the parent build.
	whole, err := persist.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if c := whole.Graph.Clustering; c.Seed != 7 || c.T != 8 || whole.GoldFinger.Seed() != c2knn.DefaultGFSeed {
		t.Fatalf("c2build -seed 7 snapshot records %+v, fingerprint seed %#x", c, whole.GoldFinger.Seed())
	}
	for _, f := range []string{snap + ".shard0", snap + ".shard1"} {
		sh, err := persist.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if sh.Graph.Clustering != whole.Graph.Clustering || sh.GoldFinger.Seed() != whole.GoldFinger.Seed() {
			t.Fatalf("%s records %+v and fingerprint seed %#x, the parent build %+v and %#x",
				f, sh.Graph.Clustering, sh.GoldFinger.Seed(), whole.Graph.Clustering, whole.GoldFinger.Seed())
		}
	}

	// The unsharded reference: routed answers must match it exactly.
	ix, err := c2knn.LoadIndex(snap)
	if err != nil {
		t.Fatal(err)
	}
	const nRec = 10
	users := ix.NumUsers()
	expected := make([][]int32, users)
	for u := 0; u < users; u++ {
		expected[u] = ix.Recommend(int32(u), nRec)
		if expected[u] == nil {
			expected[u] = []int32{}
		}
	}

	// Two replicas per shard. Caches stay on (default) — replicas of one
	// shard must still agree because answers are pure index functions.
	var reps [2][2]struct {
		base string
		proc *exec.Cmd
	}
	for s := 0; s < 2; s++ {
		for r := 0; r < 2; r++ {
			base, proc := startServeArgs(t, c2serve,
				"-role", "shard", "-snap", fmt.Sprintf("%s.shard%d", snap, s), "-addr", "127.0.0.1:0")
			reps[s][r].base, reps[s][r].proc = base, proc
		}
	}
	router, routerProc := startServeArgs(t, c2serve,
		"-role", "router", "-manifest", snap+".manifest",
		"-shard-addrs", fmt.Sprintf("0=%s|%s,1=%s|%s", reps[0][0].base, reps[0][1].base, reps[1][0].base, reps[1][1].base),
		"-addr", "127.0.0.1:0", "-hedge", "100ms", "-health-every", "150ms",
		// Race-instrumented CI runs saturate the box; a generous upstream
		// budget keeps health probes from flapping replicas unhealthy.
		"-upstream-timeout", "10s")
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        200,
			MaxIdleConnsPerHost: 200,
		},
	}

	// Phase 1: serial identity through the router — singles and one big
	// batch spanning both shards.
	for u := 0; u < users; u += 3 {
		items, partial, err := fetchRecommendPartial(client, router, int32(u), nRec)
		if err != nil {
			t.Fatalf("user %d via router: %v", u, err)
		}
		if partial {
			t.Fatalf("user %d: partial response with all replicas up", u)
		}
		if !slices.Equal(items, expected[u]) {
			t.Fatalf("user %d: routed %v, Index.Recommend %v", u, items, expected[u])
		}
	}
	batchUsers := make([]int32, 0, users)
	for u := 0; u < users; u++ {
		batchUsers = append(batchUsers, int32(u))
	}
	body, _ := json.Marshal(map[string]any{"users": batchUsers, "n": nRec})
	resp, err := client.Post(router+"/v1/recommend", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var batch e2eBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(batch.Results) != users {
		t.Fatalf("routed batch returned %d results for %d users", len(batch.Results), users)
	}
	for u, r := range batch.Results {
		if r.User != int32(u) {
			t.Fatalf("routed batch result %d is for user %d: cross-shard stitching broke request order", u, r.User)
		}
		if !slices.Equal(r.Items, expected[u]) {
			t.Fatalf("user %d: routed batch %v, Index.Recommend %v", u, r.Items, expected[u])
		}
	}

	// Phase 2: 100 concurrent clients while a shard-0 replica is killed
	// outright and shard 1 hot-swaps its snapshot one replica at a time.
	// Failover must keep every request whole: a partial response is only
	// tolerated (bounded, flagged) — a failed request or a silently wrong
	// answer never is.
	const clients = 100
	const perClient = 20
	var failed, mismatched, partials int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				u := (c*perClient + i) % users
				if i%5 == 4 { // every fifth request is a small cross-shard batch
					span := []int32{int32(u), int32((u + 1) % users), int32((u + 2) % users)}
					b, _ := json.Marshal(map[string]any{"users": span, "n": nRec})
					resp, err := client.Post(router+"/v1/recommend", "application/json", bytes.NewReader(b))
					if err != nil {
						mu.Lock()
						failed++
						mu.Unlock()
						continue
					}
					partial := resp.Header.Get("X-C2-Partial") != ""
					var br e2eBatchResponse
					err = json.NewDecoder(resp.Body).Decode(&br)
					resp.Body.Close()
					if err == nil && resp.StatusCode != 200 {
						err = fmt.Errorf("status %d", resp.StatusCode)
					}
					if err == nil && len(br.Results) != len(span) {
						err = fmt.Errorf("batch returned %d results for %d users", len(br.Results), len(span))
					}
					if err != nil {
						mu.Lock()
						failed++
						mu.Unlock()
						continue
					}
					mu.Lock()
					if partial {
						partials++
					}
					for j, r := range br.Results {
						// A partial response substitutes flagged empty rows;
						// only unflagged divergence is a wrong answer.
						if !partial && !slices.Equal(r.Items, expected[span[j]]) {
							mismatched++
						}
					}
					mu.Unlock()
					continue
				}
				items, partial, err := fetchRecommendPartial(client, router, int32(u), nRec)
				mu.Lock()
				switch {
				case err != nil:
					failed++
				case partial:
					partials++
				case !slices.Equal(items, expected[u]):
					mismatched++
				}
				mu.Unlock()
			}
		}(c)
	}

	// Mid-load event 1: SIGKILL a shard-0 replica. The router's health
	// poll plus per-request failover absorb it.
	if err := reps[0][0].proc.Process.Kill(); err != nil {
		t.Fatal(err)
	}

	// Mid-load event 2: hot-swap shard 1's snapshot one replica at a
	// time. Between the two SIGHUPs its replicas serve different epochs —
	// the router must surface the skew in /statsz.
	if err := reps[1][0].proc.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	skewDeadline := time.Now().Add(60 * time.Second)
	for {
		st, err := fetchRouterStatsz(client, router)
		if err == nil && st.Router.EpochSkew {
			if len(st.Router.Shards) != 2 || st.Router.Shards[0].EpochSkew || !st.Router.Shards[1].EpochSkew {
				t.Fatalf("skew misattributed: %+v", st.Router.Shards)
			}
			// The skew flag and the reload-failure record are updated by
			// separate poll paths; keep polling until both have landed
			// rather than judging the counter at first skew sighting.
			if st.ReloadFailures > 0 && st.LastReloadKind == "epoch-skew" {
				break
			}
		}
		if time.Now().After(skewDeadline) {
			t.Fatal("router did not surface epoch skew within 60s of a one-replica hot swap")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := reps[1][1].proc.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	skewDeadline = time.Now().Add(60 * time.Second)
	// Skew is an intra-shard signal: shard 0 legitimately stays on epoch
	// 1 while shard 1 moves to 2, so only shard 1's convergence (and the
	// global flag dropping) marks the swap complete.
	for {
		st, err := fetchRouterStatsz(client, router)
		if err == nil && !st.Router.EpochSkew && st.Router.EpochMax >= 2 {
			break
		}
		if time.Now().After(skewDeadline) {
			t.Fatal("epoch skew did not clear within 60s of swapping the second replica")
		}
		time.Sleep(50 * time.Millisecond)
	}

	wg.Wait()
	if failed != 0 {
		t.Fatalf("%d requests failed during the kill + hot-swap load", failed)
	}
	if mismatched != 0 {
		t.Fatalf("%d unflagged responses diverged from Index.Recommend", mismatched)
	}
	// Shard 0 always has a live replica, so partials should be rare
	// (only a request that loses every try inside its deadline window);
	// an unbounded count would mean failover is not actually working.
	if max := int64(clients); partials > max {
		t.Fatalf("%d partial responses out of %d requests: failover is not absorbing a single replica loss", partials, clients*perClient)
	}

	// Phase 3: the router noticed the dead replica (3/4 healthy) but
	// still reports "ok" — every shard retains a live replica, so the
	// tier can answer fully.
	var h struct {
		Status          string `json:"status"`
		ReplicasHealthy int    `json:"replicas_healthy"`
		ReplicasTotal   int    `json:"replicas_total"`
	}
	healthDeadline := time.Now().Add(15 * time.Second)
	for {
		resp, err = client.Get(router + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if h.Status == "ok" && h.ReplicasHealthy == 3 && h.ReplicasTotal == 4 {
			break
		}
		if time.Now().After(healthDeadline) {
			t.Fatalf("router healthz after replica kill: %+v (want ok 3/4)", h)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Phase 4: graceful drain, router first, then the surviving shards.
	for _, proc := range []*exec.Cmd{routerProc, reps[0][1].proc, reps[1][0].proc, reps[1][1].proc} {
		if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- proc.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("c2serve did not exit cleanly on SIGTERM: %v", err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("c2serve did not exit within 20s of SIGTERM")
		}
	}
}
