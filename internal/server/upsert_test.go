package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"c2knn"
)

// envLoadMode resolves C2_LOAD the way the daemon binary does, so the
// compaction hot-swap tests exercise whichever load path the CI leg
// forces (the C2_LOAD=copy leg runs them through the copy decoder).
func envLoadMode(tb testing.TB) c2knn.LoadMode {
	tb.Helper()
	mode, err := c2knn.ParseLoadMode(os.Getenv("C2_LOAD"))
	if err != nil {
		tb.Fatal(err)
	}
	return mode
}

func postBody(tb testing.TB, url string, body string) (int, []byte) {
	tb.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestServerUpsertEndpoint(t *testing.T) {
	ix := testIndex(t, 1)
	baseUsers := ix.NumUsers()
	_, ts := newTestServer(t, ix, Config{Upserts: true})

	// Single insert: user omitted means "new user".
	code, body := postBody(t, ts.URL+"/v1/upsert", `{"items":[1,2,3,4,5]}`)
	if code != http.StatusOK {
		t.Fatalf("upsert status %d: %s", code, body)
	}
	var res upsertResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Created || int(res.User) != baseUsers || res.Seq != 1 {
		t.Fatalf("upsert result %+v, want created user %d at seq 1", res, baseUsers)
	}

	// The write is immediately queryable — and the cache cannot serve a
	// pre-upsert body for it, since the delta sequence is in every key.
	var nb NeighborsResult
	getJSON(t, fmt.Sprintf("%s/v1/neighbors?user=%d", ts.URL, res.User), &nb)
	if len(nb.IDs) == 0 {
		t.Fatal("new user has no neighbors served")
	}

	// Batch form, including one failing entry (empty items): earlier
	// entries absorb, the bad one reports its error in place.
	code, body = postBody(t, ts.URL+"/v1/upsert",
		fmt.Sprintf(`{"upserts":[{"items":[7,8,9]},{"user":%d,"items":[]},{"user":%d,"items":[6]}]}`, res.User, res.User))
	if code != http.StatusOK {
		t.Fatalf("batch upsert status %d: %s", code, body)
	}
	var batch BatchResponse[upsertResult]
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 3 {
		t.Fatalf("batch results: %+v", batch.Results)
	}
	if !batch.Results[0].Created || batch.Results[0].Error != "" {
		t.Fatalf("batch entry 0: %+v", batch.Results[0])
	}
	if batch.Results[1].Error == "" {
		t.Fatal("empty-items entry did not report an error")
	}
	if batch.Results[2].Error != "" || batch.Results[2].Created {
		t.Fatalf("existing-user merge entry: %+v", batch.Results[2])
	}

	// Single-form errors are plain 400s.
	if code, _ := postBody(t, ts.URL+"/v1/upsert", `{"items":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty single upsert: status %d, want 400", code)
	}
	if code, _ := postBody(t, ts.URL+"/v1/upsert", `{"upserts":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", code)
	}

	// Observability: healthz exposes the cursor, statsz the counters.
	var h HealthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Users != baseUsers+2 || h.DeltaSeq != 3 || h.Delta == nil || h.Delta.Depth != 3 || h.Delta.Users != 2 {
		t.Fatalf("healthz after upserts: %+v (delta %+v)", h, h.Delta)
	}
	var st Snapshot
	getJSON(t, ts.URL+"/statsz", &st)
	if st.Upserts != 3 || st.UpsertErrors != 2 {
		t.Fatalf("statsz upsert counters: upserts=%d errors=%d", st.Upserts, st.UpsertErrors)
	}
	if st.Delta == nil || st.Delta.Depth != 3 || st.Delta.Seq != 3 {
		t.Fatalf("statsz delta block: %+v", st.Delta)
	}
	if st.UpsertP99Micros <= 0 {
		t.Fatalf("statsz upsert p99 = %v, want > 0", st.UpsertP99Micros)
	}
}

func TestServerUpsertRefusals(t *testing.T) {
	// Read-only daemons answer a typed 403 on both write endpoints.
	_, ts := newTestServer(t, testIndex(t, 1), Config{ReadOnly: true})
	for _, ep := range []string{"/v1/upsert", "/admin/compact"} {
		code, body := postBody(t, ts.URL+ep, `{"items":[1]}`)
		if code != http.StatusForbidden {
			t.Fatalf("POST %s on read-only: status %d, want 403", ep, code)
		}
		var ref Refusal
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatal(err)
		}
		if ref.Kind != "read-only" || ref.Error == "" {
			t.Fatalf("POST %s refusal: %+v", ep, ref)
		}
	}

	// A daemon without -upserts refuses with kind "disabled".
	_, ts2 := newTestServer(t, testIndex(t, 2), Config{})
	code, body := postBody(t, ts2.URL+"/v1/upsert", `{"items":[1]}`)
	var ref Refusal
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusForbidden || ref.Kind != "disabled" {
		t.Fatalf("upsert on plain daemon: status %d, kind %q", code, ref.Kind)
	}

	// The 403s are accounted under their own status code.
	var st Snapshot
	getJSON(t, ts2.URL+"/statsz", &st)
	if st.ByStatus["403"] != 1 {
		t.Fatalf("by_status: %+v", st.ByStatus)
	}
}

func TestServerUpsertInvalidatesCache(t *testing.T) {
	_, ts := newTestServer(t, testIndex(t, 1), Config{Upserts: true})

	// Prime the cache with user 1's recommendations, twice (second is a
	// hit).
	var before RecommendResult
	getJSON(t, ts.URL+"/v1/recommend?user=1&n=50", &before)
	getJSON(t, ts.URL+"/v1/recommend?user=1&n=50", &before)

	// Upsert an item into user 1's own profile: a correct daemon must
	// stop recommending it (own items are excluded), which only happens
	// if the cached pre-upsert body is retired.
	if len(before.Items) == 0 {
		t.Skip("user 1 has no recommendations at this scale")
	}
	target := before.Items[0]
	code, body := postBody(t, ts.URL+"/v1/upsert", fmt.Sprintf(`{"user":1,"items":[%d]}`, target))
	if code != http.StatusOK {
		t.Fatalf("upsert status %d: %s", code, body)
	}
	var after RecommendResult
	getJSON(t, ts.URL+"/v1/recommend?user=1&n=50", &after)
	if slices.Contains(after.Items, target) {
		t.Fatalf("item %d still recommended to user 1 after being added to its profile (stale cache)", target)
	}
}

func TestServerCompactionUnderLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.c2")
	ix := testIndex(t, 1)
	baseUsers := ix.NumUsers()
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	ix.Close()
	ld, err := c2knn.LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, ld, Config{SnapshotPath: path, Upserts: true, LoadMode: envLoadMode(t)})

	const writers, inserts = 3, 15
	var inserted atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, writers+2)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < inserts; i++ {
				items := fmt.Sprintf(`{"items":[%d,%d,%d]}`, (w*31+i)%40, (w*17+i*3)%40+40, i%20+80)
				code, body := postBody(t, ts.URL+"/v1/upsert", items)
				if code != http.StatusOK {
					errs <- fmt.Errorf("writer %d: status %d: %s", w, code, body)
					return
				}
				inserted.Add(1)
			}
		}(w)
	}
	// A reader hammers queries across the swap boundary; every response
	// must stay well-formed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var nb NeighborsResult
			getJSON(t, ts.URL+"/v1/neighbors?user=1", &nb)
			if len(nb.IDs) == 0 {
				errs <- fmt.Errorf("reader: user 1 lost its neighbors mid-compaction")
				return
			}
		}
	}()

	// Compact repeatedly, over HTTP, while the load runs.
	deadline := time.After(30 * time.Second)
	for int(inserted.Load()) < writers*inserts {
		code, body := postBody(t, ts.URL+"/admin/compact", "")
		if code != http.StatusOK {
			t.Fatalf("compact status %d: %s", code, body)
		}
		select {
		case err := <-errs:
			t.Fatal(err)
		case <-deadline:
			t.Fatal("writers did not finish in time")
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Final fold: everything absorbed, nothing lost.
	var res CompactResult
	code, body := postBody(t, ts.URL+"/admin/compact", "")
	if code != http.StatusOK {
		t.Fatalf("final compact status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Users != baseUsers+writers*inserts {
		t.Fatalf("after final compact: %d users, want %d", res.Users, baseUsers+writers*inserts)
	}
	var h HealthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Delta == nil || h.Delta.Depth != 0 || h.Delta.Users != 0 {
		t.Fatalf("delta not drained after final compact: %+v", h.Delta)
	}
	if h.Epoch < 2 {
		t.Fatalf("epoch %d after compactions, want ≥ 2", h.Epoch)
	}

	// The snapshot on disk now IS the compacted state: a cold load must
	// serve the inserted users.
	fresh, err := c2knn.LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.NumUsers() != baseUsers+writers*inserts {
		t.Fatalf("cold-loaded snapshot has %d users, want %d", fresh.NumUsers(), baseUsers+writers*inserts)
	}
	_ = s
}

func TestServerCompactorBackgroundLoop(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.c2")
	ix := testIndex(t, 1)
	baseUsers := ix.NumUsers()
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	ix.Close()
	ld, err := c2knn.LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, ld, Config{SnapshotPath: path, Upserts: true, LoadMode: envLoadMode(t)})
	stopCompactor := s.StartCompactor(time.Millisecond, 2, 0)
	defer stopCompactor()

	for i := 0; i < 6; i++ {
		code, body := postBody(t, ts.URL+"/v1/upsert", fmt.Sprintf(`{"items":[%d,%d]}`, i, i+50))
		if code != http.StatusOK {
			t.Fatalf("upsert status %d: %s", code, body)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h HealthResponse
		getJSON(t, ts.URL+"/healthz", &h)
		if h.Delta != nil && h.Delta.Depth < 2 && h.Users == baseUsers+6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compactor never drained the delta: %+v (delta %+v)", h, h.Delta)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var st Snapshot
	getJSON(t, ts.URL+"/statsz", &st)
	if st.Compactions == 0 {
		t.Fatalf("statsz compactions = 0 after background folding")
	}
}

// TestServerReportsLoadTime: a successful Reload and a compaction swap
// each publish their snapshot load time as persist.load_ms on /statsz
// and as c2_persist_load_ms on /metrics; before either, /statsz omits it.
func TestServerReportsLoadTime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.c2")
	ix := testIndex(t, 1)
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, ix, Config{SnapshotPath: path, Upserts: true, LoadMode: envLoadMode(t)})
	loadMS := func() (statsz float64, present bool, metrics string) {
		t.Helper()
		var raw map[string]any
		getJSON(t, ts.URL+"/statsz", &raw)
		v, ok := raw["persist.load_ms"].(float64)
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		text, _ := io.ReadAll(resp.Body)
		for _, line := range strings.Split(string(text), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] == "c2_persist_load_ms" {
				metrics = f[1]
			}
		}
		return v, ok, metrics
	}
	if v, ok, m := loadMS(); ok || m != "0.000" {
		t.Fatalf("before any reload: statsz persist.load_ms=%v (present %v), metrics %q", v, ok, m)
	}
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	v, ok, m := loadMS()
	if !ok || v <= 0 || m == "" || m == "0.000" {
		t.Fatalf("after Reload: statsz persist.load_ms=%v (present %v), metrics %q", v, ok, m)
	}
	if code, body := postBody(t, ts.URL+"/v1/upsert", `{"items":[1,2,3]}`); code != http.StatusOK {
		t.Fatalf("upsert: status %d: %s", code, body)
	}
	s.stats.RecordLoad(0)
	if _, err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := loadMS(); !ok || v <= 0 {
		t.Fatalf("after compaction: statsz persist.load_ms=%v (present %v)", v, ok)
	}
}
