// Regression tests for the production-hardening layer: panic recovery,
// body-size caps, admission control, per-request deadlines, request-ID
// plumbing, reload-failure surfacing and the /metrics exposition. Each
// failure mode must map to its distinct status code (500/413/429/503)
// and its own counter, and none may take the daemon down.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestServerPanicRecovery: an injected handler panic must answer 500,
// log with the request ID, bump panics_total — and the very next
// request must be served normally (the satellite's regression: a panic
// used to kill the connection with no log or counter).
func TestServerPanicRecovery(t *testing.T) {
	ix := testIndex(t, 1)
	var mu sync.Mutex
	var logs []string
	s, ts := newTestServer(t, ix, Config{
		FaultInjection: true,
		Front: Front{Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		}},
	})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/admin/panic", nil)
	req.Header.Set("X-Request-ID", "panic-probe-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("the panicking request failed at transport level (connection dropped?): %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected panic: status %d, want 500", resp.StatusCode)
	}
	mu.Lock()
	joined := strings.Join(logs, "\n")
	mu.Unlock()
	if !strings.Contains(joined, "panic-probe-1") || !strings.Contains(joined, "/admin/panic") {
		t.Fatalf("panic log missing request id or path:\n%s", joined)
	}

	// The daemon survived: queries still answer, and the counter shows.
	var rec RecommendResult
	getJSON(t, ts.URL+"/v1/recommend?user=1&n=5", &rec)
	if want := emptyNotNil(ix.Recommend(1, 5)); !slices.Equal(rec.Items, want) {
		t.Fatalf("post-panic query diverged: %v vs %v", rec.Items, want)
	}
	var st Snapshot
	getJSON(t, ts.URL+"/statsz", &st)
	if st.Panics != 1 {
		t.Fatalf("panics_total = %d after one injected panic, want 1", st.Panics)
	}
	if st.ByStatus["500"] != 1 {
		t.Fatalf("by_status[500] = %d, want 1 (%v)", st.ByStatus["500"], st.ByStatus)
	}
	if s.Stats() == nil {
		t.Fatal("stats accessor broke")
	}
}

// TestServerBodyLimit413: oversized batch bodies are refused with 413
// (both the declared-length fast path and the lying-client read path),
// counted, and distinct from 400.
func TestServerBodyLimit413(t *testing.T) {
	ix := testIndex(t, 1)
	_, ts := newTestServer(t, ix, Config{Front: Front{MaxBodyBytes: 512}})

	big := []byte(`{"users":[` + strings.Repeat("1,", 600) + `1],"n":5}`)
	resp, err := http.Post(ts.URL+"/v1/recommend", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}

	// A chunked request hides its length; the cap must still hold.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/recommend", io.NopCloser(bytes.NewReader(big)))
	req.ContentLength = -1
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked oversized body: status %d, want 413", resp.StatusCode)
	}

	var st Snapshot
	getJSON(t, ts.URL+"/statsz", &st)
	if st.BodyTooLarge != 2 {
		t.Fatalf("body_too_large_total = %d, want 2", st.BodyTooLarge)
	}
	// An under-cap but over-batch request stays a 400 (fan-out cap), not
	// a 413 (byte cap) — the two limits are distinct failure modes.
	if code := postJSON(t, ts.URL+"/v1/recommend", BatchRequest{Users: []int32{1, 2, 3}, N: 5}, nil); code != 200 {
		t.Fatalf("in-bounds batch: status %d", code)
	}
	over := BatchRequest{Users: make([]int32, 60)}
	_, ts2 := newTestServer(t, ix, Config{Front: Front{MaxBodyBytes: 512, MaxBatch: 8}})
	if code := postJSON(t, ts2.URL+"/v1/recommend", over, nil); code != 400 {
		t.Fatalf("over-batch under-cap request: status %d, want 400", code)
	}
}

// TestServerShed429: with admission capped, requests beyond the limit
// are refused with 429 + Retry-After while the admitted ones complete;
// the in-flight gauge and shed counter account for it.
func TestServerShed429(t *testing.T) {
	ix := testIndex(t, 1)
	_, ts := newTestServer(t, ix, Config{
		FaultInjection: true,
		Front: Front{
			MaxInFlight:    2,
			RequestTimeout: 10 * time.Second,
		},
	})

	// Two delay requests occupy both admission slots.
	var wg sync.WaitGroup
	var held [2]int
	for i := range held {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/admin/delay?d=800ms")
			if err != nil {
				held[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			held[i] = resp.StatusCode
		}(i)
	}
	// Wait until the gauge shows both slots taken.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st Snapshot
		getJSON(t, ts.URL+"/statsz", &st)
		if st.InFlight >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight gauge never reached 2 (at %d)", st.InFlight)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/v1/recommend?user=1&n=5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-admission query: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", ra)
	}
	wg.Wait()
	for i, code := range held {
		if code != http.StatusOK {
			t.Fatalf("admitted delay request %d finished with %d, want 200", i, code)
		}
	}

	var st Snapshot
	getJSON(t, ts.URL+"/statsz", &st)
	if st.Shed < 1 || st.ByStatus["429"] < 1 {
		t.Fatalf("shed accounting: shed_total=%d by_status[429]=%d, want >=1 both", st.Shed, st.ByStatus["429"])
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight gauge %d after drain, want 0", st.InFlight)
	}
	// Shedding must not poison later traffic.
	var rec RecommendResult
	getJSON(t, ts.URL+"/v1/recommend?user=1&n=5", &rec)
}

// TestServerDeadline503: a request that cannot finish inside the
// per-request deadline answers 503 and bumps deadline_expired_total.
func TestServerDeadline503(t *testing.T) {
	ix := testIndex(t, 1)
	_, ts := newTestServer(t, ix, Config{
		FaultInjection: true,
		Front:          Front{RequestTimeout: 50 * time.Millisecond},
	})
	resp, err := http.Get(ts.URL + "/admin/delay?d=5s")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-deadline request: status %d, want 503 (body %s)", resp.StatusCode, body)
	}
	var st Snapshot
	getJSON(t, ts.URL+"/statsz", &st)
	if st.DeadlineExpired != 1 || st.ByStatus["503"] != 1 {
		t.Fatalf("deadline accounting: expired=%d by_status[503]=%d, want 1 both", st.DeadlineExpired, st.ByStatus["503"])
	}
	// Fast queries sail under the same deadline.
	var rec RecommendResult
	getJSON(t, ts.URL+"/v1/recommend?user=1&n=5", &rec)
}

// TestServerRequestID: supplied IDs echo back; absent ones are
// generated; both arrive on every surface (including errors).
func TestServerRequestID(t *testing.T) {
	ix := testIndex(t, 1)
	_, ts := newTestServer(t, ix, Config{})

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/recommend?user=1&n=5", nil)
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-42" {
		t.Fatalf("supplied request id came back as %q", got)
	}

	resp, err = http.Get(ts.URL + "/v1/recommend?user=abc") // a 400 still carries an id
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("no generated request id on an error response")
	}
}

// TestServerReloadFailureSurfacing: a truncated then a byte-flipped
// snapshot must each be refused (503, old epoch keeps serving), be
// classified in /statsz with the typed-error kind, and a subsequent
// good reload must succeed — the full operator loop of the corrupt-
// snapshot runbook.
func TestServerReloadFailureSurfacing(t *testing.T) {
	ix := testIndex(t, 1)
	dir := t.TempDir()
	snap := filepath.Join(dir, "index.c2")
	if err := ix.Save(snap); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, ix, Config{SnapshotPath: snap})
	good, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	wantItems := emptyNotNil(ix.Recommend(1, 5))

	reload := func() (int, reloadResponse) {
		resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var rr reloadResponse
		json.NewDecoder(resp.Body).Decode(&rr)
		resp.Body.Close()
		return resp.StatusCode, rr
	}

	for i, corrupt := range [][]byte{
		good[:len(good)/2], // truncated
		append(append([]byte{}, good[:40]...), good[41:]...), // byte removed mid-payload
	} {
		replaceFile(t, snap, corrupt)
		code, rr := reload()
		if code != http.StatusServiceUnavailable || rr.Kind != "corrupt" {
			t.Fatalf("corrupt reload %d: status %d kind %q, want 503/corrupt", i, code, rr.Kind)
		}
		if s.Epoch() != 1 {
			t.Fatalf("corrupt reload %d advanced the epoch to %d", i, s.Epoch())
		}
		// The old epoch keeps serving identical answers.
		var rec RecommendResult
		getJSON(t, ts.URL+"/v1/recommend?user=1&n=5", &rec)
		if !slices.Equal(rec.Items, wantItems) {
			t.Fatalf("serving diverged after refused reload %d", i)
		}
		var st Snapshot
		getJSON(t, ts.URL+"/statsz", &st)
		if st.ReloadFailures != uint64(i+1) || st.LastReloadKind != "corrupt" || st.LastReloadError == "" {
			t.Fatalf("statsz after refused reload %d: failures=%d kind=%q err=%q",
				i, st.ReloadFailures, st.LastReloadKind, st.LastReloadError)
		}
	}

	// Restore and reload: the daemon recovers without a restart.
	replaceFile(t, snap, good)
	code, rr := reload()
	if code != http.StatusOK || rr.Epoch != 2 {
		t.Fatalf("good reload after corruption: status %d epoch %d, want 200/2", code, rr.Epoch)
	}
	var st Snapshot
	getJSON(t, ts.URL+"/statsz", &st)
	if st.ReloadFailures != 2 || st.Epoch != 2 {
		t.Fatalf("final statsz: failures=%d epoch=%d, want 2/2", st.ReloadFailures, st.Epoch)
	}
}

// TestServerMetricsReconcile drives a known request mix and checks the
// /metrics exposition agrees with the client's own accounting — the
// unit-scale version of the soak harness's reconciliation gate.
func TestServerMetricsReconcile(t *testing.T) {
	ix := testIndex(t, 1)
	_, ts := newTestServer(t, ix, Config{Front: Front{MaxBodyBytes: 512}})

	const okSingles = 7
	for i := 0; i < okSingles; i++ {
		var rec RecommendResult
		getJSON(t, fmt.Sprintf("%s/v1/recommend?user=%d&n=5", ts.URL, i%3), &rec)
	}
	var batch BatchResponse[RecommendResult]
	if code := postJSON(t, ts.URL+"/v1/recommend", BatchRequest{Users: []int32{0, 1, 2, 3}, N: 5}, &batch); code != 200 {
		t.Fatalf("batch status %d", code)
	}
	// One 400 and one 413.
	resp, _ := http.Get(ts.URL + "/v1/recommend?user=abc")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	big := bytes.Repeat([]byte("x"), 1024)
	resp, _ = http.Post(ts.URL+"/v1/recommend", "application/json", bytes.NewReader(big))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	m := parseMetrics(t, string(text))

	wantOK := uint64(okSingles + 1)
	if m[`c2_responses_total{code="200"}`] != wantOK {
		t.Fatalf("responses 200 = %d, want %d", m[`c2_responses_total{code="200"}`], wantOK)
	}
	if m[`c2_responses_total{code="400"}`] != 1 || m[`c2_responses_total{code="413"}`] != 1 {
		t.Fatalf("responses 400=%d 413=%d, want 1 each",
			m[`c2_responses_total{code="400"}`], m[`c2_responses_total{code="413"}`])
	}
	if m[`c2_requests_total{endpoint="recommend"}`] != wantOK {
		t.Fatalf("requests{recommend} = %d, want %d", m[`c2_requests_total{endpoint="recommend"}`], wantOK)
	}
	if m["c2_queries_total"] != uint64(okSingles+4) {
		t.Fatalf("queries_total = %d, want %d", m["c2_queries_total"], okSingles+4)
	}
	if m["c2_bad_requests_total"] != 1 || m["c2_body_too_large_total"] != 1 {
		t.Fatalf("bad=%d too_large=%d, want 1 each", m["c2_bad_requests_total"], m["c2_body_too_large_total"])
	}
	if m["c2_request_duration_seconds_count"] != wantOK {
		t.Fatalf("histogram count %d, want %d", m["c2_request_duration_seconds_count"], wantOK)
	}
	if m[`c2_request_duration_seconds_bucket{le="+Inf"}`] != wantOK {
		t.Fatalf("+Inf bucket %d, want %d", m[`c2_request_duration_seconds_bucket{le="+Inf"}`], wantOK)
	}
	if m["c2_snapshot_epoch"] != 1 {
		t.Fatalf("snapshot epoch gauge %d, want 1", m["c2_snapshot_epoch"])
	}
	// Cache: the 3 distinct single queries miss, the 4 repeats hit, the
	// batch misses.
	if hits, misses := m["c2_cache_hits_total"], m["c2_cache_misses_total"]; hits != 4 || misses != 4 {
		t.Fatalf("cache hits=%d misses=%d, want 4/4", hits, misses)
	}
	// Bucket monotonicity.
	prev := uint64(0)
	re := regexp.MustCompile(`^c2_request_duration_seconds_bucket\{le="[^+]`)
	for _, line := range strings.Split(string(text), "\n") {
		if re.MatchString(line) {
			v := m[strings.Fields(line)[0]]
			if v < prev {
				t.Fatalf("histogram buckets not monotone at %q", line)
			}
			prev = v
		}
	}
}

// parseMetrics reads a Prometheus text exposition into name{labels} →
// integer value (float metrics are truncated; the reconciled counters
// are all integers).
func parseMetrics(t *testing.T, text string) map[string]uint64 {
	t.Helper()
	m := make(map[string]uint64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("unparseable metrics value %q: %v", line, err)
		}
		m[fields[0]] = uint64(v)
	}
	return m
}

// TestServerInFlightGaugeUnderLoad: the gauge must return to zero after
// a concurrent burst (no leaked slots), even with mixed outcomes.
func TestServerInFlightGaugeUnderLoad(t *testing.T) {
	ix := testIndex(t, 1)
	_, ts := newTestServer(t, ix, Config{Front: Front{MaxInFlight: 8}})
	var wg sync.WaitGroup
	var bad atomic.Int64
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/v1/recommend?user=%d&n=5", ts.URL, i))
			if err != nil {
				bad.Add(1)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 && resp.StatusCode != 429 {
				bad.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d requests ended with an unexpected status", bad.Load())
	}
	var st Snapshot
	getJSON(t, ts.URL+"/statsz", &st)
	if st.InFlight != 0 {
		t.Fatalf("in-flight gauge %d after the burst drained, want 0", st.InFlight)
	}
}
