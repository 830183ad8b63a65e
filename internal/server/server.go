// Package server implements the c2knn HTTP serving daemon: a
// long-running process that loads a persist snapshot into a
// c2knn.Index and answers neighbor/top-k/recommendation queries over
// HTTP, which is how the paper's "cheap clustering makes KNN graphs
// servable" claim meets actual traffic.
//
// Design, from the request inward:
//
//   - Every query endpoint (/v1/neighbors, /v1/topk, /v1/recommend)
//     accepts a single-user GET (?user=U&k=K / &n=N) and a batched POST
//     ({"users":[...],"k":K} / {"users":[...],"n":N}), the latter served
//     by the Index batch methods so scoring scratch amortizes over the
//     batch.
//   - A bounded worker pool (a semaphore of Config.MaxConcurrent slots)
//     caps the number of requests touching an index at once; excess
//     requests queue at the semaphore rather than stampeding the CPU.
//   - Results are cached in a sharded LRU keyed on (endpoint, snapshot
//     epoch, params, users). Values are fully marshaled response bodies,
//     so a hit writes bytes straight to the wire; the hit path performs
//     zero allocations.
//   - The served index is an atomic pointer. Swap/Reload install a new
//     snapshot without pausing traffic: in-flight requests keep the
//     index they started with, later requests see the new one, and the
//     epoch in every cache key retires stale entries wholesale
//     (zero-downtime hot swap; wired to SIGHUP and POST /admin/reload
//     by cmd/c2serve).
//   - /healthz reports liveness and the current snapshot; /statsz
//     reports qps (sliding window and lifetime), p50/p99 latency,
//     per-endpoint counts, and cache hit rate.
package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"c2knn"
	"c2knn/internal/server/middleware"
	"c2knn/internal/similarity"
)

// Config parameterizes a Server; the zero value gets sensible defaults.
type Config struct {
	// SnapshotPath is the file Reload re-reads; empty disables Reload
	// (Swap still works).
	SnapshotPath string
	// LoadMode selects how Reload materializes the snapshot (mmap'd
	// views vs copy-decode); the zero value is c2knn.LoadAuto. cmd's
	// -load flag sets it.
	LoadMode c2knn.LoadMode
	// MaxConcurrent bounds the worker pool: at most this many requests
	// execute index work simultaneously (default 4×GOMAXPROCS).
	MaxConcurrent int
	// CacheEntries sizes the result cache (default 4096; negative
	// disables caching).
	CacheEntries int
	// CacheShards is the lock-domain count of the result cache
	// (default 16, rounded up to a power of two).
	CacheShards int
	// CacheMaxBytes bounds the cache's total key+value payload
	// (default 64 MiB) — the entry count alone would not cap memory,
	// since batched response bodies can reach megabytes each.
	CacheMaxBytes int64
	// MaxBatch bounds the user count of one batched request
	// (default 1024).
	MaxBatch int
	// MaxResults bounds k/n in a request (default 1000).
	MaxResults int
	// MaxBodyBytes bounds a request body (default 1 MiB); over-cap
	// requests are refused with 413.
	MaxBodyBytes int64
	// RequestTimeout is the per-request deadline on query endpoints:
	// a request that cannot be answered within it gets 503
	// (default 10s; negative disables).
	RequestTimeout time.Duration
	// MaxInFlight is the admission-control bound: at most this many
	// requests may be past the shed stage at once — the excess is
	// refused with 429 + Retry-After instead of queueing unboundedly
	// behind the worker pool (default 64×MaxConcurrent; negative
	// disables shedding).
	MaxInFlight int
	// ShedRetryAfter is the Retry-After hint on shed responses
	// (default 1s).
	ShedRetryAfter time.Duration
	// Logf receives panic reports (with stacks and request IDs); nil
	// discards them. cmd/c2serve passes log.Printf.
	Logf func(format string, args ...any)
	// AccessLogf, when non-nil, enables the access-log stage: one line
	// per completed request.
	AccessLogf func(format string, args ...any)
	// FaultInjection mounts /admin/panic (a handler that panics, to
	// prove recovery) and /admin/delay?d= (a handler that sleeps, to
	// provoke deadline expiry and occupy admission slots). For tests
	// and the soak harness only — never enable it on a reachable
	// production port.
	FaultInjection bool
	// Upserts enables the write path: a delta overlay is attached to the
	// served index (which must carry fingerprints), POST /v1/upsert
	// absorbs profiles into it, and POST /admin/compact (or the
	// background loop StartCompactor runs) folds base + delta back into
	// SnapshotPath and hot-swaps the result. Reload attaches a fresh
	// overlay to the reloaded snapshot — un-compacted upserts do not
	// carry across an explicit reload (compaction is the path that
	// preserves them).
	Upserts bool
	// UpsertParams parameterizes the overlay when Upserts is set; the
	// zero value matches c2build's defaults.
	UpsertParams c2knn.UpsertConfig
	// ReadOnly marks this daemon a read replica: /v1/upsert and
	// /admin/compact refuse with 403 and a typed body (kind
	// "read-only") instead of accepting writes that a reload would
	// silently discard. Mutually exclusive with Upserts.
	ReadOnly bool
}

func (c *Config) setDefaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	if c.MaxResults <= 0 {
		c.MaxResults = 1000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxInFlight == 0 {
		// Far above the pool so only stampedes shed: waiters up to the
		// limit queue briefly at the pool semaphore, which the request
		// deadline bounds.
		c.MaxInFlight = 64 * c.MaxConcurrent
	}
	if c.ShedRetryAfter <= 0 {
		c.ShedRetryAfter = time.Second
	}
}

// state is the unit of hot swap: an index and the epoch it was
// installed at, replaced together so a request can never observe a new
// index with an old epoch (which would let stale cache entries answer
// for the new snapshot).
type state struct {
	ix    *c2knn.Index
	epoch uint64
}

// Server is the HTTP serving daemon core. Construct with New, mount
// Handler on an http.Server, and hot-swap snapshots with Swap or
// Reload. All methods are safe for concurrent use.
type Server struct {
	cfg     Config
	st      atomic.Pointer[state]
	cache   *Cache
	stats   *Stats
	sem     chan struct{}
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the global middleware stack

	reloadMu sync.Mutex // serializes Reload/Swap epoch assignment
	keys     sync.Pool  // *[]byte cache-key scratch
}

// New returns a Server serving ix under cfg.
func New(ix *c2knn.Index, cfg Config) (*Server, error) {
	if ix == nil {
		return nil, errors.New("server: need a non-nil index")
	}
	cfg.setDefaults()
	if cfg.Upserts && cfg.ReadOnly {
		return nil, errors.New("server: Upserts and ReadOnly are mutually exclusive")
	}
	if cfg.Upserts {
		if err := ix.EnableUpserts(cfg.UpsertParams); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	s := &Server{
		cfg:   cfg,
		cache: NewCache(cfg.CacheEntries, cfg.CacheShards, cfg.CacheMaxBytes),
		stats: NewStats(),
		sem:   make(chan struct{}, cfg.MaxConcurrent),
	}
	s.keys.New = func() any { b := make([]byte, 0, 256); return &b }
	s.st.Store(&state{ix: ix, epoch: 1})

	// Per-route hardening chain for the query surface, innermost last:
	// status accounting (reconcilable with a load generator), admission
	// control, body cap, request deadline. /healthz, /statsz and
	// /metrics bypass all of it — an overloaded daemon must still
	// answer its operators.
	observe := middleware.CountStatus(s.stats.RecordStatus)
	var queryStages []middleware.Middleware
	queryStages = append(queryStages, observe)
	if cfg.MaxInFlight > 0 {
		queryStages = append(queryStages,
			middleware.Shed(cfg.MaxInFlight, cfg.ShedRetryAfter, s.stats.InFlightGauge(), s.stats.RecordShed))
	}
	queryStages = append(queryStages, middleware.BodyLimit(cfg.MaxBodyBytes, s.stats.RecordTooLarge))
	if cfg.RequestTimeout > 0 {
		queryStages = append(queryStages, middleware.Deadline(cfg.RequestTimeout))
	}
	query := func(h http.HandlerFunc) http.Handler { return middleware.Chain(h, queryStages...) }

	s.mux = http.NewServeMux()
	s.mux.Handle("/v1/neighbors", query(func(w http.ResponseWriter, r *http.Request) { s.serveQuery(w, r, EpNeighbors) }))
	s.mux.Handle("/v1/topk", query(func(w http.ResponseWriter, r *http.Request) { s.serveQuery(w, r, EpTopK) }))
	s.mux.Handle("/v1/recommend", query(func(w http.ResponseWriter, r *http.Request) { s.serveQuery(w, r, EpRecommend) }))
	s.mux.Handle("/v1/upsert", query(s.serveUpsert))
	s.mux.HandleFunc("/healthz", s.serveHealthz)
	s.mux.HandleFunc("/statsz", s.serveStatsz)
	s.mux.HandleFunc("/metrics", s.serveMetrics)
	// Reload is observed but never shed or deadlined: reloading is how
	// an operator fixes an overloaded or misbehaving daemon, and a big
	// snapshot may legitimately take longer than a query deadline.
	s.mux.Handle("/admin/reload", middleware.Chain(http.HandlerFunc(s.serveReload), observe))
	s.mux.Handle("/admin/compact", middleware.Chain(http.HandlerFunc(s.serveCompact), observe))
	if cfg.FaultInjection {
		s.mux.Handle("/admin/panic", middleware.Chain(http.HandlerFunc(s.servePanic), observe))
		s.mux.Handle("/admin/delay", query(s.serveDelay))
	}

	// Global stack, outermost first: request IDs tag everything;
	// optional access logging sees final statuses; recovery sits inside
	// the loggers so a panic-turned-500 is logged like any response.
	global := []middleware.Middleware{middleware.RequestID()}
	if cfg.AccessLogf != nil {
		global = append(global, middleware.AccessLog(cfg.AccessLogf))
	}
	global = append(global, middleware.Recover(cfg.Logf, func() {
		s.stats.RecordPanic()
		s.stats.RecordStatus(http.StatusInternalServerError)
	}))
	s.handler = middleware.Chain(s.mux, global...)
	return s, nil
}

// Handler returns the daemon's HTTP handler: the route mux wrapped in
// the hardening middleware stack (see package middleware for the
// order).
func (s *Server) Handler() http.Handler { return s.handler }

// Index returns the currently served index.
func (s *Server) Index() *c2knn.Index { return s.st.Load().ix }

// Epoch returns the current snapshot epoch (starts at 1, incremented by
// every successful Swap/Reload).
func (s *Server) Epoch() uint64 { return s.st.Load().epoch }

// Stats exposes the server's counters (for tests and embedding).
func (s *Server) Stats() *Stats { return s.stats }

// Swap atomically installs ix as the served index. In-flight requests
// finish on the index they started with; no request ever fails or
// blocks because of a swap. The epoch bump retires all cached results
// of earlier snapshots.
//
// The server takes ownership of the displaced index: it is Closed, so
// if it served from a memory-mapped snapshot its mapping is released as
// soon as the last in-flight request referencing it drains (requests
// hold per-query references — see answer). Swapping the currently
// served index in again is a no-op close-wise.
func (s *Server) Swap(ix *c2knn.Index) {
	s.reloadMu.Lock()
	old := s.st.Load()
	s.st.Store(&state{ix: ix, epoch: old.epoch + 1})
	s.reloadMu.Unlock()
	// Old-epoch entries are unreachable (the epoch is in every key);
	// flush so they stop occupying the cache budgets too. A racing
	// old-epoch Put landing after the flush is harmless: its key can no
	// longer be asked for, and LRU evicts it like any cold entry.
	s.cache.Flush()
	s.stats.RecordSwap()
	if old.ix != ix {
		old.ix.Close()
	}
}

// Reload re-reads Config.SnapshotPath and swaps the result in. The old
// index keeps serving until the new one has fully loaded and validated;
// on any error the old index stays and the error is returned. Reloads
// are serialized — concurrent calls queue rather than racing the load.
func (s *Server) Reload() error {
	if s.cfg.SnapshotPath == "" {
		return errors.New("server: no snapshot path configured; cannot reload")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	start := time.Now()
	ix, err := c2knn.LoadIndexMode(s.cfg.SnapshotPath, s.cfg.LoadMode)
	loaded := time.Since(start)
	if err != nil {
		err = fmt.Errorf("server: reload %s: %w", s.cfg.SnapshotPath, err)
		// Surface the refusal on /statsz and /metrics: the old epoch
		// keeps serving, but operators must be able to see that the
		// snapshot on disk is bad.
		s.stats.RecordReloadFailure(ReloadErrorKind(err), err.Error())
		return err
	}
	if s.cfg.Upserts {
		// A fresh overlay for the fresh snapshot; an explicit reload
		// replaces state from disk wholesale, so un-compacted upserts on
		// the old index do not carry over (CompactNow is the path that
		// preserves them).
		if err := ix.EnableUpserts(s.cfg.UpsertParams); err != nil {
			ix.Close()
			err = fmt.Errorf("server: reload %s: %w", s.cfg.SnapshotPath, err)
			s.stats.RecordReloadFailure(ReloadErrorKind(err), err.Error())
			return err
		}
	}
	old := s.st.Load()
	s.st.Store(&state{ix: ix, epoch: old.epoch + 1})
	s.cache.Flush() // see Swap: free the budgets the dead epoch held
	s.stats.RecordSwap()
	s.stats.RecordLoad(loaded)
	// The displaced index's mapping (if any) is released once its last
	// in-flight request drains.
	old.ix.Close()
	return nil
}

// ReloadErrorKind classifies a Reload failure for operator logs:
// "version" means the snapshot was written by an incompatible format
// version and needs a rebuild (c2build -snap) with the current binary;
// "corrupt" means the file is damaged and needs restoring; "other"
// covers I/O errors and missing files.
func ReloadErrorKind(err error) string {
	switch {
	case errors.Is(err, c2knn.ErrSnapshotVersion):
		return "version"
	case errors.Is(err, c2knn.ErrSnapshotCorrupt):
		return "corrupt"
	default:
		return "other"
	}
}

// ---- request/response wire shapes ----

type batchRequest struct {
	Users []int32 `json:"users"`
	K     int     `json:"k,omitempty"`
	N     int     `json:"n,omitempty"`
}

type neighborsResult struct {
	User int32     `json:"user"`
	IDs  []int32   `json:"ids"`
	Sims []float32 `json:"sims"`
}

type neighborJSON struct {
	ID  int32   `json:"id"`
	Sim float64 `json:"sim"`
}

type topkResult struct {
	User      int32          `json:"user"`
	Neighbors []neighborJSON `json:"neighbors"`
}

type recommendResult struct {
	User  int32   `json:"user"`
	Items []int32 `json:"items"`
}

type batchResponse[T any] struct {
	Results []T `json:"results"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---- handlers ----

func (s *Server) badRequest(w http.ResponseWriter, msg string) {
	s.stats.RecordBadRequest()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(errorResponse{Error: msg})
}

func writeJSONBytes(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// parseCount parses a k/n query parameter, applying def when absent and
// the configured bound.
func (s *Server) parseCount(raw string, def int) (int, error) {
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("must be a positive integer, got %q", raw)
	}
	if v > s.cfg.MaxResults {
		return 0, fmt.Errorf("exceeds the maximum of %d", s.cfg.MaxResults)
	}
	return v, nil
}

// serveQuery handles both request forms of a query endpoint: GET with
// ?user= (single) and POST with a JSON {"users":[...]} body (batched).
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, ep Endpoint) {
	switch r.Method {
	case http.MethodGet:
		s.serveSingle(w, r, ep)
	case http.MethodPost:
		s.serveBatch(w, r, ep)
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "use GET for single queries, POST for batches", http.StatusMethodNotAllowed)
	}
}

// defaultCount returns the default k/n for ep: the served graph's k
// for neighbor queries, 30 (the paper's recommendation list size) for
// recommend.
func (s *Server) defaultCount(ep Endpoint) int {
	if ep == EpRecommend {
		return 30
	}
	return s.st.Load().ix.K()
}

// answer resolves one already-validated query (single when batch is
// nil, batched otherwise) through the pool, the cache, and the index.
// The worker-pool slot is held only here — never across the response
// write, so a slow-reading client cannot park index capacity behind a
// stalled socket. Admission to the pool honors the request deadline:
// a request that would wait past its deadline returns ctx.Err()
// instead of occupying the queue (the handler answers 503). Returns
// the marshaled body and whether it was a cache hit.
func (s *Server) answer(ctx context.Context, ep Endpoint, u int32, batch []int32, count int) ([]byte, bool, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	defer func() { <-s.sem }()
	// Pin the index for the query's lifetime. For unmapped indexes
	// Retain is a free nil check; for mmap-backed ones it takes a
	// mapping reference, so a hot swap that displaces this epoch cannot
	// unmap pages under us — the munmap waits until the last in-flight
	// reference here is released. Retain only fails when Close already
	// won a race against our Load; the new state is installed before the
	// old index is closed, so reloading observes the fresh epoch.
	var st *state
	for {
		st = s.st.Load()
		if st.ix.Retain() {
			break
		}
	}
	defer st.ix.Release()

	kb := s.keys.Get().(*[]byte)
	// The delta sequence joins the epoch in every key: within one
	// snapshot epoch, each absorbed upsert retires all earlier cached
	// results, so reads-after-writes never serve a pre-upsert body.
	// Indexes without an overlay report 0 and key exactly as before.
	key := appendKeyHeader((*kb)[:0], ep, st.epoch, st.ix.DeltaSeq(), count, batch != nil)
	if batch == nil {
		key = binary.LittleEndian.AppendUint32(key, uint32(u))
	} else {
		for _, v := range batch {
			key = binary.LittleEndian.AppendUint32(key, uint32(v))
		}
	}
	body, hit := s.cache.Get(key)
	var err error
	if !hit {
		if batch == nil {
			body, err = marshalSingle(st.ix, ep, u, count)
		} else {
			body, err = marshalBatch(st.ix, ep, batch, count)
		}
		if err == nil {
			s.cache.Put(key, body)
		}
	}
	*kb = key
	s.keys.Put(kb)
	return body, hit, err
}

func (s *Server) serveSingle(w http.ResponseWriter, r *http.Request, ep Endpoint) {
	start := time.Now()
	q := r.URL.Query()
	user64, err := strconv.ParseInt(q.Get("user"), 10, 32)
	if err != nil {
		s.badRequest(w, "user must be a 32-bit integer")
		return
	}
	u := int32(user64)
	count, err := s.parseCount(q.Get(countParam(ep)), s.defaultCount(ep))
	if err != nil {
		s.badRequest(w, countParam(ep)+" "+err.Error())
		return
	}
	body, hit, err := s.answer(r.Context(), ep, u, nil, count)
	if err != nil {
		s.answerError(w, r, err)
		return
	}
	// The latency recorded is the query's, not the client's read speed.
	s.stats.RecordQuery(ep, time.Since(start), 1, false, hit)
	writeJSONBytes(w, body)
}

// answerError maps an answer failure onto the wire: an expired
// per-request deadline is 503 (the hardening contract — an overloaded
// or stalled server refuses rather than hangs), a client that went
// away gets nothing, and anything else is an internal error.
func (s *Server) answerError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.stats.RecordTimeout()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(errorResponse{Error: "request deadline expired"})
	case errors.Is(err, context.Canceled):
		// Client disconnected; nothing useful to write.
	default:
		http.Error(w, "encoding failure", http.StatusInternalServerError)
	}
}

// tooLarge answers 413 for a body over the configured cap.
func (s *Server) tooLarge(w http.ResponseWriter) {
	s.stats.RecordTooLarge()
	w.Header().Set("Connection", "close")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusRequestEntityTooLarge)
	json.NewEncoder(w).Encode(errorResponse{
		Error: fmt.Sprintf("request body exceeds the %d-byte limit", s.cfg.MaxBodyBytes),
	})
}

func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, ep Endpoint) {
	start := time.Now()
	var req batchRequest
	// The body arrives through the BodyLimit stage's MaxBytesReader, so
	// an over-cap body surfaces here as *http.MaxBytesError — a 413,
	// distinct from malformed JSON's 400. (Direct callers without the
	// middleware stack are unlimited; Handler() is the hardened path.)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.tooLarge(w)
			return
		}
		s.badRequest(w, "invalid JSON body: "+err.Error())
		return
	}
	if len(req.Users) == 0 {
		s.badRequest(w, `"users" must be a non-empty array`)
		return
	}
	if len(req.Users) > s.cfg.MaxBatch {
		s.badRequest(w, fmt.Sprintf("batch of %d users exceeds the maximum of %d", len(req.Users), s.cfg.MaxBatch))
		return
	}
	count := req.K
	if ep == EpRecommend {
		count = req.N
	}
	if count == 0 {
		count = s.defaultCount(ep)
	}
	if count < 0 || count > s.cfg.MaxResults {
		s.badRequest(w, fmt.Sprintf("%s must be in [1, %d]", countParam(ep), s.cfg.MaxResults))
		return
	}
	body, hit, err := s.answer(r.Context(), ep, 0, req.Users, count)
	if err != nil {
		s.answerError(w, r, err)
		return
	}
	s.stats.RecordQuery(ep, time.Since(start), len(req.Users), true, hit)
	writeJSONBytes(w, body)
}

func countParam(ep Endpoint) string {
	if ep == EpRecommend {
		return "n"
	}
	return "k"
}

// appendKeyHeader starts a cache key: endpoint, batch marker, snapshot
// epoch, delta sequence, and the k/n parameter. User ids follow.
func appendKeyHeader(key []byte, ep Endpoint, epoch, deltaSeq uint64, count int, batch bool) []byte {
	key = append(key, byte(ep))
	if batch {
		key = append(key, 1)
	} else {
		key = append(key, 0)
	}
	key = binary.LittleEndian.AppendUint64(key, epoch)
	key = binary.LittleEndian.AppendUint64(key, deltaSeq)
	key = binary.LittleEndian.AppendUint32(key, uint32(count))
	return key
}

// neighborsAt returns u's adjacency views truncated to the requested
// k (the adjacency is pre-sorted by decreasing similarity, so a prefix
// IS the top-k of the edge list).
func neighborsAt(ix *c2knn.Index, u int32, k int) ([]int32, []float32) {
	ids, sims := ix.Neighbors(u)
	if k < len(ids) {
		ids, sims = ids[:k], sims[:k]
	}
	return ids, sims
}

func marshalSingle(ix *c2knn.Index, ep Endpoint, u int32, count int) ([]byte, error) {
	switch ep {
	case EpNeighbors:
		ids, sims := neighborsAt(ix, u, count)
		return json.Marshal(neighborsResult{User: u, IDs: emptyNotNil(ids), Sims: emptyNotNilF(sims)})
	case EpTopK:
		return json.Marshal(topkToJSON(u, ix.TopK(u, count)))
	default:
		return json.Marshal(recommendResult{User: u, Items: emptyNotNil(ix.Recommend(u, count))})
	}
}

func marshalBatch(ix *c2knn.Index, ep Endpoint, users []int32, count int) ([]byte, error) {
	switch ep {
	case EpNeighbors:
		res := make([]neighborsResult, len(users))
		for i, u := range users {
			ids, sims := neighborsAt(ix, u, count)
			res[i] = neighborsResult{User: u, IDs: emptyNotNil(ids), Sims: emptyNotNilF(sims)}
		}
		return json.Marshal(batchResponse[neighborsResult]{Results: res})
	case EpTopK:
		tops := ix.TopKBatch(users, count)
		res := make([]topkResult, len(users))
		for i, u := range users {
			res[i] = topkToJSON(u, tops[i])
		}
		return json.Marshal(batchResponse[topkResult]{Results: res})
	default:
		recs := ix.RecommendBatch(users, count)
		res := make([]recommendResult, len(users))
		for i, u := range users {
			res[i] = recommendResult{User: u, Items: emptyNotNil(recs[i])}
		}
		return json.Marshal(batchResponse[recommendResult]{Results: res})
	}
}

func topkToJSON(u int32, nbs []c2knn.Neighbor) topkResult {
	out := topkResult{User: u, Neighbors: make([]neighborJSON, len(nbs))}
	for i, nb := range nbs {
		out.Neighbors[i] = neighborJSON{ID: nb.ID, Sim: nb.Sim}
	}
	return out
}

// emptyNotNil maps nil slices to empty ones so out-of-range users
// serialize as [] rather than null — friendlier to clients, and it
// keeps single and batch responses byte-consistent.
func emptyNotNil(s []int32) []int32 {
	if s == nil {
		return []int32{}
	}
	return s
}

func emptyNotNilF(s []float32) []float32 {
	if s == nil {
		return []float32{}
	}
	return s
}

// ---- health, stats, admin ----

type healthResponse struct {
	Status string `json:"status"`
	Users  int    `json:"users"`
	K      int    `json:"k"`
	Epoch  uint64 `json:"epoch"`
	// DeltaSeq and Delta appear on upsert-enabled daemons only. The
	// router's health poll reads DeltaSeq to detect writes landing on a
	// replica that should be read-only (delta skew).
	DeltaSeq uint64       `json:"delta_seq,omitempty"`
	Delta    *deltaHealth `json:"delta,omitempty"`
}

// deltaHealth is the freshness block of /healthz: how much absorbed-
// but-not-compacted state the daemon holds.
type deltaHealth struct {
	Depth  int     `json:"depth"`
	Users  int     `json:"users"`
	AgeSec float64 `json:"age_sec"`
}

func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.st.Load()
	h := healthResponse{
		Status: "ok", Users: st.ix.NumUsers(), K: st.ix.K(), Epoch: st.epoch,
	}
	if ds, ok := st.ix.DeltaStats(); ok {
		h.DeltaSeq = ds.Seq
		h.Delta = &deltaHealth{Depth: ds.Depth, Users: ds.Users, AgeSec: ds.AgeSec}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

func (s *Server) serveStatsz(w http.ResponseWriter, r *http.Request) {
	st := s.st.Load()
	snap := s.stats.snapshot()
	snap.CacheEntries = s.cache.Len()
	snap.Epoch = st.epoch
	snap.Users = st.ix.NumUsers()
	snap.K = st.ix.K()
	snap.SimKernel = similarity.KernelName()
	snap.ReadOnly = s.cfg.ReadOnly
	if ds, ok := st.ix.DeltaStats(); ok {
		snap.Delta = &DeltaSnapshot{
			Depth: ds.Depth, Users: ds.Users, PatchedRows: ds.PatchedRows,
			AgeSec: ds.AgeSec, Seq: ds.Seq, Marker: ds.Marker,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snap)
}

type reloadResponse struct {
	Status string `json:"status"`
	Kind   string `json:"kind,omitempty"` // failure class: version | corrupt | other
	Error  string `json:"error,omitempty"`
	Epoch  uint64 `json:"epoch"`
	Users  int    `json:"users"`
}

func (s *Server) serveReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "reload requires POST", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.Reload(); err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		st := s.st.Load()
		json.NewEncoder(w).Encode(reloadResponse{
			Status: "error", Kind: ReloadErrorKind(err), Error: err.Error(),
			Epoch: st.epoch, Users: st.ix.NumUsers(),
		})
		return
	}
	st := s.st.Load()
	json.NewEncoder(w).Encode(reloadResponse{Status: "ok", Epoch: st.epoch, Users: st.ix.NumUsers()})
}

// ---- fault injection (Config.FaultInjection only) ----

// servePanic panics on purpose: the recovery middleware must convert
// it into a 500, log it with the request ID, bump panics_total, and
// leave the daemon serving. Mounted only under Config.FaultInjection;
// the soak harness and the recovery regression test are its users.
func (s *Server) servePanic(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "fault injection requires POST", http.StatusMethodNotAllowed)
		return
	}
	panic("injected fault: panic requested via /admin/panic")
}

// serveDelay holds a request open for ?d= (a Go duration, capped at a
// minute) while honoring the per-request deadline — the deterministic
// way to occupy admission slots (provoking 429s) and to outlive the
// deadline (provoking 503s). Mounted only under Config.FaultInjection.
func (s *Server) serveDelay(w http.ResponseWriter, r *http.Request) {
	d, err := time.ParseDuration(r.URL.Query().Get("d"))
	if err != nil || d < 0 || d > time.Minute {
		s.badRequest(w, "d must be a duration in (0, 1m]")
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"status": "slept", "d": d.String()})
	case <-r.Context().Done():
		s.answerError(w, r, r.Context().Err())
	}
}

// CacheHitAllocs measures the allocations per cache-hit query on the
// recommend fast path: it primes the cache with one (user, n) query,
// then replays it iters times and returns the mean allocation count per
// replay, as runtime.MemStats sees it. Zero is the contract the
// BENCH_http.json gate enforces. It pins the process to one P, as
// testing.AllocsPerRun does, so other goroutines' allocations stay off
// the counter; call it on an otherwise idle server.
func (s *Server) CacheHitAllocs(u int32, n, iters int) float64 {
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
