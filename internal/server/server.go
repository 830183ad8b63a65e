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
	"sync"
	"sync/atomic"
	"time"

	"c2knn"
	"c2knn/internal/server/middleware"
	"c2knn/internal/similarity"
)

// Config parameterizes a Server; the zero value gets sensible defaults.
type Config struct {
	// Front holds the request limits and logging hooks the router
	// shares; its MaxInFlight defaults to 64×MaxConcurrent.
	Front
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
	c.Front.SetDefaults(c.MaxConcurrent)
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
		if err := ix.EnableUpserts(c2knn.UpsertConfig{}); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	s := &Server{
		cfg:   cfg,
		cache: NewCache(cfg.CacheEntries, cacheShards, cacheMaxBytes),
		stats: NewStats(),
		sem:   make(chan struct{}, cfg.MaxConcurrent),
	}
	s.keys.New = func() any { b := make([]byte, 0, 256); return &b }
	s.st.Store(&state{ix: ix, epoch: 1})

	query, wrap := cfg.Harden(s.stats)
	observe := middleware.CountStatus(s.stats.RecordStatus)
	s.mux = http.NewServeMux()
	MountQueries(s.mux, query, s.serveSingle, s.serveBatch)
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
	s.handler = wrap(s.mux)
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
	old := s.install(ix)
	s.reloadMu.Unlock()
	if old.ix != ix {
		old.ix.Close()
	}
}

// install serves ix under the next epoch and returns the displaced
// state, which the caller retires. The caller holds reloadMu. The epoch
// bump makes every cached result of earlier snapshots unreachable (the
// epoch is in every key); the flush frees the budgets they held. A
// racing old-epoch Put landing after the flush is harmless: its key can
// no longer be asked for, and LRU evicts it like any cold entry.
func (s *Server) install(ix *c2knn.Index) *state {
	old := s.st.Load()
	s.st.Store(&state{ix: ix, epoch: old.epoch + 1})
	s.cache.Flush()
	s.stats.RecordSwap()
	return old
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
		if err := ix.EnableUpserts(c2knn.UpsertConfig{}); err != nil {
			ix.Close()
			err = fmt.Errorf("server: reload %s: %w", s.cfg.SnapshotPath, err)
			s.stats.RecordReloadFailure(ReloadErrorKind(err), err.Error())
			return err
		}
	}
	old := s.install(ix)
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
//
// Both serving roles speak these: the router decodes shard answers
// into them only to merge a migrating user's rows and to write the
// empty fills of degraded answers; everywhere else it moves the
// shard's bytes verbatim.

// BatchRequest is the body of a batched query: k for neighbors and
// topk, n for recommend; an omitted count takes the default.
type BatchRequest struct {
	Users []int32 `json:"users"`
	K     int     `json:"k,omitempty"`
	N     int     `json:"n,omitempty"`
}

// NeighborsResult is one user's /v1/neighbors answer: adjacency ids
// and similarities, best first.
type NeighborsResult struct {
	User int32     `json:"user"`
	IDs  []int32   `json:"ids"`
	Sims []float32 `json:"sims"`
}

// Neighbor is one (id, similarity) pair of a /v1/topk answer.
type Neighbor struct {
	ID  int32   `json:"id"`
	Sim float64 `json:"sim"`
}

// TopKResult is one user's /v1/topk answer.
type TopKResult struct {
	User      int32      `json:"user"`
	Neighbors []Neighbor `json:"neighbors"`
}

// RecommendResult is one user's /v1/recommend answer.
type RecommendResult struct {
	User  int32   `json:"user"`
	Items []int32 `json:"items"`
}

// BatchResponse is the envelope of a batched answer: one result per
// requested user, in request order.
type BatchResponse[T any] struct {
	Results []T `json:"results"`
}

// ErrorResponse is the body of a refused request.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ---- handlers ----

func writeJSONBytes(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
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
	u, err := ParseUser(q)
	if err != nil {
		BadRequest(w, s.stats, err.Error())
		return
	}
	count, err := s.cfg.ParseCount(q, ep, s.defaultCount(ep))
	if err != nil {
		BadRequest(w, s.stats, err.Error())
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
// per-request deadline is 503, a client that went away gets nothing,
// and anything else is an internal error.
func (s *Server) answerError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		DeadlineExpired(w, s.stats)
	case errors.Is(err, context.Canceled):
		// Client disconnected; nothing useful to write.
	default:
		http.Error(w, "encoding failure", http.StatusInternalServerError)
	}
}

func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, ep Endpoint) {
	start := time.Now()
	users, count, ok := s.cfg.DecodeBatch(w, r, s.stats, ep, s.defaultCount(ep))
	if !ok {
		return
	}
	body, hit, err := s.answer(r.Context(), ep, 0, users, count)
	if err != nil {
		s.answerError(w, r, err)
		return
	}
	s.stats.RecordQuery(ep, time.Since(start), len(users), true, hit)
	writeJSONBytes(w, body)
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
		return json.Marshal(NeighborsResult{User: u, IDs: emptyNotNil(ids), Sims: emptyNotNilF(sims)})
	case EpTopK:
		return json.Marshal(topkToJSON(u, ix.TopK(u, count)))
	default:
		return json.Marshal(RecommendResult{User: u, Items: emptyNotNil(ix.Recommend(u, count))})
	}
}

func marshalBatch(ix *c2knn.Index, ep Endpoint, users []int32, count int) ([]byte, error) {
	switch ep {
	case EpNeighbors:
		res := make([]NeighborsResult, len(users))
		for i, u := range users {
			ids, sims := neighborsAt(ix, u, count)
			res[i] = NeighborsResult{User: u, IDs: emptyNotNil(ids), Sims: emptyNotNilF(sims)}
		}
		return json.Marshal(BatchResponse[NeighborsResult]{Results: res})
	case EpTopK:
		tops := ix.TopKBatch(users, count)
		res := make([]TopKResult, len(users))
		for i, u := range users {
			res[i] = topkToJSON(u, tops[i])
		}
		return json.Marshal(BatchResponse[TopKResult]{Results: res})
	default:
		recs := ix.RecommendBatch(users, count)
		res := make([]RecommendResult, len(users))
		for i, u := range users {
			res[i] = RecommendResult{User: u, Items: emptyNotNil(recs[i])}
		}
		return json.Marshal(BatchResponse[RecommendResult]{Results: res})
	}
}

func topkToJSON(u int32, nbs []c2knn.Neighbor) TopKResult {
	out := TopKResult{User: u, Neighbors: make([]Neighbor, len(nbs))}
	for i, nb := range nbs {
		out.Neighbors[i] = Neighbor{ID: nb.ID, Sim: nb.Sim}
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

// HealthResponse is the /healthz body; the router's health poll reads
// it from every replica.
type HealthResponse struct {
	Status string `json:"status"`
	Users  int    `json:"users"`
	K      int    `json:"k"`
	Epoch  uint64 `json:"epoch"`
	// DeltaSeq and Delta appear on upsert-enabled daemons only. The
	// router's health poll reads DeltaSeq to detect writes landing on a
	// replica that should be read-only (delta skew).
	DeltaSeq uint64       `json:"delta_seq,omitempty"`
	Delta    *DeltaHealth `json:"delta,omitempty"`
}

// DeltaHealth is the freshness block of /healthz: how much absorbed-
// but-not-compacted state the daemon holds.
type DeltaHealth struct {
	Depth  int     `json:"depth"`
	Users  int     `json:"users"`
	AgeSec float64 `json:"age_sec"`
}

func (s *Server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.st.Load()
	h := HealthResponse{
		Status: "ok", Users: st.ix.NumUsers(), K: st.ix.K(), Epoch: st.epoch,
	}
	if ds, ok := st.ix.DeltaStats(); ok {
		h.DeltaSeq = ds.Seq
		h.Delta = &DeltaHealth{Depth: ds.Depth, Users: ds.Users, AgeSec: ds.AgeSec}
	}
	WriteJSON(w, http.StatusOK, h)
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
			AgeSec: ds.AgeSec, Seq: ds.Seq, Marker: ds.Marker, Placement: ds.Placement,
			Buckets: ds.Buckets, AttachMS: ds.AttachMS,
		}
	}
	WriteJSON(w, http.StatusOK, snap)
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
		BadRequest(w, s.stats, "d must be a duration in (0, 1m]")
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		WriteJSON(w, http.StatusOK, map[string]string{"status": "slept", "d": d.String()})
	case <-r.Context().Done():
		s.answerError(w, r, r.Context().Err())
	}
}
