// Package router implements the scatter-gather tier of the sharded
// serving stack: a stateless process that owns an immutable-after-start
// shard table (bucket range → replica addresses, loaded from a persist
// shard manifest) and fans /v1/{neighbors,topk,recommend} requests out
// to shard daemons over HTTP.
//
// The HTTP front is the shard daemon's own, called from internal/server
// rather than copied: the limits and their defaults (server.Front), the
// hardening chain, request parsing and validation, the error bodies,
// the wire types, and the /metrics series every server.Stats feeds. A
// request the router refuses itself is therefore refused exactly as a
// shard would refuse it, and request IDs propagate through
// X-Request-ID, so one request is traceable across tiers. What this
// package adds is routing, from the request inward:
//
//   - Routing is by shard key: frh.ShardKey hashes the user id into the
//     manifest's bucket space and the owning shard is the range holding
//     that bucket. The router holds no profiles and no graph — only the
//     table — so it is trivially replicable and restarts in
//     milliseconds.
//   - Responses are moved, not re-encoded. A single-user GET is proxied
//     verbatim from the owning shard; a batched POST is split into
//     per-shard sub-batches and the reply stitched back together from
//     the shards' own result bytes in the caller's user order. Routed
//     answers are therefore byte-identical to what one process over one
//     whole snapshot would serve (router_test.go proves it), and the
//     happy path never pays a float re-encode.
//   - Degradation is graceful and bounded. Each upstream try has its
//     own timeout; a failed try fails over to the next replica; a slow
//     try is hedged to another replica after Config.HedgeAfter. Only
//     when every replica of a shard has failed does the router answer
//     anyway — 200 with empty results for that shard's users and an
//     X-C2-Partial header carrying the count — so one dead shard
//     degrades answers instead of failing whole requests.
//   - A background poll watches every replica's /healthz: routing
//     prefers healthy replicas, and disagreement about the serving
//     epoch between replicas of one shard (a hot swap that took on one
//     replica and not the other) is surfaced on /statsz and through the
//     shard tier's reload-failure plumbing (kind "epoch-skew").
//   - Overlapping bucket ranges — a resharding migration serving users
//     from both their old and new shard — take a slow path: typed
//     decode, deterministic merge (similarity descending, ties by
//     ascending id; exactly the frozen CSR order), re-encode.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"c2knn/internal/frh"
	"c2knn/internal/server"
	"c2knn/internal/server/middleware"
)

// HeaderPartial is set on responses that were answered with degraded
// (partial) results because some shard could not be reached; its value
// is the number of users answered with empty fills.
const HeaderPartial = "X-C2-Partial"

// ShardSpec names one shard of the table: its manifest id, the bucket
// range it owns, and the base URLs of its replicas (all serving the
// same shard snapshot).
type ShardSpec struct {
	ID       int
	Range    frh.BucketRange
	Replicas []string
}

// Config parameterizes a Router; the zero value of most fields gets
// sensible defaults.
type Config struct {
	// Front holds the request limits and logging hooks the shard daemon
	// shares (same defaults; MaxInFlight defaults to 256×GOMAXPROCS).
	// Logf also receives degradation reports.
	server.Front
	// Buckets is the shard-key space size the table's ranges live in
	// (from the manifest; default frh.DefaultShardBuckets).
	Buckets int
	// Shards is the immutable shard table. Ranges must be sorted by Lo.
	Shards []ShardSpec
	// UpstreamTimeout bounds one upstream try (default 2s).
	UpstreamTimeout time.Duration
	// HedgeAfter launches a second try on another replica when the
	// first has not answered within it (default 500ms; negative
	// disables hedging).
	HedgeAfter time.Duration
	// HealthEvery is the replica health-poll period (default 2s;
	// negative disables the background loop — PollHealth still works).
	HealthEvery time.Duration
	// Client overrides the upstream HTTP client (tests). The default
	// allows many idle connections per replica.
	Client *http.Client
}

func (c *Config) setDefaults() {
	if c.Buckets <= 0 {
		c.Buckets = frh.DefaultShardBuckets
	}
	if c.UpstreamTimeout <= 0 {
		c.UpstreamTimeout = 2 * time.Second
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 500 * time.Millisecond
	}
	if c.HealthEvery == 0 {
		c.HealthEvery = 2 * time.Second
	}
	// MaxInFlight: 64× the shard daemon's default pool of 4×GOMAXPROCS.
	c.Front.SetDefaults(4 * runtime.GOMAXPROCS(0))
	if c.Client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 256
		tr.MaxIdleConnsPerHost = 64
		c.Client = &http.Client{Transport: tr}
	}
}

// replica is one upstream address plus the health the poll loop last
// observed.
type replica struct {
	base     string
	healthy  atomic.Bool
	epoch    atomic.Uint64
	users    atomic.Int64
	deltaSeq atomic.Uint64 // upsert cursor the replica last reported (0: none)

	mu      sync.Mutex
	lastErr string
}

// shard is one row of the immutable table.
type shard struct {
	spec     ShardSpec
	replicas []*replica
	cursor   atomic.Uint32 // round-robin start for replica selection
}

// Router is the scatter-gather serving tier. Construct with New, mount
// Handler, and Close when done. The shard table is immutable after
// New; topology changes mean a new router (which starts stateless in
// milliseconds).
type Router struct {
	cfg     Config
	shards  []*shard
	ranges  []frh.BucketRange
	stats   *Stats
	handler http.Handler

	skewed      atomic.Bool // current epoch-skew state (edge-triggers the reload-failure record)
	deltaSkewed atomic.Bool // current delta-skew state (same edge discipline)
	healthWG    sync.WaitGroup
	healthCtx   context.Context
	stop        context.CancelFunc
}

// New builds a Router over cfg's shard table and starts the health
// loop. Every shard needs at least one replica; ranges must be valid
// in the bucket space and sorted by Lo (manifest order).
func New(cfg Config) (*Router, error) {
	cfg.setDefaults()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("router: need at least one shard")
	}
	rt := &Router{cfg: cfg, stats: newStats()}
	prevLo := uint32(0)
	for i, spec := range cfg.Shards {
		if err := spec.Range.Validate(cfg.Buckets); err != nil {
			return nil, fmt.Errorf("router: shard %d: %w", spec.ID, err)
		}
		if spec.Range.Lo < prevLo {
			return nil, fmt.Errorf("router: shard table not sorted by range at entry %d", i)
		}
		prevLo = spec.Range.Lo
		if len(spec.Replicas) == 0 {
			return nil, fmt.Errorf("router: shard %d has no replicas", spec.ID)
		}
		sh := &shard{spec: spec}
		for _, addr := range spec.Replicas {
			rep := &replica{base: addr}
			rep.healthy.Store(true) // optimistic until the first poll
			sh.replicas = append(sh.replicas, rep)
		}
		rt.shards = append(rt.shards, sh)
		rt.ranges = append(rt.ranges, spec.Range)
	}

	query, wrap := rt.cfg.Harden(rt.stats.Stats)
	mux := http.NewServeMux()
	server.MountQueries(mux, query, rt.serveSingle, rt.serveBatch)
	mux.Handle("/v1/upsert", query(rt.serveUpsert))
	mux.HandleFunc("/healthz", rt.serveHealthz)
	mux.HandleFunc("/statsz", rt.serveStatsz)
	mux.HandleFunc("/metrics", rt.serveMetrics)
	rt.handler = wrap(mux)

	rt.healthCtx, rt.stop = context.WithCancel(context.Background())
	if cfg.HealthEvery > 0 {
		rt.healthWG.Add(1)
		go rt.healthLoop()
	}
	return rt, nil
}

// Handler returns the router's HTTP handler, wrapped in the hardening
// middleware stack.
func (rt *Router) Handler() http.Handler { return rt.handler }

// Stats exposes the router's counters.
func (rt *Router) Stats() *Stats { return rt.stats }

// MetricsHandler returns the /metrics endpoint as a standalone handler,
// for mounting on an admin mux alongside pprof (see cmd/c2serve).
func (rt *Router) MetricsHandler() http.Handler {
	return http.HandlerFunc(rt.serveMetrics)
}

// Close stops the health loop. In-flight requests are unaffected.
func (rt *Router) Close() {
	rt.stop()
	rt.healthWG.Wait()
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

// ---- request handling ----

// serveUpsert refuses writes with a typed 403: the router is a
// stateless read tier, and proxying an upsert to whichever replica a
// retry policy happened to pick would split the write stream across
// replicas — exactly the divergence the delta-skew probe exists to
// catch. Writes go to the shard's single writable daemon directly.
func (rt *Router) serveUpsert(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "upsert requires POST", http.StatusMethodNotAllowed)
		return
	}
	server.Refuse(w, "read-only", "the router tier is read-only; send writes to the shard's writable daemon")
}

// serveSingle answers a single-user GET: validate just enough to route,
// then proxy the owning shard's response verbatim — status, content
// type and body bytes — so a routed answer is indistinguishable from a
// direct one. Overlapping ownership (migration) takes the typed merge
// path; an unreachable shard degrades to an empty fill with the
// partial header.
func (rt *Router) serveSingle(w http.ResponseWriter, r *http.Request, ep server.Endpoint) {
	start := time.Now()
	u, err := server.ParseUser(r.URL.Query())
	if err != nil {
		server.BadRequest(w, rt.stats.Stats, err.Error())
		return
	}
	owners := frh.OwnersOf(u, rt.cfg.Buckets, rt.ranges, nil)
	if len(owners) > 1 {
		rt.serveSingleMerged(w, r, ep, u, owners, start)
		return
	}
	if len(owners) == 0 {
		// A gap in the table (never the case for a validated manifest):
		// degrade rather than fail.
		rt.answerPartialSingle(w, ep, u, 1)
		rt.stats.RecordQuery(ep, time.Since(start), 1, false, false)
		return
	}
	res, err := rt.fetch(r.Context(), rt.shards[owners[0]], http.MethodGet, r.URL.Path, r.URL.RawQuery, nil, requestID(r))
	if err != nil {
		if wroteContextError(w, r, err, rt.stats) {
			return
		}
		rt.stats.RecordPartial()
		rt.answerPartialSingle(w, ep, u, 1)
		rt.stats.RecordQuery(ep, time.Since(start), 1, false, false)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	w.Write(res.body)
	if res.status == http.StatusOK {
		rt.stats.RecordQuery(ep, time.Since(start), 1, false, false)
	}
}

// serveSingleMerged answers a single-user GET for a user in a
// migration overlap through mergedUser, the batch path's merge, and
// degrades the same way: the router's own deadline refuses, a missing
// owner marks the answer partial.
func (rt *Router) serveSingleMerged(w http.ResponseWriter, r *http.Request, ep server.Endpoint, u int32, owners []int, start time.Time) {
	count, err := rt.cfg.ParseCount(r.URL.Query(), ep, 0)
	if err != nil {
		server.BadRequest(w, rt.stats.Stats, err.Error())
		return
	}
	body, degraded := rt.mergedUser(r.Context(), ep, u, owners, count, requestID(r))
	if degraded {
		if err := r.Context().Err(); err != nil && wroteContextError(w, r, err, rt.stats) {
			return
		}
		rt.stats.RecordPartial()
		w.Header().Set(HeaderPartial, "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	rt.stats.RecordQuery(ep, time.Since(start), 1, false, false)
}

// mergeBodies decodes per-shard single-user bodies and re-encodes the
// deterministic merge.
func mergeBodies(ep server.Endpoint, u int32, bodies [][]byte, count int) ([]byte, error) {
	if count == 0 {
		count = -1 // no explicit bound; merged length is bounded by shard defaults
	}
	switch ep {
	case server.EpNeighbors:
		rows := make([]server.NeighborsResult, 0, len(bodies))
		for _, b := range bodies {
			var row server.NeighborsResult
			if err := json.Unmarshal(b, &row); err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		return json.Marshal(mergeNeighbors(rows, u, count))
	case server.EpTopK:
		rows := make([]server.TopKResult, 0, len(bodies))
		for _, b := range bodies {
			var row server.TopKResult
			if err := json.Unmarshal(b, &row); err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		return json.Marshal(mergeTopK(rows, u, count))
	default:
		// Recommendation lists carry no scores to merge by; the first
		// owner (the user's pre-migration home) answers.
		return bodies[0], nil
	}
}

// answerPartialSingle writes the empty fill for one user: the exact
// bytes a shard serves for an unknown user, so degraded answers have
// the same shape as real ones.
func (rt *Router) answerPartialSingle(w http.ResponseWriter, ep server.Endpoint, u int32, n int) {
	w.Header().Set(HeaderPartial, strconv.Itoa(n))
	w.Header().Set("Content-Type", "application/json")
	w.Write(emptyFill(ep, u))
}

func emptyFill(ep server.Endpoint, u int32) []byte {
	var v any
	switch ep {
	case server.EpNeighbors:
		v = server.NeighborsResult{User: u, IDs: []int32{}, Sims: []float32{}}
	case server.EpTopK:
		v = server.TopKResult{User: u, Neighbors: []server.Neighbor{}}
	default:
		v = server.RecommendResult{User: u, Items: []int32{}}
	}
	b, _ := json.Marshal(v)
	return b
}

// serveBatch scatters a batched POST: users are grouped by owning
// shard, sub-batches fan out concurrently, and the response is
// stitched from the shards' own per-user result bytes in the caller's
// order. Shards that cannot be reached contribute empty fills and the
// partial header instead of failing the request.
func (rt *Router) serveBatch(w http.ResponseWriter, r *http.Request, ep server.Endpoint) {
	start := time.Now()
	users, count, ok := rt.cfg.DecodeBatch(w, r, rt.stats.Stats, ep, 0)
	if !ok {
		return
	}

	// Group positions by owning shard. Overlap users (several owners)
	// are handled one by one through the merge path.
	type group struct{ users, positions []int32 }
	groups := make(map[int]*group)
	var overlapPos []int32
	var ownerScratch []int
	for i, u := range users {
		ownerScratch = frh.OwnersOf(u, rt.cfg.Buckets, rt.ranges, ownerScratch[:0])
		switch len(ownerScratch) {
		case 1:
			g := groups[ownerScratch[0]]
			if g == nil {
				g = &group{}
				groups[ownerScratch[0]] = g
			}
			g.users = append(g.users, u)
			g.positions = append(g.positions, int32(i))
		default:
			overlapPos = append(overlapPos, int32(i))
		}
	}

	results := make([][]byte, len(users))
	partial := 0
	var partialMu sync.Mutex
	var wg sync.WaitGroup
	for shardIdx, g := range groups {
		wg.Add(1)
		go func(shardIdx int, g *group) {
			defer wg.Done()
			raws, err := rt.fetchSubBatch(r.Context(), rt.shards[shardIdx], r.URL.Path, g.users, ep, count, requestID(r))
			if err != nil {
				rt.logf("router: shard %d unreachable for %d users: %v", rt.shards[shardIdx].spec.ID, len(g.users), err)
				partialMu.Lock()
				partial += len(g.users)
				partialMu.Unlock()
				for j, pos := range g.positions {
					results[pos] = emptyFill(ep, g.users[j])
				}
				return
			}
			for j, pos := range g.positions {
				results[pos] = raws[j]
			}
		}(shardIdx, g)
	}
	for _, pos := range overlapPos {
		wg.Add(1)
		go func(pos int32) {
			defer wg.Done()
			u := users[pos]
			owners := frh.OwnersOf(u, rt.cfg.Buckets, rt.ranges, nil)
			body, degraded := rt.mergedUser(r.Context(), ep, u, owners, count, requestID(r))
			results[pos] = body
			if degraded {
				partialMu.Lock()
				partial++
				partialMu.Unlock()
			}
		}(pos)
	}
	wg.Wait()

	if err := r.Context().Err(); err != nil && partial > 0 {
		// The degradation was the router's own deadline, not a shard
		// failure: honor the hardening contract and refuse.
		if wroteContextError(w, r, err, rt.stats) {
			return
		}
	}

	// Stitch: the shards marshaled each element exactly as a single
	// snapshot would; concatenation in request order reproduces the
	// single-process body byte for byte.
	var buf bytes.Buffer
	buf.Grow(16 + len(results)*64)
	buf.WriteString(`{"results":[`)
	for i, raw := range results {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(raw)
	}
	buf.WriteString("]}")
	if partial > 0 {
		rt.stats.RecordPartial()
		w.Header().Set(HeaderPartial, strconv.Itoa(partial))
	}
	w.Header().Set("Content-Type", "application/json")
	buf.WriteTo(w)
	rt.stats.RecordQuery(ep, time.Since(start), len(users), true, false)
}

// mergedUser answers one overlap user, for the batch path and single
// GETs alike; degraded is true when not every owner contributed, and
// the body is the empty fill when none did or their answers would not
// merge.
func (rt *Router) mergedUser(ctx context.Context, ep server.Endpoint, u int32, owners []int, count int, rid string) (body []byte, degraded bool) {
	var bodies [][]byte
	for _, o := range owners {
		raws, err := rt.fetchSubBatch(ctx, rt.shards[o], "/v1/"+ep.String(), []int32{u}, ep, count, rid)
		if err != nil {
			continue
		}
		bodies = append(bodies, raws[0])
	}
	if len(bodies) == 0 {
		return emptyFill(ep, u), true
	}
	out, err := mergeBodies(ep, u, bodies, count)
	if err != nil {
		rt.logf("router: merge for user %d: %v", u, err)
		return emptyFill(ep, u), true
	}
	return out, len(bodies) < len(owners)
}

// fetchSubBatch POSTs one shard's sub-batch and returns the per-user
// raw result bytes in the order of users.
func (rt *Router) fetchSubBatch(ctx context.Context, sh *shard, path string, users []int32, ep server.Endpoint, count int, rid string) ([]json.RawMessage, error) {
	sub := server.BatchRequest{Users: users}
	if ep == server.EpRecommend {
		sub.N = count
	} else {
		sub.K = count
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, err
	}
	res, err := rt.fetch(ctx, sh, http.MethodPost, path, "", body, rid)
	if err != nil {
		return nil, err
	}
	if res.status != http.StatusOK {
		return nil, fmt.Errorf("shard %d answered %d: %s", sh.spec.ID, res.status, truncate(res.body, 200))
	}
	var env server.BatchResponse[json.RawMessage] // per-user payloads stay raw
	if err := json.Unmarshal(res.body, &env); err != nil {
		return nil, fmt.Errorf("shard %d batch response: %w", sh.spec.ID, err)
	}
	if len(env.Results) != len(users) {
		return nil, fmt.Errorf("shard %d returned %d results for %d users", sh.spec.ID, len(env.Results), len(users))
	}
	return env.Results, nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}

// ---- upstream fetch: replica selection, failover, hedging ----

type upstreamResult struct {
	status int
	body   []byte
}

func requestID(r *http.Request) string {
	return middleware.GetRequestID(r.Context())
}

// wroteContextError maps the router's own deadline/cancellation onto
// the wire the way the shard tier does (503 / silent drop); returns
// false for other errors.
func wroteContextError(w http.ResponseWriter, r *http.Request, err error, st *Stats) bool {
	switch {
	case errors.Is(err, context.DeadlineExceeded) && r.Context().Err() != nil:
		server.DeadlineExpired(w, st.Stats)
		return true
	case errors.Is(err, context.Canceled) && r.Context().Err() != nil:
		return true
	}
	return false
}

// fetch issues one logical upstream request to sh with failover and
// hedging: replicas are tried healthy-first in round-robin order; a
// failed try (transport error or 5xx) immediately launches the next
// replica; a try that is merely slow launches a hedge after
// Config.HedgeAfter. The first 2xx–4xx response wins. Every try is a
// fan-out latency observation.
func (rt *Router) fetch(ctx context.Context, sh *shard, method, path, rawQuery string, body []byte, rid string) (*upstreamResult, error) {
	order := rt.replicaOrder(sh)
	results := make(chan error, len(order))
	var winner atomic.Pointer[upstreamResult]
	tryCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	launched := 0
	launch := func() {
		rep := order[launched]
		launched++
		go func() {
			res, err := rt.tryOne(tryCtx, rep, method, path, rawQuery, body, rid)
			if err == nil {
				winner.CompareAndSwap(nil, res)
			}
			results <- err
		}()
	}

	launch()
	var hedgeC <-chan time.Time
	if rt.cfg.HedgeAfter > 0 && len(order) > 1 {
		t := time.NewTimer(rt.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	fails := 0
	var lastErr error
	for {
		select {
		case err := <-results:
			if err == nil {
				return winner.Load(), nil
			}
			lastErr = err
			rt.stats.upstreamErrs.Add(1)
			fails++
			if launched < len(order) {
				rt.stats.failovers.Add(1)
				launch()
			} else if fails == launched {
				return nil, lastErr
			}
		case <-hedgeC:
			hedgeC = nil
			if launched < len(order) {
				rt.stats.hedges.Add(1)
				launch()
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// replicaOrder returns sh's replicas healthy-first, rotated by the
// round-robin cursor so load spreads across replicas.
func (rt *Router) replicaOrder(sh *shard) []*replica {
	n := len(sh.replicas)
	start := int(sh.cursor.Add(1)-1) % n
	order := make([]*replica, 0, n)
	var sick []*replica
	for i := 0; i < n; i++ {
		rep := sh.replicas[(start+i)%n]
		if rep.healthy.Load() {
			order = append(order, rep)
		} else {
			sick = append(sick, rep)
		}
	}
	return append(order, sick...) // sick replicas are last resorts, not excluded
}

// tryOne performs one HTTP try against one replica within the upstream
// timeout. 5xx and transport failures are errors (the caller fails
// over); anything else is a result to proxy.
func (rt *Router) tryOne(ctx context.Context, rep *replica, method, path, rawQuery string, body []byte, rid string) (*upstreamResult, error) {
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.UpstreamTimeout)
	defer cancel()
	url := rep.base + path
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rid != "" {
		req.Header.Set(middleware.HeaderRequestID, rid)
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		rt.noteReplicaError(rep, err)
		rt.stats.Fanout.Record(time.Since(start))
		return nil, fmt.Errorf("replica %s: %w", rep.base, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	rt.stats.Fanout.Record(time.Since(start))
	if err != nil {
		rt.noteReplicaError(rep, err)
		return nil, fmt.Errorf("replica %s: read: %w", rep.base, err)
	}
	if resp.StatusCode >= 500 {
		return nil, fmt.Errorf("replica %s: status %d", rep.base, resp.StatusCode)
	}
	return &upstreamResult{status: resp.StatusCode, body: b}, nil
}

// noteReplicaError marks rep unhealthy (the health loop restores it)
// and remembers the error for /statsz.
func (rt *Router) noteReplicaError(rep *replica, err error) {
	if errors.Is(err, context.Canceled) {
		return // a lost hedge race, not a sick replica
	}
	rep.healthy.Store(false)
	rep.mu.Lock()
	rep.lastErr = err.Error()
	rep.mu.Unlock()
}
