package server

import (
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Endpoint identifies one of the query endpoints for per-endpoint
// accounting.
type Endpoint int

const (
	EpNeighbors Endpoint = iota
	EpTopK
	EpRecommend
	numEndpoints
)

func (e Endpoint) String() string {
	switch e {
	case EpNeighbors:
		return "neighbors"
	case EpTopK:
		return "topk"
	case EpRecommend:
		return "recommend"
	}
	return "unknown"
}

// Latency histogram layout: exact 1 µs buckets below 16 µs, then 16
// log-linear sub-buckets per octave (HDR-style, ~6% relative error),
// capped at histBuckets. The representative value of a bucket is its
// upper bound, so reported percentiles never flatter the server.
const (
	histSubBuckets = 16
	histOctaves    = 28 // covers up to 16 µs << 28 ≈ 4500 s
	histBuckets    = histSubBuckets * (histOctaves + 1)
)

func bucketOf(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	if us < histSubBuckets {
		return int(us)
	}
	exp := bits.Len64(us) - 5 // halvings that bring us into [16, 32)
	i := exp*histSubBuckets + int(us>>uint(exp))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// bucketUpperMicros returns the exclusive upper bound (in µs) of bucket
// i — the value percentiles report.
func bucketUpperMicros(i int) float64 {
	if i < histSubBuckets {
		return float64(i + 1)
	}
	// Invert bucketOf: i = exp*16 + mant with mant in [16, 32).
	exp := i/histSubBuckets - 1
	mant := i - histSubBuckets*exp
	return float64(uint64(mant+1) << uint(exp))
}

// LatencyHist is the lock-free HDR-style latency histogram described
// above, bundled with a running sum so a Prometheus exposition can emit
// both _bucket and _sum series. The zero value is ready to use; all
// methods are safe for concurrent callers. It is exported so other
// serving tiers (the scatter-gather router) account latency with the
// exact same bucket layout — percentiles from a shard and from the
// router in front of it are then directly comparable.
type LatencyHist struct {
	hist      [histBuckets]atomic.Uint64
	sumMicros atomic.Uint64
}

// Record accounts one observation.
func (h *LatencyHist) Record(d time.Duration) {
	h.hist[bucketOf(d)].Add(1)
	h.sumMicros.Add(uint64(d / time.Microsecond))
}

// SumMicros returns the running sum of recorded latencies in
// microseconds.
func (h *LatencyHist) SumMicros() uint64 { return h.sumMicros.Load() }

// Percentile returns the p-quantile (0 < p <= 1) of recorded latencies
// in microseconds, or 0 when nothing has been recorded. The histogram
// is read without synchronization against writers; under load the
// result is an instantaneous estimate, which is what /statsz wants.
func (h *LatencyHist) Percentile(p float64) float64 {
	var total uint64
	var counts [histBuckets]uint64
	for i := range h.hist {
		counts[i] = h.hist[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(p * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen > rank {
			return bucketUpperMicros(i)
		}
	}
	return bucketUpperMicros(histBuckets - 1)
}

// CumulativeAtMost returns, for each upper bound in uppersMicros
// (ascending), the number of recorded latencies at most that many
// microseconds, plus the grand total — the cumulative bucket counts a
// Prometheus histogram exposition needs. A recorded value falling in an
// HDR bucket that straddles an upper bound is attributed to the next
// bound (its bucket's own upper edge), so the exposition never
// under-reports a latency.
func (h *LatencyHist) CumulativeAtMost(uppersMicros []float64) (counts []uint64, total uint64) {
	counts = make([]uint64, len(uppersMicros))
	for i := 0; i < histBuckets; i++ {
		c := h.hist[i].Load()
		if c == 0 {
			continue
		}
		total += c
		upper := bucketUpperMicros(i)
		for j, le := range uppersMicros {
			if upper <= le {
				counts[j] += c
				break
			}
		}
	}
	// Make counts cumulative.
	for j := 1; j < len(counts); j++ {
		counts[j] += counts[j-1]
	}
	return counts, total
}

// qpsWindowSlots is the size of the per-second request-count ring the
// sliding-window rate is computed over.
const qpsWindowSlots = 16

// Stats aggregates the serving daemon's observability counters. All
// recording methods are lock-free (atomics only) and allocation-free,
// so they are safe on the cache-hit fast path.
type Stats struct {
	start time.Time

	requests   atomic.Uint64
	byEndpoint [numEndpoints]atomic.Uint64
	batched    atomic.Uint64 // batch requests (subset of requests)
	queries    atomic.Uint64 // user-queries answered (batch counts each user)
	badRequest atomic.Uint64
	cacheHits  atomic.Uint64
	cacheMiss  atomic.Uint64
	swaps      atomic.Uint64
	// loadNanos is how long the last successful Reload or compaction
	// swap took to load its snapshot (c2knn.LoadIndexMode), 0 before
	// the first.
	loadNanos atomic.Int64

	// Hardening counters (fed by the middleware stack and the
	// handlers' failure paths; see /metrics for their exported names).
	panics     atomic.Uint64 // recovered handler panics
	shed       atomic.Uint64 // requests refused with 429
	timeouts   atomic.Uint64 // per-request deadlines expired (503)
	tooLarge   atomic.Uint64 // request bodies over the cap (413)
	inFlight   atomic.Int64  // requests currently inside the shed stage
	byStatus   [len(knownStatusCodes) + 1]atomic.Uint64
	reloadFail atomic.Uint64

	reloadErrMu    sync.Mutex // guards the two strings below
	lastReloadKind string
	lastReloadErr  string

	// Write-path counters (fed by /v1/upsert and the compactor).
	upserts      atomic.Uint64 // profiles absorbed
	upsertErrors atomic.Uint64 // upsert entries rejected (bad items, bad user)
	compactions  atomic.Uint64 // completed compaction swaps
	compactFail  atomic.Uint64 // compaction cycles that failed (old state kept)
	upsertLat    LatencyHist   // per-absorbed-profile latency

	compactErrMu   sync.Mutex
	lastCompactErr string

	lat LatencyHist

	qpsCounts [qpsWindowSlots]atomic.Uint64
	qpsStamps [qpsWindowSlots]atomic.Int64
}

// NewStats returns a Stats anchored at now.
func NewStats() *Stats {
	return &Stats{start: time.Now()}
}

// RecordQuery accounts one answered request on endpoint ep: latency d,
// nQueries user-queries (1 for single requests, the batch length for
// batched ones), and whether the result came from the cache.
func (st *Stats) RecordQuery(ep Endpoint, d time.Duration, nQueries int, batched, cacheHit bool) {
	st.requests.Add(1)
	st.byEndpoint[ep].Add(1)
	st.queries.Add(uint64(nQueries))
	if batched {
		st.batched.Add(1)
	}
	if cacheHit {
		st.cacheHits.Add(1)
	} else {
		st.cacheMiss.Add(1)
	}
	st.lat.Record(d)

	sec := time.Now().Unix()
	slot := sec % qpsWindowSlots
	if old := st.qpsStamps[slot].Load(); old != sec {
		// One winner resets the slot for the new second; losers just add
		// to it. A request racing the reset can be dropped from the
		// window — acceptable for a rate estimate, never for totals.
		if st.qpsStamps[slot].CompareAndSwap(old, sec) {
			st.qpsCounts[slot].Store(0)
		}
	}
	st.qpsCounts[slot].Add(1)
}

// RecordBadRequest accounts a request rejected before reaching an index
// (malformed body, bad params).
func (st *Stats) RecordBadRequest() { st.badRequest.Add(1) }

// RecordSwap accounts one successful snapshot hot-swap.
func (st *Stats) RecordSwap() { st.swaps.Add(1) }

// RecordLoad remembers the snapshot load time of a successful Reload or
// compaction swap, reported as persist.load_ms.
func (st *Stats) RecordLoad(d time.Duration) { st.loadNanos.Store(int64(d)) }

// loadMS returns the last recorded snapshot load time in milliseconds.
func (st *Stats) loadMS() float64 { return float64(st.loadNanos.Load()) / 1e6 }

// RecordPanic accounts one recovered handler panic (the request was
// answered with 500 and the daemon kept running).
func (st *Stats) RecordPanic() { st.panics.Add(1) }

// RecordShed accounts one request refused with 429 by admission
// control.
func (st *Stats) RecordShed() { st.shed.Add(1) }

// RecordTimeout accounts one request whose per-request deadline expired
// (answered 503).
func (st *Stats) RecordTimeout() { st.timeouts.Add(1) }

// RecordTooLarge accounts one request body over the configured cap
// (answered 413).
func (st *Stats) RecordTooLarge() { st.tooLarge.Add(1) }

// RecordUpsert accounts one absorbed profile and its write latency.
func (st *Stats) RecordUpsert(d time.Duration) {
	st.upserts.Add(1)
	st.upsertLat.Record(d)
}

// RecordUpsertError accounts one rejected upsert entry.
func (st *Stats) RecordUpsertError() { st.upsertErrors.Add(1) }

// RecordCompaction accounts one completed compaction swap.
func (st *Stats) RecordCompaction() { st.compactions.Add(1) }

// RecordCompactionFailure accounts one failed compaction cycle and
// remembers its message for /statsz (sticky, like reload failures).
func (st *Stats) RecordCompactionFailure(msg string) {
	st.compactFail.Add(1)
	st.compactErrMu.Lock()
	st.lastCompactErr = msg
	st.compactErrMu.Unlock()
}

// InFlightGauge exposes the live in-flight gauge the shed stage
// maintains.
func (st *Stats) InFlightGauge() *atomic.Int64 { return &st.inFlight }

// knownStatusCodes are the statuses the daemon emits on its query and
// admin surfaces; anything else lands in the trailing "other" slot.
// /metrics exports these as c2_responses_total{code="..."}.
var knownStatusCodes = [...]int{200, 400, 403, 404, 405, 413, 429, 500, 503}

// RecordStatus accounts one finished response on the query/admin
// surface by status code.
func (st *Stats) RecordStatus(code int) {
	for i, c := range knownStatusCodes {
		if c == code {
			st.byStatus[i].Add(1)
			return
		}
	}
	st.byStatus[len(knownStatusCodes)].Add(1)
}

// RecordReloadFailure accounts one failed snapshot reload and remembers
// its classification (server.ReloadErrorKind) and message for /statsz —
// the operator-visible trace that the daemon refused a bad snapshot and
// kept serving the old epoch. The last failure is sticky across later
// successful reloads; ReloadFailures says whether it is ancient
// history.
func (st *Stats) RecordReloadFailure(kind, msg string) {
	st.reloadFail.Add(1)
	st.reloadErrMu.Lock()
	st.lastReloadKind, st.lastReloadErr = kind, msg
	st.reloadErrMu.Unlock()
}

// Hist exposes the request-latency histogram (for /metrics and for
// tiers that stack their own accounting on a Stats).
func (st *Stats) Hist() *LatencyHist { return &st.lat }

// percentile is kept as a shorthand over the histogram.
func (st *Stats) percentile(p float64) float64 { return st.lat.Percentile(p) }

// windowRate returns requests/sec over the trailing full seconds of the
// sliding window (the current partial second is excluded).
func (st *Stats) windowRate(now time.Time) float64 {
	cur := now.Unix()
	var n uint64
	secs := 0
	for i := 0; i < qpsWindowSlots; i++ {
		stamp := st.qpsStamps[i].Load()
		if stamp >= cur-qpsWindowSlots+1 && stamp < cur {
			n += st.qpsCounts[i].Load()
			secs++
		}
	}
	if secs == 0 {
		return 0
	}
	return float64(n) / float64(secs)
}

// Snapshot is the JSON shape of /statsz.
type Snapshot struct {
	UptimeSec float64 `json:"uptime_sec"`

	Requests    uint64            `json:"requests"`
	ByEndpoint  map[string]uint64 `json:"by_endpoint"`
	Batched     uint64            `json:"batched_requests"`
	Queries     uint64            `json:"queries"`
	BadRequests uint64            `json:"bad_requests"`

	QPSWindow   float64 `json:"qps_window"`   // trailing sliding window
	QPSLifetime float64 `json:"qps_lifetime"` // requests / uptime
	P50Micros   float64 `json:"p50_us"`
	P99Micros   float64 `json:"p99_us"`

	CacheHits    uint64  `json:"cache_hits"`
	CacheMisses  uint64  `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	CacheEntries int     `json:"cache_entries"`

	Swaps uint64 `json:"snapshot_swaps"`
	Epoch uint64 `json:"snapshot_epoch"`
	Users int    `json:"users"`
	K     int    `json:"k"`

	// LoadMS is the snapshot load time of the last successful Reload or
	// compaction swap, under the benchmark's layer name, so a live swap
	// compares directly with a perfbench record; absent before the
	// first.
	LoadMS float64 `json:"persist.load_ms,omitempty"`

	// SimKernel names the similarity count kernel this process selected
	// at startup ("avx512", "avx2", "neon", "scalar") — operators
	// reading /statsz can tell at a glance whether a replica is running
	// vectorized.
	SimKernel string `json:"sim_kernel,omitempty"`

	// Hardening counters.
	Panics          uint64            `json:"panics_total"`
	Shed            uint64            `json:"shed_total"`
	DeadlineExpired uint64            `json:"deadline_expired_total"`
	BodyTooLarge    uint64            `json:"body_too_large_total"`
	InFlight        int64             `json:"inflight"`
	ByStatus        map[string]uint64 `json:"by_status"`

	// Reload failure trace: count plus the classification and message
	// of the most recent failure (sticky; compare ReloadFailures across
	// scrapes to tell old news from new).
	ReloadFailures  uint64 `json:"reload_failures"`
	LastReloadKind  string `json:"last_reload_kind,omitempty"`
	LastReloadError string `json:"last_reload_error,omitempty"`

	// Write-path counters; Delta is present on upsert-enabled daemons
	// only (the server fills it from the overlay).
	ReadOnly           bool           `json:"read_only,omitempty"`
	Upserts            uint64         `json:"upserts_total,omitempty"`
	UpsertErrors       uint64         `json:"upsert_errors_total,omitempty"`
	UpsertP50Micros    float64        `json:"upsert_p50_us,omitempty"`
	UpsertP99Micros    float64        `json:"upsert_p99_us,omitempty"`
	Compactions        uint64         `json:"compactions_total,omitempty"`
	CompactionFailures uint64         `json:"compaction_failures_total,omitempty"`
	LastCompactError   string         `json:"last_compaction_error,omitempty"`
	Delta              *DeltaSnapshot `json:"delta,omitempty"`
}

// DeltaSnapshot is the overlay block of /statsz: the amount of
// absorbed-but-not-compacted state the daemon holds, and where its
// sequence cursor stands.
type DeltaSnapshot struct {
	Depth       int     `json:"depth"`
	Users       int     `json:"users"`
	PatchedRows int     `json:"patched_rows"`
	AgeSec      float64 `json:"age_sec"`
	Seq         uint64  `json:"seq"`
	Marker      uint64  `json:"marker"`
}

// Snapshot renders the counters into the /statsz JSON shape. Fields the
// server owns (cacheEntries, epoch, users, k) are left zero; the serving
// handler fills them in. Exported so the router can embed a Stats and
// extend the same snapshot rather than reinvent it.
func (st *Stats) Snapshot() Snapshot { return st.snapshot() }

// snapshot renders the counters; cacheEntries, epoch, users and k come
// from the server, which owns those.
func (st *Stats) snapshot() Snapshot {
	now := time.Now()
	up := now.Sub(st.start).Seconds()
	s := Snapshot{
		UptimeSec:   up,
		Requests:    st.requests.Load(),
		ByEndpoint:  make(map[string]uint64, numEndpoints),
		Batched:     st.batched.Load(),
		Queries:     st.queries.Load(),
		BadRequests: st.badRequest.Load(),
		QPSWindow:   st.windowRate(now),
		P50Micros:   st.percentile(0.50),
		P99Micros:   st.percentile(0.99),
		CacheHits:   st.cacheHits.Load(),
		CacheMisses: st.cacheMiss.Load(),
		Swaps:       st.swaps.Load(),
		LoadMS:      st.loadMS(),
	}
	s.Panics = st.panics.Load()
	s.Shed = st.shed.Load()
	s.DeadlineExpired = st.timeouts.Load()
	s.BodyTooLarge = st.tooLarge.Load()
	s.InFlight = st.inFlight.Load()
	s.ReloadFailures = st.reloadFail.Load()
	s.Upserts = st.upserts.Load()
	s.UpsertErrors = st.upsertErrors.Load()
	if s.Upserts > 0 {
		s.UpsertP50Micros = st.upsertLat.Percentile(0.50)
		s.UpsertP99Micros = st.upsertLat.Percentile(0.99)
	}
	s.Compactions = st.compactions.Load()
	s.CompactionFailures = st.compactFail.Load()
	st.compactErrMu.Lock()
	s.LastCompactError = st.lastCompactErr
	st.compactErrMu.Unlock()
	st.reloadErrMu.Lock()
	s.LastReloadKind, s.LastReloadError = st.lastReloadKind, st.lastReloadErr
	st.reloadErrMu.Unlock()
	s.ByStatus = make(map[string]uint64, len(knownStatusCodes)+1)
	for i, code := range knownStatusCodes {
		if n := st.byStatus[i].Load(); n > 0 {
			s.ByStatus[strconv.Itoa(code)] = n
		}
	}
	if n := st.byStatus[len(knownStatusCodes)].Load(); n > 0 {
		s.ByStatus["other"] = n
	}
	for ep := Endpoint(0); ep < numEndpoints; ep++ {
		s.ByEndpoint[ep.String()] = st.byEndpoint[ep].Load()
	}
	if up > 0 {
		s.QPSLifetime = float64(s.Requests) / up
	}
	if lookups := s.CacheHits + s.CacheMisses; lookups > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(lookups)
	}
	return s
}
