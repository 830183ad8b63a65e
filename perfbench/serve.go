package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"c2knn"
	"c2knn/internal/server"
)

// Endpoints of the query surface.
const (
	epNeighbors = iota
	epTopK
	epRecommend
)

var epPath = [...]string{"/v1/neighbors", "/v1/topk", "/v1/recommend"}
var epName = [...]string{"neighbors", "topk", "recommend"}

// queryCount is the k or n every generated query asks for.
const queryCount = 10

// query is one request of a generated trace.
type query struct {
	ep    int
	users []int32
	batch bool
}

func (q query) method() string {
	if q.batch {
		return http.MethodPost
	}
	return http.MethodGet
}

func (q query) countParam() string {
	if q.ep == epRecommend {
		return "n"
	}
	return "k"
}

func (q query) target() string {
	if q.batch {
		return epPath[q.ep]
	}
	return epPath[q.ep] + "?user=" + strconv.Itoa(int(q.users[0])) + "&" + q.countParam() + "=" + strconv.Itoa(queryCount)
}

func (q query) body() []byte {
	if !q.batch {
		return nil
	}
	b, _ := json.Marshal(map[string]any{"users": q.users, q.countParam(): queryCount})
	return b
}

func (q query) key() string { return q.method() + " " + q.target() + " " + string(q.body()) }

// kind names the index call a query maps to (the per-layer split).
func (q query) kind() string {
	if q.batch {
		return "batch"
	}
	return epName[q.ep]
}

// serveMix generates the read-only trace: single GETs over the three
// endpoints plus aligned batch POSTs (batchSize users, one endpoint),
// users Zipf-skewed over the whole base. The repository holds no request
// trace, so the shares are assumed (README.md, "Traffic").
func serveMix(rng *rand.Rand, zu *zipfUsers, n int) []query {
	qs := make([]query, n)
	for i := range qs {
		r := rng.Float64()
		switch {
		case r < batchShare:
			qs[i] = query{ep: rng.Intn(3), users: zu.aligned(batchSize), batch: true}
		case r < batchShare+recommendShare:
			qs[i] = query{ep: epRecommend, users: []int32{zu.next()}}
		case r < batchShare+recommendShare+topkShare:
			qs[i] = query{ep: epTopK, users: []int32{zu.next()}}
		default:
			qs[i] = query{ep: epNeighbors, users: []int32{zu.next()}}
		}
	}
	return qs
}

// Assumed request mix; neighbors GETs take the rest.
const (
	batchShare     = 0.08
	batchSize      = 4
	recommendShare = 0.42
	topkShare      = 0.25
)

// Wire shapes of the query endpoints, mirrored so that answers computed
// by direct Index calls marshal to the exact bytes the daemon sends.
type (
	wireNeighbors struct {
		User int32     `json:"user"`
		IDs  []int32   `json:"ids"`
		Sims []float32 `json:"sims"`
	}
	wireNeighbor struct {
		ID  int32   `json:"id"`
		Sim float64 `json:"sim"`
	}
	wireTopK struct {
		User      int32          `json:"user"`
		Neighbors []wireNeighbor `json:"neighbors"`
	}
	wireRecommend struct {
		User  int32   `json:"user"`
		Items []int32 `json:"items"`
	}
	wireBatch[T any] struct {
		Results []T `json:"results"`
	}
)

// answer is the result of a direct Index call for q, before marshaling.
type answer struct {
	q    query
	ids  [][]int32
	sims [][]float32
	top  [][]c2knn.Neighbor
	recs [][]int32
}

// callIndex answers q through the Index methods the daemon uses.
func callIndex(ix *c2knn.Index, q query) answer {
	a := answer{q: q}
	switch q.ep {
	case epNeighbors:
		for _, u := range q.users {
			ids, sims := ix.Neighbors(u)
			if len(ids) > queryCount {
				ids, sims = ids[:queryCount], sims[:queryCount]
			}
			a.ids = append(a.ids, ids)
			a.sims = append(a.sims, sims)
		}
	case epTopK:
		if q.batch {
			a.top = ix.TopKBatch(q.users, queryCount)
		} else {
			a.top = [][]c2knn.Neighbor{ix.TopK(q.users[0], queryCount)}
		}
	default:
		if q.batch {
			a.recs = ix.RecommendBatch(q.users, queryCount)
		} else {
			a.recs = [][]int32{ix.Recommend(q.users[0], queryCount)}
		}
	}
	return a
}

func (a answer) marshal() []byte {
	q := a.q
	var b []byte
	var err error
	switch q.ep {
	case epNeighbors:
		rs := make([]wireNeighbors, len(q.users))
		for i, u := range q.users {
			rs[i] = wireNeighbors{User: u, IDs: nonNil(a.ids[i]), Sims: nonNilF(a.sims[i])}
		}
		b, err = marshalOne(rs, q.batch)
	case epTopK:
		rs := make([]wireTopK, len(q.users))
		for i, u := range q.users {
			rs[i] = wireTopK{User: u, Neighbors: make([]wireNeighbor, len(a.top[i]))}
			for j, nb := range a.top[i] {
				rs[i].Neighbors[j] = wireNeighbor{ID: nb.ID, Sim: nb.Sim}
			}
		}
		b, err = marshalOne(rs, q.batch)
	default:
		rs := make([]wireRecommend, len(q.users))
		for i, u := range q.users {
			rs[i] = wireRecommend{User: u, Items: nonNil(a.recs[i])}
		}
		b, err = marshalOne(rs, q.batch)
	}
	if err != nil {
		panic(err) // plain structs of ints and floats always marshal
	}
	return b
}

func marshalOne[T any](rs []T, batch bool) ([]byte, error) {
	if batch {
		return json.Marshal(wireBatch[T]{Results: rs})
	}
	return json.Marshal(rs[0])
}

func nonNil(s []int32) []int32 {
	if s == nil {
		return []int32{}
	}
	return s
}

func nonNilF(s []float32) []float32 {
	if s == nil {
		return []float32{}
	}
	return s
}

type digest [16]byte

func digestOf(b []byte) digest {
	h := fnv.New128a()
	h.Write(b)
	var d digest
	h.Sum(d[:0])
	return d
}

// call is one generator request as the client saw it.
type call struct {
	q          query
	due, send  time.Time
	done       time.Time
	status     int
	err        error
	digest     digest
	slot       int // handler slot index (traced runs), -1 untraced
	latencyDur time.Duration
}

// do sends one request on c and records the outcome.
func do(c *http.Client, base string, cl *call) {
	var body io.Reader
	if b := cl.q.body(); b != nil {
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(cl.q.method(), base+cl.q.target(), body)
	if err != nil {
		cl.err = err
		return
	}
	if cl.slot >= 0 {
		req.Header.Set("X-Bench-Req", strconv.Itoa(cl.slot))
	}
	cl.send = time.Now()
	resp, err := c.Do(req)
	if err != nil {
		cl.done = time.Now()
		cl.err = err
		return
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	cl.done = time.Now()
	cl.status = resp.StatusCode
	cl.err = err
	cl.digest = digestOf(b)
	cl.latencyDur = cl.done.Sub(cl.due)
}

// openLoop sends calls[i] at start+dues[i] regardless of how earlier
// requests fare, from workers goroutines (one connection each) taking
// the next due request in order. Latency runs from the due time.
func openLoop(base string, calls []call, dues []time.Duration, workers int, start time.Time) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer closeClient(c)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(calls) {
					return
				}
				cl := &calls[i]
				cl.due = start.Add(dues[i])
				waitUntil(cl.due)
				do(c, base, cl)
			}
		}()
	}
	wg.Wait()
}

// closedLoop keeps workers connections busy, each sending its next
// request as soon as the previous answer arrives, until the deadline or
// the trace runs out. It returns the number of calls made and the
// wall time from start to the last answer.
func closedLoop(base string, calls []call, workers int, until time.Time) (int, time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer closeClient(c)
			for time.Now().Before(until) {
				i := int(next.Add(1) - 1)
				if i >= len(calls) {
					return
				}
				cl := &calls[i]
				cl.due = time.Now()
				do(c, base, cl)
			}
		}()
	}
	wg.Wait()
	n := min(int(next.Load()), len(calls))
	var wall time.Duration
	for i := 0; i < n; i++ {
		if d := calls[i].done.Sub(start); d > wall {
			wall = d
		}
	}
	return n, wall
}

// serveResult carries the serve phase's measurements.
type serveResult struct {
	p50, p99, qps, heapMB float64
	openRate              float64 // open-loop req/s: openLoad × qps
	open, closed          []call
	hitRate               float64
	// Per-layer figures of the traced run.
	indexUS  map[string]float64
	serverUS float64
	httpUS   float64
}

// serveTrace is the generated read-only load of one run, made before the
// daemon starts so that its memory is not charged to the daemon's heap.
// The open-loop schedule is a unit-rate Poisson process: runServe scales
// it to the rate it derives from the measured capacity.
type serveTrace struct {
	open, closed []call
	units        []float64 // open-loop send offsets at 1 req/s
	warm         []query
	slots        []handlerSlot // traced runs: live handler times per call
}

func newServeTrace(rng *rand.Rand, nUsers int, zipfS float64, openDur, closedDur time.Duration, traced bool) *serveTrace {
	zu := newZipfUsers(rng, nUsers, zipfS)
	// Sized for twice the capacity the closed loop is: a small dataset
	// serves faster.
	nOpen := int(openLoad * 2 * closedCap * openDur.Seconds())
	t := &serveTrace{units: poissonUnits(rng, nOpen)}
	for _, q := range serveMix(rng, zu, nOpen) {
		t.open = append(t.open, call{q: q, slot: -1})
	}
	for _, q := range serveMix(rng, zu, int(closedCap*closedDur.Seconds())) {
		t.closed = append(t.closed, call{q: q, slot: -1})
	}
	t.warm = serveMix(rng, zu, warmupCalls)
	if traced {
		t.slots = make([]handlerSlot, len(t.open)+len(t.closed))
		for i := range t.open {
			t.open[i].slot = i
		}
		for i := range t.closed {
			t.closed[i].slot = len(t.open) + i
		}
	}
	return t
}

// runServe drives the read-only daemon with the trace: a closed loop with
// workers connections for closedDur, which measures capacity, then an
// open-loop phase at openLoad times that capacity for openDur. Every
// answer is then checked against direct Index calls.
func runServe(d *daemon, t *serveTrace, heapBefore uint64, openDur, closedDur time.Duration, workers int, tr *tracer, fails *failures) *serveResult {
	open, closed, slots := t.open, t.closed, t.slots
	if slots != nil {
		d.slots.Store(&slots)
	}

	// Warm-up: one pass of the head of the trace fills the cache and the
	// scorer pools before heap and latency are measured.
	wc := newClient()
	for _, q := range t.warm {
		cl := call{q: q, slot: -1}
		do(wc, d.url, &cl)
	}
	closeClient(wc)
	res := &serveResult{heapMB: float64(heapInUse()-heapBefore) / (1 << 20)}

	runtime.GC()
	s0 := d.statsz()
	closedStart := time.Now()
	n, wall := closedLoop(d.url, closed, workers, closedStart.Add(closedDur))
	closed = closed[:n]
	res.qps = windowedRate(closed, closedStart, wall, latencyWindows)
	res.openRate = openLoad * res.qps
	dues := scaleUnits(t.units, res.openRate, openDur)
	open = open[:len(dues)]
	openLoop(d.url, open, dues, workers, time.Now().Add(10*time.Millisecond))
	s1 := d.statsz()
	res.open, res.closed = open, closed
	if lookups := (s1.CacheHits - s0.CacheHits) + (s1.CacheMisses - s0.CacheMisses); lookups > 0 {
		res.hitRate = float64(s1.CacheHits-s0.CacheHits) / float64(lookups)
	}

	lat := make([]float64, len(open))
	for i, cl := range open {
		lat[i] = ms(cl.latencyDur)
	}
	res.p50, res.p99 = windowed(lat, latencyWindows, 0.5), windowed(lat, latencyWindows, 0.99)
	// Answer check, outside the timed window: every response must equal
	// the bytes of the direct Index answer, bit for bit.
	all := append(append([]call(nil), open...), closed...)
	ix := d.srv.Index()
	if tr == nil {
		verifyMemo(ix, all, workers, fails)
		return res
	}
	// The traced run replays (and keeps spans for) the open loop and the
	// head of the closed loop; the rest is only checked.
	traced := min(len(all), len(open)+tracedClosed)
	verifyMemo(ix, all[traced:], workers, fails)
	all = all[:traced]
	rp := replay(ix, all, fails)
	res.indexUS = map[string]float64{}
	counts := map[string]int{}
	var httpSelf []float64
	for i, cl := range all {
		k := cl.q.kind()
		res.indexUS[k] += us(rp.idx[i])
		counts[k]++
	}
	for k := range res.indexUS {
		res.indexUS[k] /= float64(counts[k])
	}
	res.serverUS = mean(rp.serverSelf)
	res.closed = closed[:traced-len(open)]
	// Spans: request (due→done) ⊃ http.client (send→done) ⊃
	// server.handler (live) ⊃ replay.index (a miss's index time, from
	// the direct replay of the same request).
	for i, cl := range all {
		root, req := "serve.open", int64(i)
		if i >= len(open) {
			root, req = "serve.closed", int64(i-len(open))
		}
		r := tr.add(root, -1, req, cl.due, cl.done)
		c := tr.add("http.client", r, req, cl.send, cl.done)
		hs, he := slots[cl.slot].start.Load(), slots[cl.slot].end.Load()
		if he <= hs {
			continue
		}
		httpSelf = append(httpSelf, us(cl.done.Sub(cl.send))-float64(he-hs)/1e3)
		hStart := tr.t0.Add(time.Duration(hs))
		h := tr.add("server.handler", c, req, hStart, tr.t0.Add(time.Duration(he)))
		if !rp.hit[i] {
			tr.addDur("replay.index."+cl.q.kind(), h, req, hStart, min(rp.idx[i], time.Duration(he-hs)))
		}
	}
	res.httpUS = mean(httpSelf)
	return res
}

// windowedRate is the median over n equal windows of [start,
// start+wall) of the answers completed per second in each.
func windowedRate(calls []call, start time.Time, wall time.Duration, n int) float64 {
	counts := make([]float64, n)
	width := wall / time.Duration(n)
	for _, cl := range calls {
		if w := int(cl.done.Sub(start) / width); w >= 0 && w < n {
			counts[w]++
		}
	}
	for w := range counts {
		counts[w] /= width.Seconds()
	}
	return median(counts)
}

// poissonUnits returns n send offsets, in seconds, of a Poisson process
// at 1 req/s.
func poissonUnits(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64()
		out[i] = t
	}
	return out
}

// scaleUnits turns unit-rate offsets into send offsets at rate/s, keeping
// those that fall within dur.
func scaleUnits(units []float64, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	for _, u := range units {
		d := time.Duration(u / rate * float64(time.Second))
		if d >= dur {
			break
		}
		out = append(out, d)
	}
	return out
}

const (
	// openLoad is the open-loop rate as a share of the closed-loop capacity
	// measured in the same run: well below capacity, so latency shows
	// service time rather than queueing behind the generator's own load.
	openLoad     = 0.1
	closedCap    = 32000 // req/s the closed-loop trace is sized for
	warmupCalls  = 2000
	tracedClosed = 20000 // closed-loop requests a traced run replays
)

func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// checkCall counts one call and fails it unless it got a 200 whose body
// digest equals want.
func checkCall(cl *call, want digest, fails *failures) {
	fails.attempt()
	switch {
	case cl.err != nil:
		fails.fail("%s: %v", cl.q.key(), cl.err)
	case cl.status != http.StatusOK:
		fails.fail("%s: status %d", cl.q.key(), cl.status)
	case cl.digest != want:
		fails.fail("%s: answer differs from the direct Index call", cl.q.key())
	}
}

// verifyMemo checks every call against the direct Index answer,
// computing each distinct query's answer once, on workers goroutines.
func verifyMemo(ix *c2knn.Index, calls []call, workers int, fails *failures) {
	keys := map[string]int{} // key → index of the first call with it
	var uniq []int
	for i := range calls {
		k := calls[i].q.key()
		if _, ok := keys[k]; !ok {
			keys[k] = len(uniq)
			uniq = append(uniq, i)
		}
	}
	want := make([]digest, len(uniq))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(uniq) {
					return
				}
				want[j] = digestOf(callIndex(ix, calls[uniq[j]].q).marshal())
			}
		}()
	}
	wg.Wait()
	for i := range calls {
		checkCall(&calls[i], want[keys[calls[i].q.key()]], fails)
	}
}

// replayOut is the traced run's replay of a serve trace.
type replayOut struct {
	idx        []time.Duration // direct Index call time per request
	hit        []bool          // whether the handler replay hit the cache
	serverSelf []float64       // µs: handler time minus index time on a miss
}

// replay re-runs the trace sequentially, first as direct Index calls
// (which also check every live answer) and then through a fresh
// server's Handler into an in-memory recorder, with no TCP.
func replay(ix *c2knn.Index, calls []call, fails *failures) replayOut {
	out := replayOut{idx: make([]time.Duration, len(calls)), hit: make([]bool, len(calls))}
	for i := range calls {
		t0 := time.Now()
		a := callIndex(ix, calls[i].q)
		out.idx[i] = time.Since(t0)
		checkCall(&calls[i], digestOf(a.marshal()), fails)
	}
	srv, err := server.New(ix, server.Config{ReadOnly: true})
	if err != nil {
		fails.fail("replay server: %v", err)
		return out
	}
	h := srv.Handler()
	for i := range calls {
		q := calls[i].q
		var body io.Reader
		if b := q.body(); b != nil {
			body = bytes.NewReader(b)
		}
		req := httptest.NewRequest(q.method(), q.target(), body)
		rec := httptest.NewRecorder()
		hits := srv.Stats().Snapshot().CacheHits
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		out.hit[i] = srv.Stats().Snapshot().CacheHits > hits
		self := d
		if !out.hit[i] {
			self -= out.idx[i]
		}
		out.serverSelf = append(out.serverSelf, us(self))
		if rec.Code != http.StatusOK || digestOf(rec.Body.Bytes()) != calls[i].digest {
			fails.fail("%s: handler replay answered differently", q.key())
		}
	}
	return out
}
