package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"time"

	"c2knn"
	"c2knn/internal/sets"
)

// upsertOp is one write of the freshness trace: a new user carrying a
// held-out profile, or items added to an existing user. The items added
// to an existing user are ones the base index recommends to them (the
// user consumed their recommendations), so the write has a visible
// effect: they must vanish from that user's recommendations.
type upsertOp struct {
	user   int32 // -1 until a new user is acknowledged
	isNew  bool
	items  []int32
	wantID int32 // the id a new user must be assigned
}

func (op upsertOp) body() []byte {
	m := map[string]any{"items": op.items}
	if !op.isNew {
		m["user"] = op.user
	}
	b, _ := json.Marshal(m)
	return b
}

// freshResult carries the freshness phase's measurements.
type freshResult struct {
	upsertMS, readMS []float64
	compactS         []float64
	depthMax         int
	compactions      int
	hitRate          float64
	quality          float64
	writeRate        float64   // open-loop upserts/s: openLoad × the calibrated capacity
	late             []float64 // ms, open-loop send slip of writes and reads
}

// freshTrace generates the open-loop write and read schedules of one
// phase. Writes come at writeRate; new users are spread evenly over them,
// as many as the held-out tail holds, and the rest are item additions.
// Reads are the serve mix's single recommend and topk GETs, at readRate.
func freshTrace(rng *rand.Rand, zu *zipfUsers, in *inputs, ix *c2knn.Index, dur time.Duration, writeRate, readRate float64) ([]upsertOp, []time.Duration, []query, []time.Duration) {
	n := in.base.NumUsers()
	wdues := scaleUnits(poissonUnits(rng, int(writeRate*dur.Seconds())+1), writeRate, dur)
	var ops []upsertOp
	next := 0
	newShare := min(1, float64(len(in.tail))/float64(max(1, len(wdues))))
	for len(ops) < len(wdues) {
		if rng.Float64() < newShare && next < len(in.tail) {
			ops = append(ops, upsertOp{user: -1, isNew: true, items: in.tail[next], wantID: int32(n + next)})
			next++
		} else if op, ok := addOp(zu, ix); ok {
			ops = append(ops, op)
		}
	}
	rdues := scaleUnits(poissonUnits(rng, int(readRate*dur.Seconds())+1), readRate, dur)
	reads := make([]query, len(rdues))
	for i := range reads {
		ep := epTopK
		if rng.Float64() < recommendShare/(recommendShare+topkShare) {
			ep = epRecommend
		}
		reads[i] = query{ep: ep, users: []int32{zu.next()}}
	}
	return ops, wdues, reads, rdues
}

// addOp draws an existing user and adds one item (one rating): the one
// the index recommends to them first. ok is false when it recommends
// nothing.
func addOp(zu *zipfUsers, ix *c2knn.Index) (upsertOp, bool) {
	u := zu.next()
	recs := ix.Recommend(u, 1)
	return upsertOp{user: u, items: recs}, len(recs) > 0
}

const (
	// calibrateShare is the share of the freshness phase the write lane
	// runs closed-loop, to measure its capacity, before the open loop.
	calibrateShare = 0.1
	// compactDepth is c2serve's default -compact-depth: its background
	// compactor folds the delta once this many upserts are pending.
	compactDepth = 1024
)

// writer is the freshness write lane: one connection that upserts, reads
// each written user back, and compacts after every compactDepth
// acknowledged upserts, re-reading every user written since the previous
// compaction.
type writer struct {
	d       *daemon
	c       *http.Client
	fails   *failures
	tr      *tracer
	pending []upsertOp // acknowledged since the last compaction
	res     *freshResult
	calls   []call
	calOps  []upsertOp // the calibration's writes
}

// calibrate runs the write lane closed-loop until the deadline with item
// additions and returns its capacity: acknowledged writes per second of
// lane time (upsert, read-back and any compaction; drawing the next write
// is not counted).
func (w *writer) calibrate(zu *zipfUsers, until time.Time) float64 {
	var busy time.Duration
	for time.Now().Before(until) {
		op, ok := addOp(zu, w.d.srv.Index())
		if !ok {
			continue
		}
		t0 := time.Now()
		cl := call{slot: -1, due: t0}
		if got, ok := w.upsert(&cl, op); ok {
			op.user = got
			w.checkVisible(op)
			w.calOps = append(w.calOps, op)
			w.acked(op)
		}
		busy += time.Since(t0)
	}
	if busy <= 0 || len(w.calOps) == 0 {
		return 0
	}
	return float64(len(w.calOps)) / busy.Seconds()
}

// acked records an acknowledged, read-back write and compacts once
// compactDepth of them are pending.
func (w *writer) acked(op upsertOp) {
	w.pending = append(w.pending, op)
	if len(w.pending) == compactDepth {
		w.compact()
	}
}

// run sends ops[i] at start+dues[i], open-loop; latency runs from the due
// time.
func (w *writer) run(ops []upsertOp, dues []time.Duration, start time.Time) {
	w.calls = make([]call, len(ops))
	for i, op := range ops {
		cl := &w.calls[i]
		cl.due = start.Add(dues[i])
		cl.slot = -1
		if w.tr != nil {
			cl.slot = i
		}
		waitUntil(cl.due)
		got, ok := w.upsert(cl, op)
		w.res.upsertMS = append(w.res.upsertMS, ms(cl.latencyDur))
		w.res.late = append(w.res.late, ms(cl.send.Sub(cl.due)))
		if !ok {
			continue
		}
		op.user = got
		w.checkVisible(op)
		w.acked(op)
	}
}

// upsert posts one write and returns the user id it landed on.
func (w *writer) upsert(cl *call, op upsertOp) (int32, bool) {
	w.fails.attempt()
	cl.send = time.Now()
	req, err := http.NewRequest(http.MethodPost, w.d.url+"/v1/upsert", bytes.NewReader(op.body()))
	if err != nil {
		w.fails.fail("upsert request: %v", err)
		return 0, false
	}
	if cl.slot >= 0 {
		req.Header.Set("X-Bench-Req", strconv.Itoa(cl.slot))
	}
	var res struct {
		User    int32 `json:"user"`
		Created bool  `json:"created"`
	}
	status, err := w.exchange(req, &res)
	cl.done = time.Now()
	cl.latencyDur = cl.done.Sub(cl.due)
	cl.status = status
	switch {
	case err != nil:
		w.fails.fail("upsert: %v", err)
		return 0, false
	case status != http.StatusOK:
		w.fails.fail("upsert: status %d", status)
		return 0, false
	case op.isNew && (!res.Created || res.User != op.wantID):
		w.fails.fail("upsert of a new user: got id %d (created %v), want %d", res.User, res.Created, op.wantID)
		return 0, false
	case !op.isNew && res.User != op.user:
		w.fails.fail("upsert of user %d landed on %d", op.user, res.User)
		return 0, false
	}
	return res.User, true
}

// exchange sends req on the writer's connection and decodes a JSON body.
func (w *writer) exchange(req *http.Request, into any) (int, error) {
	resp, err := w.c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK || into == nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(b, into)
}

// checkVisible reads op's user back and fails unless the write shows: a
// new user has neighbors, an existing user is no longer recommended the
// items it just added.
func (w *writer) checkVisible(op upsertOp) {
	w.fails.attempt()
	u := strconv.Itoa(int(op.user))
	if op.isNew {
		var r wireTopK
		req, _ := http.NewRequest(http.MethodGet, w.d.url+"/v1/topk?user="+u+"&k=30", nil)
		status, err := w.exchange(req, &r)
		switch {
		case err != nil || status != http.StatusOK:
			w.fails.fail("read-back of new user %d: status %d, %v", op.user, status, err)
		case len(r.Neighbors) == 0:
			w.fails.fail("new user %d has no neighbors after its upsert", op.user)
		}
		return
	}
	var r wireRecommend
	req, _ := http.NewRequest(http.MethodGet, w.d.url+"/v1/recommend?user="+u+"&n=30", nil)
	status, err := w.exchange(req, &r)
	if err != nil || status != http.StatusOK {
		w.fails.fail("read-back of user %d: status %d, %v", op.user, status, err)
		return
	}
	for _, it := range op.items {
		if slices.Contains(r.Items, it) {
			w.fails.fail("user %d is still recommended item %d it upserted", op.user, it)
			return
		}
	}
}

// compact runs one compaction cycle through the admin endpoint and
// checks that every write since the previous one survived it.
func (w *writer) compact() {
	if ds, ok := w.d.srv.Index().DeltaStats(); ok && ds.Depth > w.res.depthMax {
		w.res.depthMax = ds.Depth
	}
	w.fails.attempt()
	t0 := time.Now()
	req, _ := http.NewRequest(http.MethodPost, w.d.url+"/admin/compact", nil)
	var res struct {
		TookSec float64 `json:"took_sec"`
	}
	status, err := w.exchange(req, &res)
	w.tr.add("compact", -1, int64(w.res.compactions), t0, time.Now())
	if err != nil || status != http.StatusOK {
		w.fails.fail("compact: status %d, %v", status, err)
		return
	}
	w.res.compactions++
	w.res.compactS = append(w.res.compactS, res.TookSec)
	// The folded writes must still show on the swapped-in index. Checked
	// by direct calls, so the check itself does not stall the write lane.
	ix := w.d.srv.Index()
	for _, op := range w.pending {
		w.fails.attempt()
		if op.isNew {
			if ids, _ := ix.Neighbors(op.user); len(ids) == 0 {
				w.fails.fail("new user %d has no neighbors after compaction", op.user)
			}
			continue
		}
		recs := ix.Recommend(op.user, 30)
		for _, it := range op.items {
			if slices.Contains(recs, it) {
				w.fails.fail("user %d is recommended item %d it upserted, after compaction", op.user, it)
				break
			}
		}
	}
	w.pending = w.pending[:0]
}

// runFresh drives the writable daemon for dur: first the write lane
// alone, closed-loop, to measure its capacity; then open-loop writes at
// openLoad times that capacity beside open-loop reads at readRate on the
// remaining connections.
func runFresh(d *daemon, in *inputs, rng *rand.Rand, readRate float64, dur time.Duration, workers int, tr *tracer, fails *failures) (*freshResult, []upsertOp) {
	res := &freshResult{}
	w := &writer{d: d, c: newClient(), fails: fails, tr: tr, res: res}
	defer closeClient(w.c)
	zu := newZipfUsers(rng, in.base.NumUsers(), in.zipfS)
	cal := time.Duration(calibrateShare * float64(dur))
	res.writeRate = openLoad * w.calibrate(zu, time.Now().Add(cal))
	if res.writeRate <= 0 {
		fails.fail("write-lane calibration acknowledged no upsert")
		return res, w.calOps
	}
	ops, wdues, reads, rdues := freshTrace(rng, zu, in, d.srv.Index(), dur-cal, res.writeRate, readRate)
	rcalls := make([]call, len(reads))
	for i := range rcalls {
		rcalls[i] = call{q: reads[i], slot: -1}
		if tr != nil {
			rcalls[i].slot = len(ops) + i
		}
	}
	var slots []handlerSlot
	if tr != nil {
		slots = make([]handlerSlot, len(ops)+len(reads))
		d.slots.Store(&slots)
	}
	s0 := d.statsz()
	start := time.Now().Add(10 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.run(ops, wdues, start)
	}()
	openLoop(d.url, rcalls, rdues, max(1, workers-1), start)
	<-done
	s1 := d.statsz()
	if lookups := (s1.CacheHits - s0.CacheHits) + (s1.CacheMisses - s0.CacheMisses); lookups > 0 {
		res.hitRate = float64(s1.CacheHits-s0.CacheHits) / float64(lookups)
	}
	for i := range rcalls {
		cl := &rcalls[i]
		fails.attempt()
		if cl.err != nil || cl.status != http.StatusOK {
			fails.fail("fresh read %s: status %d, %v", cl.q.key(), cl.status, cl.err)
		}
		res.readMS = append(res.readMS, ms(cl.latencyDur))
		res.late = append(res.late, ms(cl.send.Sub(cl.due)))
	}
	// Fold what is left so the final snapshot holds every write.
	if len(w.pending) > 0 {
		w.compact()
	}
	if tr != nil {
		freshSpans(tr, d, w.calls, rcalls, slots)
	}
	return res, append(w.calOps, ops...)
}

// freshSpans records the traced run's spans of the freshness phase:
// upsert and fresh.read roots (due→done) ⊃ http.client ⊃ server.handler,
// with the index share of each read taken from a direct replay on the
// final index (reads here are nearly all cache misses).
func freshSpans(tr *tracer, d *daemon, writes, reads []call, slots []handlerSlot) {
	ix := d.srv.Index()
	add := func(root string, req int64, cl *call, inner func(h int32, hStart time.Time, hDur time.Duration)) {
		r := tr.add(root, -1, req, cl.due, cl.done)
		c := tr.add("http.client", r, req, cl.send, cl.done)
		if cl.slot < 0 {
			return
		}
		hs, he := slots[cl.slot].start.Load(), slots[cl.slot].end.Load()
		if he <= hs {
			return
		}
		hStart := tr.t0.Add(time.Duration(hs))
		h := tr.add("server.handler", c, req, hStart, tr.t0.Add(time.Duration(he)))
		inner(h, hStart, time.Duration(he-hs))
	}
	for i := range writes {
		add("upsert", int64(i), &writes[i], func(int32, time.Time, time.Duration) {})
	}
	for i := range reads {
		cl := &reads[i]
		t0 := time.Now()
		callIndex(ix, cl.q)
		idx := time.Since(t0)
		add("fresh.read", int64(i), cl, func(h int32, hStart time.Time, hDur time.Duration) {
			tr.addDur("replay.index."+cl.q.kind(), h, int64(i), hStart, min(idx, hDur))
		})
	}
}

// replayUpserts applies the same writes directly through Index.Upsert
// on a fresh writable index over the base snapshot, returning the mean
// time per upsert: the delta layer's own cost, with no HTTP or server.
func replayUpserts(basePath string, ops []upsertOp) (time.Duration, error) {
	ix, err := c2knn.LoadIndex(basePath)
	if err != nil {
		return 0, err
	}
	defer ix.Close()
	if err := ix.EnableUpserts(c2knn.UpsertConfig{}); err != nil {
		return 0, err
	}
	var total time.Duration
	for _, op := range ops {
		user := op.user
		if op.isNew {
			user = -1
		}
		t0 := time.Now()
		if _, err := ix.Upsert(user, op.items); err != nil {
			return 0, err
		}
		total += time.Since(t0)
	}
	return total / time.Duration(max(1, len(ops))), nil
}

// checkFinal loads the snapshot the last compaction wrote and checks
// that it holds every acknowledged write, then estimates Eq. 2 of its
// graph over a sample of base users and upserted users.
func checkFinal(path string, in *inputs, ops []upsertOp, rng *rand.Rand, fails *failures) (float64, error) {
	ix, err := c2knn.LoadIndexMode(path, c2knn.LoadCopy)
	if err != nil {
		return 0, err
	}
	defer ix.Close()
	train := ix.Train()
	n := in.base.NumUsers()
	var newUsers []int32
	for _, op := range ops {
		fails.attempt()
		switch {
		case op.isNew && int(op.wantID) >= train.NumUsers():
			fails.fail("compacted snapshot lacks new user %d", op.wantID)
		case op.isNew && !slices.Equal(train.Profiles[op.wantID], sets.Normalize(slices.Clone(op.items))):
			fails.fail("compacted snapshot holds a different profile for new user %d", op.wantID)
		case !op.isNew && !containsAll(train.Profiles[op.user], op.items):
			fails.fail("compacted snapshot lost items upserted to user %d", op.user)
		}
		if op.isNew {
			newUsers = append(newUsers, op.wantID)
		}
	}
	sample := sampleUsers(rng, 0, n, qualitySample/2)
	rng.Shuffle(len(newUsers), func(i, j int) { newUsers[i], newUsers[j] = newUsers[j], newUsers[i] })
	sample = append(sample, newUsers[:min(len(newUsers), qualitySample/2)]...)
	g := ix.Graph()
	return sampleQuality(train, g.K, sample, func(u int32) []int32 {
		ids, _ := g.Neighbors(u)
		return ids
	}), nil
}

func containsAll(profile, items []int32) bool {
	for _, it := range items {
		if _, ok := slices.BinarySearch(profile, it); !ok {
			return false
		}
	}
	return true
}
