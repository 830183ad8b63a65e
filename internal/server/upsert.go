package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"c2knn"
)

// The write path of the serving daemon: POST /v1/upsert absorbs
// profiles into the served index's delta overlay (sub-second, no
// rebuild), and the compactor — POST /admin/compact or the background
// loop StartCompactor runs — folds base + delta into a fresh snapshot
// on disk and hot-swaps it in without dropping the overlay or any
// upsert that raced in during the fold.
//
// Topology contract: exactly one writable daemon per snapshot. Read
// replicas and routers run -read-only and refuse writes with 403
// (kind "read-only"), so a misdirected client learns immediately that
// its writes would be lost rather than silently diverging one replica.

// upsertEntry is one profile write: user -1 (or omitted) inserts a new
// user, an existing id merges the items into that user's profile.
type upsertEntry struct {
	User  *int32  `json:"user,omitempty"`
	Items []int32 `json:"items"`
}

func (e upsertEntry) user() int32 {
	if e.User == nil {
		return -1
	}
	return *e.User
}

// upsertRequest accepts both request forms: a single entry inline
// ({"user":U,"items":[...]}) or a batch ({"upserts":[...]}).
type upsertRequest struct {
	upsertEntry
	Upserts []upsertEntry `json:"upserts,omitempty"`
}

// upsertResult is one entry's outcome; failed entries carry Error and
// a zero result (a batch is not transactional — earlier entries stay
// absorbed).
type upsertResult struct {
	c2knn.UpsertResult
	Error string `json:"error,omitempty"`
}

// refusalResponse is the typed 403 body of the write surface: kind
// "read-only" means this replica never accepts writes (find the
// writable daemon), "disabled" means the served index has no delta
// overlay (start the daemon with -upserts, on a snapshot that carries
// fingerprints).
type refusalResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

func (s *Server) refuseWrite(w http.ResponseWriter, kind, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusForbidden)
	json.NewEncoder(w).Encode(refusalResponse{Error: msg, Kind: kind})
}

// serveUpsert handles POST /v1/upsert. Writes serialize on the
// overlay's writer lock; the handler still passes through the worker
// pool so a write stampede cannot starve reads of pool slots.
func (s *Server) serveUpsert(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "upsert requires POST", http.StatusMethodNotAllowed)
		return
	}
	if s.cfg.ReadOnly {
		s.refuseWrite(w, "read-only", "this replica is read-only; send writes to the writable daemon")
		return
	}
	var req upsertRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.tooLarge(w)
			return
		}
		s.badRequest(w, "invalid JSON body: "+err.Error())
		return
	}
	batch := req.Upserts != nil
	entries := req.Upserts
	if !batch {
		entries = []upsertEntry{req.upsertEntry}
	}
	if len(entries) == 0 {
		s.badRequest(w, `"upserts" must be a non-empty array`)
		return
	}
	if len(entries) > s.cfg.MaxBatch {
		s.badRequest(w, fmt.Sprintf("batch of %d upserts exceeds the maximum of %d", len(entries), s.cfg.MaxBatch))
		return
	}

	select {
	case s.sem <- struct{}{}:
	case <-r.Context().Done():
		s.answerError(w, r, r.Context().Err())
		return
	}
	defer func() { <-s.sem }()
	// Pin the index across the writes, exactly as answer does for reads:
	// a compaction swap displacing this index must not unmap its base
	// pages while an upsert is scoring against them.
	var st *state
	for {
		st = s.st.Load()
		if st.ix.Retain() {
			break
		}
	}
	defer st.ix.Release()
	if !st.ix.Upserts() {
		s.refuseWrite(w, "disabled", "upserts are not enabled on this daemon (start with -upserts)")
		return
	}

	results := make([]upsertResult, len(entries))
	for i, e := range entries {
		start := time.Now()
		res, err := st.ix.Upsert(e.user(), e.Items)
		if err != nil {
			results[i] = upsertResult{Error: err.Error()}
			s.stats.RecordUpsertError()
			continue
		}
		results[i] = upsertResult{UpsertResult: res}
		s.stats.RecordUpsert(time.Since(start))
	}
	w.Header().Set("Content-Type", "application/json")
	if !batch {
		if results[0].Error != "" {
			s.badRequest(w, results[0].Error)
			return
		}
		json.NewEncoder(w).Encode(results[0])
		return
	}
	json.NewEncoder(w).Encode(batchResponse[upsertResult]{Results: results})
}

// CompactResult reports one completed compaction swap.
type CompactResult struct {
	Status   string  `json:"status"`
	Epoch    uint64  `json:"epoch"`
	Users    int     `json:"users"`
	Absorbed uint64  `json:"absorbed"`
	TookSec  float64 `json:"took_sec"`
}

// CompactNow folds the served index's delta into a fresh snapshot at
// Config.SnapshotPath, reloads it, carries the overlay (and any upsert
// that raced in during the fold) onto the new index, and swaps it into
// service — the full freshness cycle, with queries and upserts running
// throughout. Serialized with Reload/Swap on the same lock.
func (s *Server) CompactNow() (CompactResult, error) {
	if s.cfg.SnapshotPath == "" {
		return CompactResult{}, errors.New("server: no snapshot path configured; cannot compact")
	}
	start := time.Now()
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	old := s.st.Load()
	ds, ok := old.ix.DeltaStats()
	if !ok {
		return CompactResult{}, c2knn.ErrUpsertsDisabled
	}
	marker, err := old.ix.CompactInto(s.cfg.SnapshotPath)
	if err != nil {
		err = fmt.Errorf("server: compact into %s: %w", s.cfg.SnapshotPath, err)
		s.stats.RecordCompactionFailure(err.Error())
		return CompactResult{}, err
	}
	loadStart := time.Now()
	ix, err := c2knn.LoadIndexMode(s.cfg.SnapshotPath, s.cfg.LoadMode)
	loaded := time.Since(loadStart)
	if err != nil {
		err = fmt.Errorf("server: reload compacted %s: %w", s.cfg.SnapshotPath, err)
		s.stats.RecordCompactionFailure(err.Error())
		return CompactResult{}, err
	}
	if err := ix.AdoptDeltaFrom(old.ix, marker); err != nil {
		ix.Close()
		err = fmt.Errorf("server: adopt delta after compaction: %w", err)
		s.stats.RecordCompactionFailure(err.Error())
		return CompactResult{}, err
	}
	s.st.Store(&state{ix: ix, epoch: old.epoch + 1})
	s.cache.Flush()
	s.stats.RecordSwap()
	s.stats.RecordCompaction()
	s.stats.RecordLoad(loaded)
	// Readers still draining on the old index fall back to its plain
	// base rows (memory-safe; the overlay now serves through the new
	// index only). Its mapping unmaps once the last of them releases.
	old.ix.DetachDelta()
	old.ix.Close()
	return CompactResult{
		Status:   "ok",
		Epoch:    old.epoch + 1,
		Users:    ix.NumUsers(),
		Absorbed: uint64(ds.Depth),
		TookSec:  time.Since(start).Seconds(),
	}, nil
}

// serveCompact handles POST /admin/compact: one synchronous compaction
// cycle. Mirrors /admin/reload's discipline (observed, never shed or
// deadlined — folding a big snapshot may legitimately outlive a query
// deadline).
func (s *Server) serveCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "compact requires POST", http.StatusMethodNotAllowed)
		return
	}
	if s.cfg.ReadOnly {
		s.refuseWrite(w, "read-only", "this replica is read-only; compact on the writable daemon")
		return
	}
	res, err := s.CompactNow()
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		if errors.Is(err, c2knn.ErrUpsertsDisabled) {
			s.refuseWrite(w, "disabled", "upserts are not enabled on this daemon (start with -upserts)")
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
		return
	}
	json.NewEncoder(w).Encode(res)
}

// StartCompactor launches the background compaction loop: every period
// it checks the overlay and runs a compaction cycle once the delta is
// at least depth upserts deep or its oldest un-folded upsert is older
// than age (either threshold ≤ 0 disables that trigger). The returned
// stop function halts the loop and waits for an in-progress cycle.
func (s *Server) StartCompactor(period time.Duration, depth int, age time.Duration) (stop func()) {
	if period <= 0 {
		period = 5 * time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
			case <-done:
				return
			}
			ds, ok := s.st.Load().ix.DeltaStats()
			if !ok || ds.Depth == 0 {
				continue
			}
			if (depth <= 0 || ds.Depth < depth) && (age <= 0 || ds.AgeSec < age.Seconds()) {
				continue
			}
			if res, err := s.CompactNow(); err != nil {
				if s.cfg.Logf != nil {
					s.cfg.Logf("compactor: %v", err)
				}
			} else if s.cfg.Logf != nil {
				s.cfg.Logf("compactor: folded %d upserts into %s in %.3fs (epoch %d, %d users)",
					res.Absorbed, s.cfg.SnapshotPath, res.TookSec, res.Epoch, res.Users)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
