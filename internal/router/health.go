package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"c2knn/internal/server"
)

// healthLoop polls every replica's /healthz on the configured period.
func (rt *Router) healthLoop() {
	defer rt.healthWG.Done()
	t := time.NewTicker(rt.cfg.HealthEvery)
	defer t.Stop()
	rt.PollHealth() // prime immediately so routing starts informed
	for {
		select {
		case <-t.C:
			rt.PollHealth()
		case <-rt.healthCtx.Done():
			return
		}
	}
}

// PollHealth probes every replica once, synchronously, updating health
// and epoch state. Exported so tests (and operators via a future admin
// hook) can force a poll instead of waiting a period.
//
// Epoch-skew detection lives here: after a hot swap, every replica of
// a shard must converge to the new snapshot epoch. A replica stuck on
// an old epoch while a sibling serves a newer one means the swap
// half-landed — users of that shard get answers from two different
// graph versions depending on which replica wins. That is the same
// operational failure class as a refused reload, so it is surfaced
// through the same plumbing: RecordReloadFailure with kind
// "epoch-skew", which /statsz and /metrics already expose. The record
// fires on the skewed→converged edges only, not per poll, so the
// counter counts incidents rather than polls.
func (rt *Router) PollHealth() {
	ctx, cancel := context.WithTimeout(rt.healthCtx, rt.cfg.UpstreamTimeout)
	defer cancel()

	skew := false
	var skewMsg string
	dSkew := false
	var dSkewMsg string
	for _, sh := range rt.shards {
		var lo, hi uint64
		seen := false
		var dLo, dHi uint64
		dSeen := false
		for _, rep := range sh.replicas {
			h, err := rt.probe(ctx, rep)
			if err != nil {
				rt.noteReplicaError(rep, err)
				continue
			}
			rep.healthy.Store(h.Status == "ok")
			rep.epoch.Store(h.Epoch)
			rep.users.Store(int64(h.Users))
			rep.deltaSeq.Store(h.DeltaSeq)
			rep.mu.Lock()
			rep.lastErr = ""
			rep.mu.Unlock()
			if h.Epoch > 0 {
				if !seen || h.Epoch < lo {
					lo = h.Epoch
				}
				if !seen || h.Epoch > hi {
					hi = h.Epoch
				}
				seen = true
				if !dSeen || h.DeltaSeq < dLo {
					dLo = h.DeltaSeq
				}
				if !dSeen || h.DeltaSeq > dHi {
					dHi = h.DeltaSeq
				}
				dSeen = true
			}
		}
		if seen && lo != hi && !skew {
			skew = true
			skewMsg = fmt.Sprintf("shard %d replicas disagree about the serving epoch (min %d, max %d): a hot swap half-landed", sh.spec.ID, lo, hi)
		} else if seen && lo != hi {
			skew = true
		}
		// Delta skew is only meaningful between replicas on the same
		// epoch: across a half-landed swap the sequence cursors restart,
		// and the epoch skew above already covers that incident.
		if dSeen && lo == hi && dLo != dHi {
			if !dSkew {
				dSkewMsg = fmt.Sprintf("shard %d replicas disagree about the upsert cursor (min %d, max %d): writes are landing on more than one replica, or a read replica missed a compaction", sh.spec.ID, dLo, dHi)
			}
			dSkew = true
		}
	}
	if skew && !rt.skewed.Swap(true) {
		rt.stats.RecordReloadFailure("epoch-skew", skewMsg)
		rt.logf("router: %s", skewMsg)
	} else if !skew {
		rt.skewed.Store(false)
	}
	if dSkew && !rt.deltaSkewed.Swap(true) {
		rt.stats.RecordReloadFailure("delta-skew", dSkewMsg)
		rt.logf("router: %s", dSkewMsg)
	} else if !dSkew {
		rt.deltaSkewed.Store(false)
	}
}

func (rt *Router) probe(ctx context.Context, rep *replica) (*server.HealthResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	var h server.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	return &h, nil
}

// routerHealth is the router's own /healthz body: overall status
// ("ok" when every shard has at least one healthy replica, "degraded"
// otherwise), table shape, and replica health counts.
type routerHealth struct {
	Status          string `json:"status"`
	Shards          int    `json:"shards"`
	Buckets         int    `json:"buckets"`
	ReplicasHealthy int    `json:"replicas_healthy"`
	ReplicasTotal   int    `json:"replicas_total"`
}

func (rt *Router) serveHealthz(w http.ResponseWriter, r *http.Request) {
	h := routerHealth{Status: "ok", Shards: len(rt.shards), Buckets: rt.cfg.Buckets}
	for _, sh := range rt.shards {
		anyUp := false
		for _, rep := range sh.replicas {
			h.ReplicasTotal++
			if rep.healthy.Load() {
				h.ReplicasHealthy++
				anyUp = true
			}
		}
		if !anyUp {
			h.Status = "degraded"
		}
	}
	server.WriteJSON(w, http.StatusOK, h)
}
