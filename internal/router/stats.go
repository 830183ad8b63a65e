package router

import (
	"fmt"
	"net/http"
	"sync/atomic"

	"c2knn/internal/server"
)

// Stats extends the shard daemon's counters with the router's own:
// fan-out latency (one observation per upstream try), hedged and
// failed-over tries, upstream errors, and partial responses. Embedding
// *server.Stats means the middleware stack, /statsz and /metrics reuse
// the exact accounting — and metric names — operators already know
// from the shard tier.
type Stats struct {
	*server.Stats

	// Fanout observes every upstream try's latency (hedges and
	// failovers included), in the same HDR layout as request latency so
	// the two are directly comparable.
	Fanout server.LatencyHist

	partials     atomic.Uint64 // responses answered degraded (X-C2-Partial)
	hedges       atomic.Uint64 // tries launched by the hedge timer
	failovers    atomic.Uint64 // tries launched because an earlier one failed
	upstreamErrs atomic.Uint64 // tries that failed (transport or 5xx)
}

func newStats() *Stats { return &Stats{Stats: server.NewStats()} }

// RecordPartial accounts one request answered with degraded (partial)
// results instead of an error.
func (st *Stats) RecordPartial() { st.partials.Add(1) }

// ReplicaStatus is one upstream replica's health as the poll loop last
// saw it.
type ReplicaStatus struct {
	Addr      string `json:"addr"`
	Healthy   bool   `json:"healthy"`
	Epoch     uint64 `json:"epoch"`
	Users     int    `json:"users"`
	DeltaSeq  uint64 `json:"delta_seq,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

// ShardStatus is one shard's view in the router /statsz: its bucket
// range, replicas, and whether its replicas disagree about the serving
// epoch (one stuck on an old snapshot after a hot swap).
type ShardStatus struct {
	ID        int             `json:"id"`
	Lo        uint32          `json:"lo"`
	Hi        uint32          `json:"hi"`
	Replicas  []ReplicaStatus `json:"replicas"`
	EpochSkew bool            `json:"epoch_skew"`
	DeltaSkew bool            `json:"delta_skew"`
}

// routerSection is the router-specific block of /statsz.
type routerSection struct {
	Shards         []ShardStatus `json:"shards"`
	Partials       uint64        `json:"partial_responses"`
	Hedges         uint64        `json:"hedged_tries"`
	Failovers      uint64        `json:"failover_tries"`
	UpstreamErrors uint64        `json:"upstream_errors"`
	FanoutP50      float64       `json:"fanout_p50_us"`
	FanoutP99      float64       `json:"fanout_p99_us"`
	EpochSkew      bool          `json:"epoch_skew"`
	EpochMin       uint64        `json:"epoch_min"`
	EpochMax       uint64        `json:"epoch_max"`
	DeltaSkew      bool          `json:"delta_skew"`
}

// statszResponse embeds the shard-tier snapshot (flattened into the
// same JSON keys /statsz has always had) plus the router section.
type statszResponse struct {
	server.Snapshot
	Router routerSection `json:"router"`
}

func (rt *Router) serveStatsz(w http.ResponseWriter, r *http.Request) {
	resp := statszResponse{Snapshot: rt.stats.Snapshot(), Router: rt.routerSection()}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) routerSection() routerSection {
	sec := routerSection{
		Partials:       rt.stats.partials.Load(),
		Hedges:         rt.stats.hedges.Load(),
		Failovers:      rt.stats.failovers.Load(),
		UpstreamErrors: rt.stats.upstreamErrs.Load(),
		FanoutP50:      rt.stats.Fanout.Percentile(0.50),
		FanoutP99:      rt.stats.Fanout.Percentile(0.99),
	}
	first := true
	for _, sh := range rt.shards {
		ss := ShardStatus{ID: sh.spec.ID, Lo: sh.spec.Range.Lo, Hi: sh.spec.Range.Hi}
		var lo, hi, dLo, dHi uint64
		seen := false
		for _, rep := range sh.replicas {
			rs := ReplicaStatus{
				Addr:     rep.base,
				Healthy:  rep.healthy.Load(),
				Epoch:    rep.epoch.Load(),
				Users:    int(rep.users.Load()),
				DeltaSeq: rep.deltaSeq.Load(),
			}
			rep.mu.Lock()
			rs.LastError = rep.lastErr
			rep.mu.Unlock()
			ss.Replicas = append(ss.Replicas, rs)
			if rs.Healthy && rs.Epoch > 0 {
				if !seen || rs.Epoch < lo {
					lo = rs.Epoch
				}
				if !seen || rs.Epoch > hi {
					hi = rs.Epoch
				}
				if !seen || rs.DeltaSeq < dLo {
					dLo = rs.DeltaSeq
				}
				if !seen || rs.DeltaSeq > dHi {
					dHi = rs.DeltaSeq
				}
				seen = true
			}
		}
		ss.EpochSkew = seen && lo != hi
		if ss.EpochSkew {
			sec.EpochSkew = true
		}
		// See PollHealth: cursors only compare within one epoch.
		ss.DeltaSkew = seen && lo == hi && dLo != dHi
		if ss.DeltaSkew {
			sec.DeltaSkew = true
		}
		if seen {
			if first || lo < sec.EpochMin {
				sec.EpochMin = lo
			}
			if first || hi > sec.EpochMax {
				sec.EpochMax = hi
			}
			first = false
		}
		sec.Shards = append(sec.Shards, ss)
	}
	return sec
}

// serveMetrics writes the router's Prometheus exposition: the series
// every server.Stats feeds, under the shard tier's names (same stack,
// same semantics), then c2_router_* series for fan-out behavior.
func (rt *Router) serveMetrics(w http.ResponseWriter, r *http.Request) {
	sec := rt.routerSection()
	rt.stats.WriteMetrics(w)
	gauge := func(name, help string, on bool) {
		server.WriteHelp(w, "gauge", name, help)
		v := 0
		if on {
			v = 1
		}
		fmt.Fprintf(w, "%s %d\n", name, v)
	}

	server.WriteCounter(w, "c2_router_partial_responses_total", "Requests answered with partial (degraded) results.", sec.Partials)
	server.WriteCounter(w, "c2_router_hedged_tries_total", "Upstream tries launched by the hedge timer.", sec.Hedges)
	server.WriteCounter(w, "c2_router_failover_tries_total", "Upstream tries launched after an earlier try failed.", sec.Failovers)
	server.WriteCounter(w, "c2_router_upstream_errors_total", "Upstream tries that failed (transport error or 5xx).", sec.UpstreamErrors)
	gauge("c2_router_epoch_skew", "1 when replicas of some shard disagree about the serving epoch.", sec.EpochSkew)
	gauge("c2_router_delta_skew", "1 when same-epoch replicas of some shard disagree about the upsert cursor.", sec.DeltaSkew)
	for _, ss := range sec.Shards {
		healthy := 0
		for _, rep := range ss.Replicas {
			if rep.Healthy {
				healthy++
			}
		}
		fmt.Fprintf(w, "c2_router_shard_replicas_healthy{shard=\"%d\"} %d\n", ss.ID, healthy)
	}

	// One observation per upstream try.
	server.WriteHistogram(w, "c2_router_fanout_duration_seconds", "Upstream try latency.", &rt.stats.Fanout)
}
