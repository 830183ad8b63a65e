package server

import (
	"fmt"
	"io"
	"net/http"
	"time"
)

// Prometheus text exposition of the daemon's counters, written by hand
// so serving needs no dependency beyond the standard library. The
// metric names below are the operational contract documented in
// EXPERIMENTS.md ("Operational hardening"); the soak harness
// reconciles several of them against its own request accounting.
//
// Scope note: c2_responses_total covers the query (/v1/*) and admin
// (/admin/*) surfaces only — probes of /healthz, /statsz and /metrics
// itself are not traffic and would otherwise make the counters
// impossible to reconcile with a load generator's.

// metricsBucketsSecs are the latency histogram upper bounds (seconds)
// exposed on /metrics. The internal HDR histogram is ~30× finer; the
// exposition downsamples to a conventional le ladder, attributing each
// HDR bucket to the first ladder rung at or above its upper edge so
// percentiles derived from the exposition never flatter the server.
var metricsBucketsSecs = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// MetricsHandler returns the /metrics endpoint as a standalone handler,
// for mounting on an admin mux alongside pprof (see cmd/c2serve).
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(s.serveMetrics)
}

// WriteHelp writes the HELP and TYPE lines that open a metric.
func WriteHelp(w io.Writer, typ, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// WriteCounter writes one unlabelled counter.
func WriteCounter(w io.Writer, name, help string, v uint64) {
	WriteHelp(w, "counter", name, help)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// WriteHistogram writes h as the Prometheus histogram name over the
// metricsBucketsSecs ladder.
func WriteHistogram(w io.Writer, name, help string, h *LatencyHist) {
	uppers := make([]float64, len(metricsBucketsSecs))
	for i, s := range metricsBucketsSecs {
		uppers[i] = s * 1e6 // the internal histogram is in microseconds
	}
	cum, total := h.CumulativeAtMost(uppers)
	WriteHelp(w, "histogram", name, help)
	for i, le := range metricsBucketsSecs {
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, le, cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
	fmt.Fprintf(w, "%s_sum %.6f\n", name, float64(h.SumMicros())/1e6)
	fmt.Fprintf(w, "%s_count %d\n", name, total)
}

// WriteMetrics writes, in a fixed order, the series every Stats feeds:
// the request, response and hardening counters, the uptime, and the
// query latency histogram. Both serving roles open their /metrics with
// it and append their own series.
func (st *Stats) WriteMetrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	WriteHelp(w, "counter", "c2_requests_total", "Successfully answered query requests by endpoint.")
	for ep := Endpoint(0); ep < numEndpoints; ep++ {
		fmt.Fprintf(w, "c2_requests_total{endpoint=%q} %d\n", ep.String(), st.byEndpoint[ep].Load())
	}
	WriteCounter(w, "c2_queries_total", "User-queries answered (a batch counts each of its users).", st.queries.Load())

	WriteHelp(w, "counter", "c2_responses_total", "Responses on the query and admin surfaces by status code.")
	for i, code := range knownStatusCodes {
		if n := st.byStatus[i].Load(); n > 0 {
			fmt.Fprintf(w, "c2_responses_total{code=\"%d\"} %d\n", code, n)
		}
	}
	if n := st.byStatus[len(knownStatusCodes)].Load(); n > 0 {
		fmt.Fprintf(w, "c2_responses_total{code=\"other\"} %d\n", n)
	}

	WriteCounter(w, "c2_bad_requests_total", "Malformed requests refused with 400 before any query ran.", st.badRequest.Load())
	WriteCounter(w, "c2_panics_total", "Handler panics recovered into 500 responses.", st.panics.Load())
	WriteCounter(w, "c2_shed_total", "Requests refused with 429 by admission control.", st.shed.Load())
	WriteCounter(w, "c2_deadline_expired_total", "Requests whose per-request deadline expired (503).", st.timeouts.Load())
	WriteCounter(w, "c2_body_too_large_total", "Request bodies over the configured cap (413).", st.tooLarge.Load())
	WriteHelp(w, "gauge", "c2_inflight_requests", "Requests currently inside the admission-control stage.")
	fmt.Fprintf(w, "c2_inflight_requests %d\n", st.inFlight.Load())
	WriteCounter(w, "c2_reload_failures_total", "Snapshot reloads refused (old epoch kept serving).", st.reloadFail.Load())
	WriteHelp(w, "gauge", "c2_uptime_seconds", "Seconds since the daemon started.")
	fmt.Fprintf(w, "c2_uptime_seconds %.3f\n", time.Since(st.start).Seconds())

	WriteHistogram(w, "c2_request_duration_seconds", "Query latency (successful requests).", &st.lat)
}

// serveMetrics is the shard daemon's /metrics: the shared series, then
// the cache, write-path and snapshot series only a Server feeds.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.st.Load()
	stats := s.stats
	stats.WriteMetrics(w)

	WriteCounter(w, "c2_cache_hits_total", "Result-cache hits.", stats.cacheHits.Load())
	WriteCounter(w, "c2_cache_misses_total", "Result-cache misses.", stats.cacheMiss.Load())
	WriteHelp(w, "gauge", "c2_cache_entries", "Result-cache resident entries.")
	fmt.Fprintf(w, "c2_cache_entries %d\n", s.cache.Len())

	WriteCounter(w, "c2_upserts_total", "Profiles absorbed through /v1/upsert.", stats.upserts.Load())
	WriteCounter(w, "c2_upsert_errors_total", "Upsert entries rejected (bad items or user id).", stats.upsertErrors.Load())
	WriteCounter(w, "c2_compactions_total", "Completed delta compaction swaps.", stats.compactions.Load())
	WriteCounter(w, "c2_compaction_failures_total", "Compaction cycles that failed (old state kept serving).", stats.compactFail.Load())
	if ds, ok := st.ix.DeltaStats(); ok {
		WriteHelp(w, "gauge", "c2_delta_depth", "Upserts absorbed but not yet folded into a snapshot.")
		fmt.Fprintf(w, "c2_delta_depth %d\n", ds.Depth)
		WriteHelp(w, "gauge", "c2_delta_users", "Delta users beyond the base snapshot.")
		fmt.Fprintf(w, "c2_delta_users %d\n", ds.Users)
		WriteHelp(w, "gauge", "c2_delta_age_seconds", "Age of the oldest un-compacted upsert.")
		fmt.Fprintf(w, "c2_delta_age_seconds %.3f\n", ds.AgeSec)
	}

	WriteHelp(w, "gauge", "c2_snapshot_epoch", "Epoch of the currently served snapshot.")
	fmt.Fprintf(w, "c2_snapshot_epoch %d\n", st.epoch)
	WriteCounter(w, "c2_snapshot_swaps_total", "Successful snapshot hot-swaps.", stats.swaps.Load())
	WriteHelp(w, "gauge", "c2_persist_load_ms", "Snapshot load time of the last successful reload or compaction swap (persist.load_ms); 0 before the first.")
	fmt.Fprintf(w, "c2_persist_load_ms %.3f\n", stats.loadMS())

	// Upsert latency histogram (one observation per absorbed profile),
	// emitted once the write path has been exercised.
	if stats.upserts.Load() > 0 {
		WriteHistogram(w, "c2_upsert_duration_seconds", "Upsert latency (absorbed profiles).", &stats.upsertLat)
	}
}
