package server

import (
	"fmt"
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

func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.st.Load()
	stats := s.stats
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	counter := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}

	counter("c2_requests_total", "Successfully answered query requests by endpoint.")
	for ep := Endpoint(0); ep < numEndpoints; ep++ {
		fmt.Fprintf(w, "c2_requests_total{endpoint=%q} %d\n", ep.String(), stats.byEndpoint[ep].Load())
	}
	counter("c2_queries_total", "User-queries answered (a batch counts each of its users).")
	fmt.Fprintf(w, "c2_queries_total %d\n", stats.queries.Load())

	counter("c2_responses_total", "Responses on the query and admin surfaces by status code.")
	for i, code := range knownStatusCodes {
		if n := stats.byStatus[i].Load(); n > 0 {
			fmt.Fprintf(w, "c2_responses_total{code=\"%d\"} %d\n", code, n)
		}
	}
	if n := stats.byStatus[len(knownStatusCodes)].Load(); n > 0 {
		fmt.Fprintf(w, "c2_responses_total{code=\"other\"} %d\n", n)
	}

	counter("c2_bad_requests_total", "Requests rejected before reaching an index (400).")
	fmt.Fprintf(w, "c2_bad_requests_total %d\n", stats.badRequest.Load())
	counter("c2_panics_total", "Handler panics recovered into 500 responses.")
	fmt.Fprintf(w, "c2_panics_total %d\n", stats.panics.Load())
	counter("c2_shed_total", "Requests refused with 429 by admission control.")
	fmt.Fprintf(w, "c2_shed_total %d\n", stats.shed.Load())
	counter("c2_deadline_expired_total", "Requests whose per-request deadline expired (503).")
	fmt.Fprintf(w, "c2_deadline_expired_total %d\n", stats.timeouts.Load())
	counter("c2_body_too_large_total", "Request bodies over the configured cap (413).")
	fmt.Fprintf(w, "c2_body_too_large_total %d\n", stats.tooLarge.Load())

	gauge("c2_inflight_requests", "Requests currently inside the admission-control stage.")
	fmt.Fprintf(w, "c2_inflight_requests %d\n", stats.inFlight.Load())

	counter("c2_cache_hits_total", "Result-cache hits.")
	fmt.Fprintf(w, "c2_cache_hits_total %d\n", stats.cacheHits.Load())
	counter("c2_cache_misses_total", "Result-cache misses.")
	fmt.Fprintf(w, "c2_cache_misses_total %d\n", stats.cacheMiss.Load())
	gauge("c2_cache_entries", "Result-cache resident entries.")
	fmt.Fprintf(w, "c2_cache_entries %d\n", s.cache.Len())

	counter("c2_upserts_total", "Profiles absorbed through /v1/upsert.")
	fmt.Fprintf(w, "c2_upserts_total %d\n", stats.upserts.Load())
	counter("c2_upsert_errors_total", "Upsert entries rejected (bad items or user id).")
	fmt.Fprintf(w, "c2_upsert_errors_total %d\n", stats.upsertErrors.Load())
	counter("c2_compactions_total", "Completed delta compaction swaps.")
	fmt.Fprintf(w, "c2_compactions_total %d\n", stats.compactions.Load())
	counter("c2_compaction_failures_total", "Compaction cycles that failed (old state kept serving).")
	fmt.Fprintf(w, "c2_compaction_failures_total %d\n", stats.compactFail.Load())
	if ds, ok := st.ix.DeltaStats(); ok {
		gauge("c2_delta_depth", "Upserts absorbed but not yet folded into a snapshot.")
		fmt.Fprintf(w, "c2_delta_depth %d\n", ds.Depth)
		gauge("c2_delta_users", "Delta users beyond the base snapshot.")
		fmt.Fprintf(w, "c2_delta_users %d\n", ds.Users)
		gauge("c2_delta_age_seconds", "Age of the oldest un-compacted upsert.")
		fmt.Fprintf(w, "c2_delta_age_seconds %.3f\n", ds.AgeSec)
	}

	gauge("c2_snapshot_epoch", "Epoch of the currently served snapshot.")
	fmt.Fprintf(w, "c2_snapshot_epoch %d\n", st.epoch)
	counter("c2_snapshot_swaps_total", "Successful snapshot hot-swaps.")
	fmt.Fprintf(w, "c2_snapshot_swaps_total %d\n", stats.swaps.Load())
	counter("c2_reload_failures_total", "Snapshot reloads refused (old epoch kept serving).")
	fmt.Fprintf(w, "c2_reload_failures_total %d\n", stats.reloadFail.Load())
	gauge("c2_persist_load_ms", "Snapshot load time of the last successful reload or compaction swap (persist.load_ms); 0 before the first.")
	fmt.Fprintf(w, "c2_persist_load_ms %.3f\n", stats.loadMS())

	gauge("c2_uptime_seconds", "Seconds since the daemon started.")
	fmt.Fprintf(w, "c2_uptime_seconds %.3f\n", time.Since(stats.start).Seconds())

	// Latency histogram over successfully answered queries.
	uppers := make([]float64, len(metricsBucketsSecs))
	for i, s := range metricsBucketsSecs {
		uppers[i] = s * 1e6 // the internal histogram is in microseconds
	}
	cum, total := stats.lat.CumulativeAtMost(uppers)
	fmt.Fprintf(w, "# HELP c2_request_duration_seconds Query latency (successful requests).\n")
	fmt.Fprintf(w, "# TYPE c2_request_duration_seconds histogram\n")
	for i, le := range metricsBucketsSecs {
		fmt.Fprintf(w, "c2_request_duration_seconds_bucket{le=\"%g\"} %d\n", le, cum[i])
	}
	fmt.Fprintf(w, "c2_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", total)
	fmt.Fprintf(w, "c2_request_duration_seconds_sum %.6f\n", float64(stats.lat.SumMicros())/1e6)
	fmt.Fprintf(w, "c2_request_duration_seconds_count %d\n", total)

	// Upsert latency histogram (one observation per absorbed profile),
	// emitted once the write path has been exercised.
	if stats.upserts.Load() > 0 {
		ucum, utotal := stats.upsertLat.CumulativeAtMost(uppers)
		fmt.Fprintf(w, "# HELP c2_upsert_duration_seconds Upsert latency (absorbed profiles).\n")
		fmt.Fprintf(w, "# TYPE c2_upsert_duration_seconds histogram\n")
		for i, le := range metricsBucketsSecs {
			fmt.Fprintf(w, "c2_upsert_duration_seconds_bucket{le=\"%g\"} %d\n", le, ucum[i])
		}
		fmt.Fprintf(w, "c2_upsert_duration_seconds_bucket{le=\"+Inf\"} %d\n", utotal)
		fmt.Fprintf(w, "c2_upsert_duration_seconds_sum %.6f\n", float64(stats.upsertLat.SumMicros())/1e6)
		fmt.Fprintf(w, "c2_upsert_duration_seconds_count %d\n", utotal)
	}
}
