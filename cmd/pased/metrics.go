package main

import (
	"fmt"
	"net/http"
	"strings"
	"time"
)

// handleMetrics serves the daemon's counters in Prometheus text exposition
// format (version 0.0.4), hand-rolled — the counters already exist on the
// planner and fleet layers, so an exporter dependency would buy nothing. The
// set mirrors /v1/stats; /metrics exists so the standard scrape-and-alert
// stack works against a fleet out of the box.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.pl.Stats()
	models, results := s.pl.CacheSizes()
	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	counter("pase_requests_total", "HTTP requests served (all routes that solve).", s.served.Load())
	counter("pase_spec_solves_total", "Inline-spec solves served.", s.specSolves.Load())
	counter("pase_spec_errors_total", "Inline-spec requests rejected by ingestion.", s.specErrors.Load())
	counter("pase_solves_total", "Underlying solves completed.", st.Solves)
	counter("pase_model_builds_total", "Cost models constructed.", st.ModelBuilds)
	counter("pase_result_cache_hits_total", "Result-cache hits.", st.ResultHits)
	counter("pase_result_cache_misses_total", "Result-cache misses.", st.ResultMisses)
	counter("pase_model_cache_hits_total", "Model-cache hits.", st.ModelHits)
	counter("pase_model_cache_misses_total", "Model-cache misses.", st.ModelMisses)
	counter("pase_dedup_waits_total", "Requests that joined an in-flight identical solve.", st.DedupWaits)
	counter("pase_cancelled_total", "Requests cancelled while waiting on a flight.", st.Cancelled)
	counter("pase_shed_total", "Requests shed by admission control.", st.Shed)
	counter("pase_queued_total", "Requests that waited for a solve slot.", st.Queued)
	counter("pase_degraded_total", "dp requests served via the degradation ladder.", st.Degraded)
	counter("pase_panics_total", "Solves or model builds that panicked (isolated).", st.Panics)
	counter("pase_restored_results_total", "Result-cache entries restored from a snapshot.", st.RestoredResults)
	counter("pase_beam_solves_total", "Underlying beam solves completed.", st.BeamSolves)
	counter("pase_beam_fallbacks_total", "Unbounded beam requests routed to the exact DP.", st.BeamFallbacks)
	gauge("pase_queue_depth", "Requests currently waiting for a solve slot.", float64(st.QueueDepth))
	gauge("pase_in_flight", "Underlying solves currently running.", float64(st.InFlight))
	gauge("pase_cached_models", "Cost models resident in the LRU.", float64(models))
	gauge("pase_cached_results", "Results resident in the LRU.", float64(results))
	ready := 0.0
	if !s.notReady.Load() && !s.draining.Load() {
		ready = 1
	}
	gauge("pase_ready", "1 when the daemon reports ready on /v1/readyz.", ready)
	gauge("pase_uptime_seconds", "Seconds since the daemon started.", time.Since(s.start).Seconds())

	// Fleet counters: the local-fallback count lives on the planner (the
	// fallback is a solve), everything else on the fleet client.
	counter("pase_fleet_fallbacks_total", "Solves run locally in place of an unreachable owner.", st.FleetFallbacks)
	if s.fleet != nil {
		fst := s.fleet.Stats()
		counter("pase_fleet_forwards_total", "Solves forwarded to their owning peer.", fst.Forwards)
		counter("pase_fleet_forward_failures_total", "Forwards that exhausted retries and fell back.", fst.ForwardFailures)
		counter("pase_fleet_reroutes_total", "Forwards redirected to a live stand-in for a sick owner.", fst.Reroutes)
		counter("pase_fleet_retries_total", "Extra peer call attempts beyond each forward's first.", fst.Retries)
		peerGauge := func(name, help string) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		}
		peerGauge("pase_fleet_peer_healthy", "1 when the health prober last saw the peer ready.")
		for _, p := range fst.Peers {
			h := 0
			if p.Healthy {
				h = 1
			}
			fmt.Fprintf(&b, "pase_fleet_peer_healthy{peer=%q} %d\n", p.ID, h)
		}
		peerGauge("pase_fleet_peer_breaker_state", "Peer circuit breaker: 0 closed, 1 half-open, 2 open.")
		for _, p := range fst.Peers {
			state := map[string]int{"closed": 0, "half-open": 1, "open": 2}[p.Breaker]
			fmt.Fprintf(&b, "pase_fleet_peer_breaker_state{peer=%q} %d\n", p.ID, state)
		}
		fmt.Fprintf(&b, "# HELP pase_fleet_peer_failures_total Peer call attempts that failed.\n# TYPE pase_fleet_peer_failures_total counter\n")
		for _, p := range fst.Peers {
			fmt.Fprintf(&b, "pase_fleet_peer_failures_total{peer=%q} %d\n", p.ID, p.Failures)
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}
