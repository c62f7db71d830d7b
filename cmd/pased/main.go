// Command pased is the PaSE strategy-serving daemon: an HTTP JSON front end
// over the planner, so a cluster scheduler or training framework can request
// parallelization strategies on demand. Identical requests are served from
// the planner's result cache, and concurrent identical requests share one
// solve. /v1/solve, the internal route and every /v1/batch item take the same
// decode → lower → route → solve → encode pipeline.
//
// Every solve is tied to its request's context: a disconnected client or the
// -solve-timeout deadline aborts the model build or DP mid-flight within
// milliseconds — unless another identical request is still waiting on the
// same singleflighted solve, in which case it finishes for them. SIGTERM
// drains gracefully: /v1/readyz flips to 503 (so load balancers stop routing
// here), in-flight requests complete (up to -drain-timeout), then remaining
// connections are force-closed, which cancels their solves.
//
// The daemon serves under pressure instead of falling over. -max-inflight
// bounds concurrent underlying solves with a bounded priority queue behind
// them (-max-queue; the wire "priority" field orders waiters, FIFO within a
// priority); arrivals beyond the queue are shed immediately as 429 with a
// Retry-After hint — never silently blocked. -degrade-beam-width enables
// graceful degradation: an exact dp request that cannot run (DP table budget
// exceeded, or the queue deeper than -degrade-queue-depth at arrival) is
// served by the anytime bounded-width beam instead — a valid strategy marked
// "degraded": true with a sound optimality gap. Solver panics are isolated
// per request. Errors are structured: {"error": ..., "code": ...} with
// stable codes (shed → 429, oom → 503, timeout → 504, cancelled → 499).
//
// -snapshot-path enables warm restarts: the result cache and class store are
// checkpointed there periodically (-snapshot-interval) and on SIGTERM, and
// restored on boot — /v1/readyz reports 503 until the restore completes, and
// stale or corrupt snapshots are discarded with a logged warning. After a
// kill-and-restart, the first repeat request is a cache hit.
//
// Usage:
//
//	pased -addr :8555 -solve-timeout 2m
//	curl -s localhost:8555/v1/healthz
//	curl -s -X POST localhost:8555/v1/solve \
//	    -d '{"model":"alexnet","gpus":8,"machine":"1080ti"}'
//	curl -s -X POST localhost:8555/v1/solve \
//	    -d '{"model":"alexnet","gpus":8,"options":{"method":"expert:cnn"}}'
//	curl -s -X POST localhost:8555/v1/solve \
//	    -d '{"model":"gptdeep:12","gpus":32,"options":{"method":"beam","beam_width":32}}'
//	curl -s -X POST localhost:8555/v1/batch \
//	    -d '{"requests":[{"model":"alexnet","gpus":8},{"model":"rnnlm","gpus":16}]}'
//	curl -s -X POST localhost:8555/v1/solve \
//	    -d "{\"spec\": $(cat examples/specs/alexnet.json)}"
//	curl -s -X POST localhost:8555/v1/compare \
//	    -d '{"model":"alexnet","gpus":8}'
//	curl -s localhost:8555/v1/stats
//
// Endpoints:
//
//	POST /v1/solve   — solve one request; returns the strategy as the
//	                   internal/export interchange document plus timing,
//	                   cache, method, and fingerprint metadata. The request
//	                   names a registry "model" or carries an inline "spec"
//	                   (a declarative pase-graph/v1 document with its own
//	                   machine and device count); spec requests normalize to
//	                   the same canonical fingerprints as their programmatic
//	                   twins, so they share cache entries, and invalid specs
//	                   fail as bad_request with a "details" array of
//	                   path-addressed {path, msg} diagnostics.
//	POST /v1/batch   — solve many requests concurrently; each item gets its
//	                   own entry, an error carrying the same stable code as
//	                   /v1/solve (inline specs accepted per item).
//	POST /v1/compare — run every solve method (or an explicit "methods"
//	                   list) on one model and report each method's cost,
//	                   simulated step, and speedup over data parallelism —
//	                   the paper's Fig. 6 as an endpoint.
//	GET  /v1/healthz — liveness (the process is up; always 200).
//	GET  /v1/readyz  — readiness: a structured {"ready", "peers": [...]}
//	                   body; 503 while restoring a snapshot on boot and once
//	                   a SIGTERM drain has begun, 200 otherwise. The peers
//	                   array carries each fleet peer's health and breaker
//	                   state (empty on a single-node daemon).
//	GET  /v1/stats   — planner cache/dedup/cancellation/pressure counters
//	                   (shed, queued, degraded, panics, restored_results),
//	                   server counters, and the fleet block when clustered.
//	GET  /metrics    — the same counters in Prometheus text exposition
//	                   format, fleet breaker state per peer included.
//
//	POST /v1/internal/solve — the peer-to-peer route fleet-forwarded solves
//	                   arrive on; identical to /v1/solve but never
//	                   re-forwards (loop safety). Not for external clients.
//
// Fleet mode: -peers + -advertise make N daemons one logical planner.
// Rendezvous hashing over the canonical solve fingerprints assigns each
// solve an owner; non-owners forward (bounded retries, jittered backoff,
// per-peer circuit breakers, background health probing), and when the owner
// is unreachable the receiving daemon solves locally, marking the response
// fleet_fallback — peer failure costs cache efficiency, never availability.
//
// -debug-addr mounts net/http/pprof on a separate localhost listener so
// production hot-path regressions are diagnosable without exposing profiles
// on the API port; -prune-epsilon sets the daemon-wide default for
// epsilon-dominance config pruning (requests can override it per call).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only via -debug-addr
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pase"
	"pase/internal/fleet"
)

// solveRequest is the wire form of one solve request. Exactly one of Model
// (with Batch/GPUs/Machine) or Spec names the graph to solve.
type solveRequest struct {
	// Model is a benchmark model name (alexnet, inceptionv3, rnnlm,
	// transformer).
	Model string `json:"model"`
	// Spec is an inline pase-graph/v1 document — the declarative alternative
	// to naming a registry Model. The spec carries its own machine and device
	// count, so it is mutually exclusive with Model, Batch, GPUs, and
	// Machine. Invalid specs fail as bad_request with a "details" array of
	// path-addressed {path, msg} diagnostics.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Batch overrides the model's paper mini-batch size when > 0.
	Batch int64 `json:"batch,omitempty"`
	// GPUs is the device count p.
	GPUs int `json:"gpus"`
	// Machine is a machine-spec string (1080ti, 2080ti, uniform:...);
	// default 1080ti.
	Machine string `json:"machine,omitempty"`
	// Priority orders this request against others waiting for a solve slot
	// under admission control: higher priorities are granted first, FIFO
	// within a priority. It is not part of the request's cache identity.
	// Bounded to [-100, 100]; default 0.
	Priority int `json:"priority,omitempty"`
	// Options tunes the method, enumeration, and the solver; omitted means
	// the DP method under the model's default policy for p.
	Options *solveOptions `json:"options,omitempty"`
}

// solveOptions is the wire form of pase.Options. A zero MaxSplitDims with
// RequireFullDegree false selects the benchmark's default policy for p;
// set any policy field to take manual control.
type solveOptions struct {
	// Method selects the solve method: dp (default), beam (anytime
	// bounded-width DP), mcmc, dataparallel, or expert:<family> with family
	// cnn, rnn, or transformer.
	Method string `json:"method,omitempty"`
	// BeamWidth bounds the beam method's frontier (top-W states per DP
	// table). Omitted or 0 uses the daemon's -default-beam-width; if no
	// width resolves the request runs the exact DP.
	BeamWidth int `json:"beam_width,omitempty"`
	// GapTarget steers beam refinement: > 0 doubles the width until the
	// optimality gap reaches the target (or the solve deadline); 0 refines
	// under the deadline; negative runs a single pass at BeamWidth.
	GapTarget float64 `json:"gap_target,omitempty"`
	// MCMCSeed seeds the mcmc method's chain (deterministic per seed).
	MCMCSeed          int64 `json:"mcmc_seed,omitempty"`
	MaxSplitDims      int   `json:"max_split_dims,omitempty"`
	RequireFullDegree bool  `json:"require_full_degree,omitempty"`
	MaxTableEntries   int64 `json:"max_table_entries,omitempty"`
	BreadthFirst      bool  `json:"breadth_first,omitempty"`
	Workers           int   `json:"workers,omitempty"`
	// PruneEpsilon enables epsilon-dominance config pruning for this
	// request: the returned strategy's cost is within (1+ε)² of optimal.
	// Omitted uses the daemon's -prune-epsilon default; an explicit 0
	// forces the exact solve even when the daemon default is aggressive.
	PruneEpsilon *float64 `json:"prune_epsilon,omitempty"`
}

// solveResponse is the wire form of one solved strategy.
type solveResponse struct {
	// Strategy is the interchange document (internal/export schema) handed
	// to execution frameworks, fingerprint and method included.
	Strategy    *pase.StrategyDocument `json:"strategy"`
	Method      string                 `json:"method"`
	CostSeconds float64                `json:"cost_seconds"`
	SearchMs    float64                `json:"search_ms"`
	ModelMs     float64                `json:"model_ms"`
	Cached      bool                   `json:"cached"`
	Fingerprint string                 `json:"fingerprint"`
	States      int64                  `json:"states"`
	MaxDepSize  int                    `json:"max_dep_size"`
	// PrunedConfigs / KEffective report the config-space reduction behind
	// this solve: configurations dominance pruning removed, and the largest
	// per-vertex configuration count the DP iterated over.
	PrunedConfigs int `json:"pruned_configs"`
	KEffective    int `json:"k_effective"`
	// VertexClasses / EdgeClasses / TableBytes / SharedTableBytes report
	// the structural sharing of the model behind this solve: distinct
	// vertex and edge cost tables built, the resident table footprint, and
	// the bytes sharing saved versus a per-occurrence build.
	VertexClasses    int   `json:"vertex_classes"`
	EdgeClasses      int   `json:"edge_classes"`
	TableBytes       int64 `json:"table_bytes"`
	SharedTableBytes int64 `json:"shared_table_bytes"`
	// ClassStoreHits / ClassStoreBytes report what this solve's model build
	// resolved from the daemon's cross-request class store instead of
	// rebuilding.
	ClassStoreHits  int64 `json:"class_store_hits"`
	ClassStoreBytes int64 `json:"class_store_bytes"`
	// Gap / Exact / BeamWidth report the quality contract: the true
	// optimum lies in [cost_seconds/(1+gap), cost_seconds] (the beam's
	// frontier gap compounded with any prune_epsilon slack); exact marks
	// proven optimality; beam_width is the frontier width a beam solve
	// resolved to (0 for other methods).
	Gap       float64 `json:"gap"`
	Exact     bool    `json:"exact"`
	BeamWidth int     `json:"beam_width"`
	// Degraded / DegradeReason report that the daemon served this dp request
	// through its graceful-degradation ladder: a valid bounded-width beam
	// strategy (gap/beam_width above carry its quality contract) because the
	// exact solve could not run — "oom" or "pressure".
	Degraded      bool   `json:"degraded"`
	DegradeReason string `json:"degrade_reason,omitempty"`
	// FleetForwarded reports this response was served by the fleet member
	// that owns the request's fingerprint (FleetOwner) rather than the
	// daemon addressed; FleetFallback reports the addressed daemon solved it
	// locally because the owner was unreachable. Both absent on a
	// single-node daemon and for requests the daemon owns itself.
	FleetForwarded bool   `json:"fleet_forwarded,omitempty"`
	FleetFallback  bool   `json:"fleet_fallback,omitempty"`
	FleetOwner     string `json:"fleet_owner,omitempty"`
}

// errorBody is the structured error {"error", "code", "details"}. Codes are
// stable API: clients branch on them, not on message text. Details carries
// the path-addressed diagnostics of an invalid inline spec.
type errorBody struct {
	Error   string                `json:"error"`
	Code    string                `json:"code"`
	Details []pase.SpecDiagnostic `json:"details,omitempty"`
}

// outcome is what one wire request produced: a response (status 200), or a
// status with its error body.
type outcome struct {
	resp   *solveResponse
	status int
	fail   *errorBody
}

// batchEntry is one item's outcome: the response's fields on success, the
// error body's on failure.
type batchEntry struct {
	*solveResponse
	*errorBody
}

type batchResponse struct {
	Results []batchEntry `json:"results"`
}

// compareRequest is the wire form of POST /v1/compare: one model, every
// method (or an explicit list).
type compareRequest struct {
	solveRequest
	// Methods overrides the default method list (dataparallel, the model's
	// expert strategy, mcmc, dp).
	Methods []string `json:"methods,omitempty"`
}

// compareEntry is one method's row of a compare response.
type compareEntry struct {
	Method      string  `json:"method"`
	CostSeconds float64 `json:"cost_seconds,omitempty"`
	StepMs      float64 `json:"step_ms,omitempty"`
	Throughput  float64 `json:"throughput,omitempty"`
	// SpeedupVsDP is the simulated step-time speedup over data parallelism —
	// the paper's Fig. 6 metric.
	SpeedupVsDP float64 `json:"speedup_vs_dp,omitempty"`
	SearchMs    float64 `json:"search_ms,omitempty"`
	Cached      bool    `json:"cached,omitempty"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	// Gap / Exact / BeamWidth carry the beam row's quality-vs-latency
	// contract (see solveResponse).
	Gap       float64 `json:"gap,omitempty"`
	Exact     bool    `json:"exact,omitempty"`
	BeamWidth int     `json:"beam_width,omitempty"`
	Error     string  `json:"error,omitempty"`
}

type compareResponse struct {
	Model    string         `json:"model"`
	Devices  int            `json:"devices"`
	Baseline string         `json:"baseline"`
	Entries  []compareEntry `json:"entries"`
}

// server routes HTTP requests to a planner.
type server struct {
	pl           *pase.Planner
	maxGPUs      int
	solveTimeout time.Duration
	start        time.Time
	served       atomic.Int64
	// fleet, when non-nil, makes this daemon a fleet member: solve requests
	// whose fingerprint another member owns are forwarded there (or solved
	// locally as a marked fallback when the owner is unreachable). Set
	// before the listener starts; nil on a single-node daemon.
	fleet *fleet.Client
	// specSolves counts successfully served inline-spec solves (cache hits
	// included); specErrors counts inline-spec requests rejected by the
	// ingestion pipeline or the wire bounds.
	specSolves atomic.Int64
	specErrors atomic.Int64
	// notReady marks the boot window (snapshot restore in progress) and
	// draining marks a begun SIGTERM drain; either makes /v1/readyz report
	// 503 so load balancers route elsewhere while /v1/healthz stays 200.
	notReady atomic.Bool
	draining atomic.Bool
}

func newServer(pl *pase.Planner, maxGPUs int, solveTimeout time.Duration) *server {
	return &server{pl: pl, maxGPUs: maxGPUs, solveTimeout: solveTimeout, start: time.Now()}
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/compare", s.handleCompare)
	// The internal route is how forwarded solves arrive from peers; its
	// handler never re-forwards (loop safety), whatever the local ring says.
	mux.HandleFunc("POST "+fleet.InternalSolvePath, s.handleInternalSolve)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// solveCtx ties a solve to the client connection (r.Context() is cancelled
// when the client disconnects) and the daemon's per-solve deadline.
func (s *server) solveCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.solveTimeout > 0 {
		return context.WithTimeout(r.Context(), s.solveTimeout)
	}
	return context.WithCancel(r.Context())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("pased: encode response: %v", err)
	}
}

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away mid-solve, so no one reads the response — the status only feeds logs
// and metrics.
const statusClientClosedRequest = 499

// solveStatus maps a planner error onto an HTTP status and a stable error
// code for the JSON body: a shed request is 429 (retry later, or elsewhere),
// OOM is 503 (this daemon cannot serve the exact solve — with degradation
// enabled most OOMs never surface here), a solve-deadline expiry is a
// gateway timeout, a client-cancelled solve is 499, and an isolated solver
// panic is a plain 500.
func solveStatus(err error) (status int, code string) {
	switch {
	case errors.Is(err, pase.ErrShed):
		return http.StatusTooManyRequests, "shed"
	case errors.Is(err, pase.ErrOOM):
		return http.StatusServiceUnavailable, "oom"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest, "cancelled"
	case errors.Is(err, pase.ErrSolvePanic):
		return http.StatusInternalServerError, "panic"
	}
	return http.StatusInternalServerError, "internal"
}

// failure builds an error outcome; an invalid inline spec additionally
// carries its diagnostics as the "details" array, so clients can surface
// every problem without parsing the message text.
func failure(status int, code string, err error) outcome {
	fail := &errorBody{Error: err.Error(), Code: code}
	var se *pase.SpecError
	if errors.As(err, &se) {
		fail.Details = se.Diags
	}
	return outcome{status: status, fail: fail}
}

func badRequest(err error) outcome {
	return failure(http.StatusBadRequest, "bad_request", err)
}

func solveFailure(err error) outcome {
	status, code := solveStatus(err)
	return failure(status, code, err)
}

// writeOutcome writes a response or an error body. A shed response carries
// a Retry-After hint — the queue bound means the backlog clears within a few
// solves.
func writeOutcome(w http.ResponseWriter, o outcome) {
	if o.fail == nil {
		writeJSON(w, http.StatusOK, o.resp)
		return
	}
	if o.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, o.status, o.fail)
}

// readBody reads a POST body whole, bounded by maxBodyBytes: the solve
// pipeline keeps the raw bytes because a fleet forward relays them to the
// owner, and json.Unmarshal, unlike a stream decoder, rejects trailing data.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("read request: %w", err)
	}
	return body, nil
}

// decode unmarshals one request body into v.
func decode(body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

// peerReadiness is one fleet peer's row in the readyz body: the health
// prober's verdict and the circuit breaker's state — the same view the fleet
// router uses, so orchestrators and the prober never disagree.
type peerReadiness struct {
	ID      string `json:"id"`
	Healthy bool   `json:"healthy"`
	Breaker string `json:"breaker"`
}

func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{"ready": true}
	status := http.StatusOK
	switch {
	case s.draining.Load():
		body["ready"], body["reason"] = false, "draining"
		status = http.StatusServiceUnavailable
	case s.notReady.Load():
		body["ready"], body["reason"] = false, "starting"
		status = http.StatusServiceUnavailable
	}
	peers := []peerReadiness{}
	if s.fleet != nil {
		for _, p := range s.fleet.Stats().Peers {
			peers = append(peers, peerReadiness{ID: p.ID, Healthy: p.Healthy, Breaker: p.Breaker})
		}
	}
	body["peers"] = peers
	writeJSON(w, status, body)
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	models, results := s.pl.CacheSizes()
	body := map[string]any{
		"planner":        s.pl.Stats(),
		"cached_models":  models,
		"cached_results": results,
		"requests":       s.served.Load(),
		"spec_solves":    s.specSolves.Load(),
		"spec_errors":    s.specErrors.Load(),
		"uptime_ms":      time.Since(s.start).Milliseconds(),
		"ready":          !s.notReady.Load() && !s.draining.Load(),
		"draining":       s.draining.Load(),
	}
	if s.fleet != nil {
		body["fleet"] = s.fleet.Stats()
	}
	writeJSON(w, http.StatusOK, body)
}

// toRequest validates and lowers a wire request onto the planner's Request,
// returning the benchmark for the export document and the compare defaults,
// its Batch resolved to the mini-batch size the graph was built at.
func (s *server) toRequest(sr solveRequest) (pase.SolveRequest, pase.Benchmark, error) {
	bm, err := pase.BenchmarkByName(sr.Model)
	if err != nil {
		return pase.SolveRequest{}, pase.Benchmark{}, err
	}
	if sr.GPUs < 1 || sr.GPUs > s.maxGPUs {
		return pase.SolveRequest{}, pase.Benchmark{}, fmt.Errorf("gpus %d out of range [1, %d]", sr.GPUs, s.maxGPUs)
	}
	if sr.Priority < -maxPriority || sr.Priority > maxPriority {
		return pase.SolveRequest{}, pase.Benchmark{}, fmt.Errorf("priority %d out of range [%d, %d]", sr.Priority, -maxPriority, maxPriority)
	}
	if sr.Batch > 0 {
		bm.Batch = sr.Batch
	}
	mach := sr.Machine
	if mach == "" {
		mach = "1080ti"
	}
	spec, err := pase.ParseMachine(mach, sr.GPUs)
	if err != nil {
		return pase.SolveRequest{}, pase.Benchmark{}, err
	}
	opts := pase.Options{Policy: bm.Policy(sr.GPUs), Priority: sr.Priority}
	if err := applyOptions(&opts, sr.Options); err != nil {
		return pase.SolveRequest{}, pase.Benchmark{}, err
	}
	return pase.SolveRequest{G: bm.Build(bm.Batch), Spec: spec, Opts: opts}, bm, nil
}

// applyOptions validates the wire options and lowers them onto opts — shared
// by the registry (model) and declarative (spec) request paths. Bound the
// wire-supplied knobs: this is a shared daemon, and unchecked values reach
// the solver's goroutine spawns and DP memory budget directly. (Model-build
// memory has no budget knob — it is bounded by -max-gpus, which caps the
// configuration counts the eager TL/TX tables are sized by.)
func applyOptions(opts *pase.Options, o *solveOptions) error {
	if o == nil {
		return nil
	}
	if err := pase.ValidateMethod(o.Method); err != nil {
		return err
	}
	if o.Workers < 0 || o.Workers > maxWorkers {
		return fmt.Errorf("workers %d out of range [0, %d]", o.Workers, maxWorkers)
	}
	if o.MaxTableEntries < 0 || o.MaxTableEntries > maxTableEntriesCap {
		return fmt.Errorf("max_table_entries %d out of range [0, %d]", o.MaxTableEntries, int64(maxTableEntriesCap))
	}
	if o.MaxSplitDims < 0 {
		return fmt.Errorf("max_split_dims %d must be >= 0", o.MaxSplitDims)
	}
	if o.PruneEpsilon != nil {
		if *o.PruneEpsilon < 0 || *o.PruneEpsilon > maxPruneEpsilon {
			return fmt.Errorf("prune_epsilon %g out of range [0, %g]", *o.PruneEpsilon, maxPruneEpsilon)
		}
		// An explicit wire zero means "exact, no matter the daemon
		// default" — the planner's negative-epsilon opt-out.
		opts.PruneEpsilon = *o.PruneEpsilon
		if opts.PruneEpsilon == 0 {
			opts.PruneEpsilon = -1
		}
	}
	if o.MaxSplitDims > 0 || o.RequireFullDegree {
		opts.Policy = pase.EnumPolicy{MaxSplitDims: o.MaxSplitDims, RequireFullDegree: o.RequireFullDegree}
	}
	if o.BeamWidth < 0 || o.BeamWidth > maxBeamWidth {
		return fmt.Errorf("beam_width %d out of range [0, %d]", o.BeamWidth, maxBeamWidth)
	}
	if o.GapTarget > maxGapTarget {
		return fmt.Errorf("gap_target %g out of range (max %g)", o.GapTarget, float64(maxGapTarget))
	}
	opts.Method = o.Method
	opts.MCMC.Seed = o.MCMCSeed
	opts.MaxTableEntries = o.MaxTableEntries
	opts.BreadthFirst = o.BreadthFirst
	opts.Workers = o.Workers
	opts.BeamWidth = o.BeamWidth
	opts.GapTarget = o.GapTarget
	return nil
}

// toSpecRequest lowers an inline-spec wire request through the declarative
// ingestion pipeline onto the planner's Request, returning the display name
// for the export document. The spec document carries its own model, machine,
// and device count, so the registry-selection fields must be absent.
func (s *server) toSpecRequest(sr solveRequest) (pase.SolveRequest, string, error) {
	if sr.Model != "" || sr.Batch != 0 || sr.GPUs != 0 || sr.Machine != "" {
		return pase.SolveRequest{}, "", errors.New(`"spec" is mutually exclusive with "model", "batch", "gpus", and "machine" (the spec carries its own graph, machine, and device count)`)
	}
	if sr.Priority < -maxPriority || sr.Priority > maxPriority {
		return pase.SolveRequest{}, "", fmt.Errorf("priority %d out of range [%d, %d]", sr.Priority, -maxPriority, maxPriority)
	}
	ir, err := pase.LoadSpec(sr.Spec)
	if err != nil {
		return pase.SolveRequest{}, "", err
	}
	if ir.Machine.Devices > s.maxGPUs {
		return pase.SolveRequest{}, "", fmt.Errorf("spec machine has %d gpus, max %d", ir.Machine.Devices, s.maxGPUs)
	}
	opts := pase.Options{Policy: ir.Policy, Priority: sr.Priority}
	if err := applyOptions(&opts, sr.Options); err != nil {
		return pase.SolveRequest{}, "", err
	}
	name := ir.Name
	if name == "" {
		name = "spec"
	}
	return ir.Request(opts), name, nil
}

// toResponse lifts a planner result into the wire form.
func toResponse(req pase.SolveRequest, model string, res *pase.Result) (*solveResponse, error) {
	doc, err := pase.ExportStrategy(model, req.G, res.Strategy, req.Spec.Devices, res.Cost)
	if err != nil {
		return nil, err
	}
	doc.Fingerprint = res.Fingerprint
	doc.Method = res.Method
	doc.PrunedConfigs = res.PrunedConfigs
	doc.KEffective = res.KEffective
	doc.VertexClasses = res.VertexClasses
	doc.EdgeClasses = res.EdgeClasses
	doc.TableBytes = res.TableBytes
	doc.SharedTableBytes = res.SharedTableBytes
	doc.ClassStoreHits = res.ClassStoreHits
	doc.ClassStoreBytes = res.ClassStoreBytes
	doc.Gap = res.Gap
	doc.Exact = res.Exact
	doc.BeamWidth = res.BeamWidth
	doc.Degraded = res.Degraded
	doc.DegradeReason = res.DegradeReason
	return &solveResponse{
		Strategy:         doc,
		Method:           res.Method,
		CostSeconds:      res.Cost,
		SearchMs:         float64(res.SearchTime.Nanoseconds()) / 1e6,
		ModelMs:          float64(res.ModelTime.Nanoseconds()) / 1e6,
		Cached:           res.Cached,
		Fingerprint:      res.Fingerprint,
		States:           res.States,
		MaxDepSize:       res.MaxDepSize,
		PrunedConfigs:    res.PrunedConfigs,
		KEffective:       res.KEffective,
		VertexClasses:    res.VertexClasses,
		EdgeClasses:      res.EdgeClasses,
		TableBytes:       res.TableBytes,
		SharedTableBytes: res.SharedTableBytes,
		ClassStoreHits:   res.ClassStoreHits,
		ClassStoreBytes:  res.ClassStoreBytes,
		Gap:              res.Gap,
		Exact:            res.Exact,
		BeamWidth:        res.BeamWidth,
		Degraded:         res.Degraded,
		DegradeReason:    res.DegradeReason,
		FleetFallback:    res.FleetFallback,
	}, nil
}

const (
	maxBodyBytes = 1 << 20
	// maxWorkers bounds a request's DP-fill goroutines (results are
	// worker-count invariant, so this only limits resource use).
	maxWorkers = 256
	// maxTableEntriesCap bounds a request's live DP-table budget to ~1.5 GB
	// of entries; the ErrOOM → 422 path exists precisely because some
	// (model, ordering) pairs need unbounded memory.
	maxTableEntriesCap = int64(1) << 27
	// maxPruneEpsilon caps the wire-supplied epsilon: beyond 100% relative
	// slack the "strategy" degenerates and cache entries multiply for no
	// plausible use.
	maxPruneEpsilon = 1.0
	// maxCompareMethods bounds an explicit compare method list; the full
	// default comparison is 5 entries (dataparallel, expert, mcmc, beam, dp).
	maxCompareMethods = 8
	// maxBeamWidth caps the wire-supplied beam frontier width: beyond 64Ki
	// retained states per table the beam approaches the exact DP's memory
	// profile and the width should be left unbounded instead.
	maxBeamWidth = 1 << 16
	// maxGapTarget caps the wire-supplied beam gap target (negatives mean
	// "single pass" and pass through).
	maxGapTarget = 1e6
	// maxPriority bounds the wire-supplied admission priority in both
	// directions; the range is generous — priorities only order waiters.
	maxPriority = 100
)

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, false)
}

// handleInternalSolve serves fleet-forwarded solves. It is identical to
// /v1/solve except that it NEVER re-forwards: a forwarded request is solved
// here even if this daemon's ring disagrees about ownership, which is what
// makes forwarding loop-free under inconsistent member views.
func (s *server) handleInternalSolve(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, true)
}

func (s *server) serve(w http.ResponseWriter, r *http.Request, internal bool) {
	s.served.Add(1)
	body, err := readBody(w, r)
	if err != nil {
		writeOutcome(w, badRequest(err))
		return
	}
	ctx, cancel := s.solveCtx(r)
	defer cancel()
	writeOutcome(w, s.solve(ctx, body, internal))
}

// solve is the pipeline every solve route shares, run over the raw bytes of
// one wire request: decode, lower (registry model or inline spec), route
// through the fleet unless internal, solve locally when no owner answered,
// and lift the result into the wire form.
func (s *server) solve(ctx context.Context, body []byte, internal bool) outcome {
	var sr solveRequest
	if err := decode(body, &sr); err != nil {
		return badRequest(err)
	}
	isSpec := len(sr.Spec) > 0
	var (
		req  pase.SolveRequest
		name string
		err  error
	)
	if isSpec {
		req, name, err = s.toSpecRequest(sr)
	} else {
		var bm pase.Benchmark
		req, bm, err = s.toRequest(sr)
		name = bm.Name
	}
	if err != nil {
		if isSpec {
			s.specErrors.Add(1)
		}
		return badRequest(err)
	}
	var (
		o          outcome // status 0 until someone answers
		fleetOwner string
	)
	if s.fleet != nil && !internal {
		// Route only what this daemon cannot already answer: a local cache
		// hit or in-flight identical solve is as good as the owner's copy
		// (results are deterministic), and skipping the hop keeps a degraded
		// fleet's hit latency flat.
		if fp, ferr := s.pl.SolveFingerprint(req); ferr == nil && !s.pl.HasLocal(fp) {
			out := s.fleet.Route(ctx, fp, body)
			if out.Decision == fleet.Forwarded {
				// The owner's 200 is relayed marked with the routing, and its
				// definitive rejection as its error body. An undecodable answer
				// (version skew, truncation) is solved locally rather than
				// failed.
				var (
					resp solveResponse
					fail errorBody
				)
				switch {
				case out.Status == http.StatusOK && json.Unmarshal(out.Body, &resp) == nil:
					resp.FleetForwarded, resp.FleetOwner = true, out.Owner
					o = outcome{resp: &resp, status: http.StatusOK}
				case out.Status != http.StatusOK && json.Unmarshal(out.Body, &fail) == nil && fail.Error != "":
					o = outcome{status: out.Status, fail: &fail}
				default:
					log.Printf("pased: fleet: undecodable %d from %s (solving locally)", out.Status, out.Owner)
				}
			}
			if o.status == 0 && out.Decision != fleet.Local {
				req.FleetFallback, fleetOwner = true, out.Owner
			}
		}
	}
	if o.status == 0 {
		if res, err := s.pl.Solve(ctx, req); err != nil {
			o = solveFailure(err)
		} else if resp, err := toResponse(req, name, res); err != nil {
			o = failure(http.StatusInternalServerError, "internal", err)
		} else {
			if resp.FleetFallback {
				resp.FleetOwner = fleetOwner
			}
			o = outcome{resp: resp, status: http.StatusOK}
		}
	}
	if isSpec && o.fail == nil {
		s.specSolves.Add(1)
	}
	return o
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.served.Add(1)
	var br struct {
		Requests []json.RawMessage `json:"requests"`
	}
	body, err := readBody(w, r)
	if err == nil {
		err = decode(body, &br)
	}
	if err == nil && len(br.Requests) == 0 {
		err = errors.New("batch has no requests")
	}
	if err != nil {
		writeOutcome(w, badRequest(err))
		return
	}
	ctx, cancel := s.solveCtx(r)
	defer cancel()
	// Each item runs the solve pipeline on its own bytes, so a forwarded item
	// relays exactly what the client sent and a malformed item fails alone.
	entries := make([]batchEntry, len(br.Requests))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(entries)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(entries); i = int(next.Add(1)) - 1 {
				o := s.solve(ctx, br.Requests[i], false)
				entries[i] = batchEntry{o.resp, o.fail}
			}
		}()
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, batchResponse{Results: entries})
}

func (s *server) handleCompare(w http.ResponseWriter, r *http.Request) {
	s.served.Add(1)
	var cr compareRequest
	body, err := readBody(w, r)
	if err == nil {
		err = decode(body, &cr)
	}
	if err != nil {
		writeOutcome(w, badRequest(err))
		return
	}
	if len(cr.Spec) > 0 {
		writeOutcome(w, badRequest(errors.New(`compare does not accept inline "spec" requests; name a registry "model"`)))
		return
	}
	if len(cr.Methods) > maxCompareMethods {
		writeOutcome(w, badRequest(fmt.Errorf("methods list has %d entries, max %d", len(cr.Methods), maxCompareMethods)))
		return
	}
	for _, m := range cr.Methods {
		if m == "" {
			writeOutcome(w, badRequest(errors.New(`empty method in "methods" (use "dp")`)))
			return
		}
		if err := pase.ValidateMethod(m); err != nil {
			writeOutcome(w, badRequest(err))
			return
		}
	}
	req, bm, err := s.toRequest(cr.solveRequest)
	if err != nil {
		writeOutcome(w, badRequest(err))
		return
	}
	ctx, cancel := s.solveCtx(r)
	defer cancel()
	cmp, err := s.pl.Compare(ctx, pase.CompareRequest{
		G:       req.G,
		Spec:    req.Spec,
		Opts:    req.Opts,
		Batch:   bm.Batch,
		Family:  bm.Family,
		Methods: cr.Methods,
	})
	if err != nil {
		writeOutcome(w, solveFailure(err))
		return
	}
	resp := compareResponse{Model: bm.Name, Devices: req.Spec.Devices, Baseline: cmp.Baseline}
	for _, e := range cmp.Entries {
		we := compareEntry{Method: e.Method}
		if e.Err != nil {
			we.Error = e.Err.Error()
		} else {
			we.CostSeconds = e.Result.Cost
			we.StepMs = e.Step.StepSeconds * 1e3
			we.Throughput = e.Step.Throughput
			we.SpeedupVsDP = e.Speedup
			we.SearchMs = float64(e.Result.SearchTime.Nanoseconds()) / 1e6
			we.Cached = e.Result.Cached
			we.Fingerprint = e.Result.Fingerprint
			we.Gap = e.Result.Gap
			we.Exact = e.Result.Exact
			we.BeamWidth = e.Result.BeamWidth
		}
		resp.Entries = append(resp.Entries, we)
	}
	writeJSON(w, http.StatusOK, resp)
}

// requireLoopback rejects debug-listener addresses that would bind beyond
// localhost (":6060", "0.0.0.0:6060", a public IP, a hostname other than
// localhost).
func requireLoopback(addr string) error {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("invalid address %q: %w", addr, err)
	}
	if host == "localhost" {
		return nil
	}
	ip := net.ParseIP(host)
	if ip == nil || !ip.IsLoopback() {
		return fmt.Errorf("%q is not a loopback address; the pprof listener serves heap and goroutine dumps and must stay on localhost", addr)
	}
	return nil
}

func main() {
	var (
		addr         = flag.String("addr", ":8555", "listen address")
		modelCache   = flag.Int("model-cache", 16, "cost-model LRU capacity")
		resultCache  = flag.Int("result-cache", 256, "solved-result LRU capacity")
		maxGPUs      = flag.Int("max-gpus", 128, "largest accepted device count (cost-model tables grow with p; raise deliberately)")
		pruneEps     = flag.Float64("prune-epsilon", 0, "default epsilon-dominance config pruning for requests that leave it unset (0 = exact dedup only)")
		storeBytes   = flag.Int64("class-store-bytes", 0, "cross-request class store budget in bytes (0 = default 256 MiB)")
		noStore      = flag.Bool("no-class-store", false, "disable cross-request class-table sharing (every model build constructs its own tables)")
		beamWidth    = flag.Int("default-beam-width", 32, "beam frontier width for method=beam requests that leave beam_width unset (0 = unbounded: such requests run the exact DP)")
		solveTimeout = flag.Duration("solve-timeout", 2*time.Minute, "per-request solve deadline; the solve is aborted mid-DP when it expires (0 = no deadline)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "how long SIGTERM waits for in-flight requests before force-closing connections (which cancels their solves)")
		debugAddr    = flag.String("debug-addr", "", "optional localhost listen address serving net/http/pprof (e.g. 127.0.0.1:6060); off when empty")
		maxInflight  = flag.Int("max-inflight", 0, "max concurrent underlying solves; requests beyond it queue by priority, and a full queue sheds as 429 (0 = unbounded: admission control off)")
		maxQueue     = flag.Int("max-queue", 0, "max requests waiting for a solve slot before load shedding (0 = default 64; effective only with -max-inflight)")
		degradeWidth = flag.Int("degrade-beam-width", 16, "beam frontier width for degraded dp solves — served when the exact DP exceeds its table budget or the queue is deep (0 = degradation off: OOM surfaces as 503)")
		degradeDepth = flag.Int("degrade-queue-depth", 0, "queue depth at arrival beyond which dp requests degrade to the bounded beam (0 = max-queue/2, negative = never degrade on queue pressure)")
		faultPlan    = flag.String("fault-plan", "", "DEBUG ONLY: fault-injection spec site:kind[:arg],... (sites solve, dp, model, peer; kinds oom, panic, latency, error, drop) for exercising shed/degrade/panic/fleet paths")
		snapPath     = flag.String("snapshot-path", "", "warm-restart snapshot file: restored on boot, checkpointed every -snapshot-interval and on SIGTERM (off when empty)")
		snapEvery    = flag.Duration("snapshot-interval", 5*time.Minute, "periodic checkpoint interval when -snapshot-path is set (0 = checkpoint only on SIGTERM)")

		peers          = flag.String("peers", "", "comma-separated base URLs of the other fleet members (e.g. http://10.0.0.2:8555,http://10.0.0.3:8555); empty = single-node daemon")
		advertise      = flag.String("advertise", "", "this daemon's own base URL as peers reach it (required with -peers; must appear in every peer's -peers list)")
		fleetAttempts  = flag.Int("fleet-attempts", 3, "peer-forward attempts before falling back to a local solve")
		fleetBackoff   = flag.Duration("fleet-backoff", 25*time.Millisecond, "base backoff between peer-forward retries (doubles per retry, jittered)")
		fleetTimeout   = flag.Duration("fleet-attempt-timeout", 2*time.Second, "per-attempt peer call timeout")
		fleetThreshold = flag.Int("fleet-breaker-threshold", 3, "consecutive peer call failures that open that peer's circuit breaker")
		fleetCooldown  = flag.Duration("fleet-breaker-cooldown", 2*time.Second, "how long an open breaker refuses a peer before admitting a half-open trial call")
		fleetProbe     = flag.Duration("fleet-probe-interval", time.Second, "background peer health-probe period (GET /v1/readyz on every peer)")
	)
	flag.Parse()
	if *pruneEps < 0 || *pruneEps > maxPruneEpsilon {
		log.Fatalf("pased: -prune-epsilon %g out of range [0, %g]", *pruneEps, maxPruneEpsilon)
	}
	if *beamWidth < 0 || *beamWidth > maxBeamWidth {
		log.Fatalf("pased: -default-beam-width %d out of range [0, %d]", *beamWidth, maxBeamWidth)
	}
	if *degradeWidth < 0 || *degradeWidth > maxBeamWidth {
		log.Fatalf("pased: -degrade-beam-width %d out of range [0, %d]", *degradeWidth, maxBeamWidth)
	}
	if *maxInflight < 0 || *maxQueue < 0 {
		log.Fatalf("pased: -max-inflight %d / -max-queue %d must be >= 0", *maxInflight, *maxQueue)
	}
	faults, err := pase.ParseFaultPlan(*faultPlan)
	if err != nil {
		log.Fatalf("pased: -fault-plan: %v", err)
	}
	if faults != nil {
		log.Printf("pased: WARNING: fault injection armed (%s) — debug use only", faults)
	}

	if *debugAddr != "" {
		// net/http/pprof registers its handlers on http.DefaultServeMux;
		// serving that mux on a separate opt-in listener keeps profiling off
		// the public API port. Loopback only: heap dumps and goroutine
		// stacks must not be one mistyped flag away from the network.
		if err := requireLoopback(*debugAddr); err != nil {
			log.Fatalf("pased: -debug-addr: %v", err)
		}
		go func() {
			log.Printf("pased: pprof debug listener on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("pased: debug listener: %v", err)
			}
		}()
	}

	pl := pase.NewPlanner(pase.PlannerConfig{
		ModelCacheSize:      *modelCache,
		ResultCacheSize:     *resultCache,
		DefaultPruneEpsilon: *pruneEps,
		ClassStoreBytes:     *storeBytes,
		DisableClassStore:   *noStore,
		DefaultBeamWidth:    *beamWidth,
		MaxInFlight:         *maxInflight,
		MaxQueue:            *maxQueue,
		DegradeBeamWidth:    *degradeWidth,
		DegradeQueueDepth:   *degradeDepth,
		FaultPlan:           faults,
	})
	sv := newServer(pl, *maxGPUs, *solveTimeout)
	if *snapPath != "" {
		// Not ready until the snapshot restore below completes; the listener
		// starts first so /v1/readyz is answerable (503) during the restore.
		sv.notReady.Store(true)
	}
	if *peers != "" {
		if *advertise == "" {
			log.Fatalf("pased: -peers requires -advertise (this daemon's own base URL, its identity in the hash ring)")
		}
		fc, err := fleet.New(fleet.Config{
			Self:             *advertise,
			Peers:            strings.Split(*peers, ","),
			Attempts:         *fleetAttempts,
			BaseBackoff:      *fleetBackoff,
			AttemptTimeout:   *fleetTimeout,
			BreakerThreshold: *fleetThreshold,
			BreakerCooldown:  *fleetCooldown,
			ProbeInterval:    *fleetProbe,
			Faults:           faults,
			Logf:             log.Printf,
		})
		if err != nil {
			log.Fatalf("pased: %v", err)
		}
		fc.Start()
		defer fc.Close()
		sv.fleet = fc
		log.Printf("pased: fleet member %s, peers %s", fc.Self(), *peers)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           sv.mux(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("pased: serving on %s (solve timeout %s)", *addr, *solveTimeout)
		errc <- srv.ListenAndServe()
	}()

	// Warm restart: restore the previous run's result cache and class store.
	// A stale or corrupt snapshot is a logged warning and a cold start, never
	// a crash — robustness state must not take the daemon down.
	stopCheckpoints := make(chan struct{})
	if *snapPath != "" {
		if nres, nclasses, err := pl.LoadSnapshot(*snapPath); err != nil {
			log.Printf("pased: WARNING: discarding snapshot %s: %v (starting cold)", *snapPath, err)
		} else if nres > 0 || nclasses > 0 {
			log.Printf("pased: restored snapshot %s (%d results, %d class entries)", *snapPath, nres, nclasses)
		}
		sv.notReady.Store(false)
		if *snapEvery > 0 {
			go func() {
				t := time.NewTicker(*snapEvery)
				defer t.Stop()
				for {
					select {
					case <-t.C:
						if err := pl.SaveSnapshot(*snapPath); err != nil {
							log.Printf("pased: WARNING: checkpoint %s: %v", *snapPath, err)
						}
					case <-stopCheckpoints:
						return
					}
				}
			}()
		}
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("pased: %v", err)
	case sig := <-sigc:
		// Graceful drain: flip readiness (load balancers stop routing here),
		// stop accepting, let in-flight solves finish up to the drain budget,
		// then force-close what remains — closing a connection cancels its
		// request context, which aborts its solve.
		sv.draining.Store(true)
		close(stopCheckpoints)
		log.Printf("pased: %v, draining in-flight requests (up to %s)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("pased: drain expired (%v); force-closing connections", err)
			if err := srv.Close(); err != nil {
				log.Fatalf("pased: close: %v", err)
			}
		}
		if *snapPath != "" {
			// Final checkpoint after the drain: everything solved during the
			// drain window makes it into the warm-restart state.
			if err := pl.SaveSnapshot(*snapPath); err != nil {
				log.Printf("pased: WARNING: final checkpoint %s: %v", *snapPath, err)
			} else {
				log.Printf("pased: snapshot saved to %s", *snapPath)
			}
		}
		log.Printf("pased: drained, exiting")
	}
}
