// Package planner is the serving layer above the solve pipeline: a Planner
// canonically fingerprints each request (internal/canon), caches built cost
// models and solved results in bounded LRU caches keyed by those
// fingerprints, deduplicates concurrent identical requests down to a single
// underlying solve (singleflight), and fans independent batch requests across
// a worker pool that shares the caches.
//
// Every request flows through one context-first entry point, Solve(ctx,
// Request), and every strategy-producing method the paper evaluates —
// the dependent-set DP ("dp"), the FlexFlow-substitute MCMC search ("mcmc"),
// pure data parallelism ("dataparallel"), and the expert baselines
// ("expert:<family>") — is a Method on that request: fingerprinted with the
// method, cached, singleflighted, and cancellable mid-solve.
//
// Cancellation semantics: a request's context covers only that caller's
// interest in the result. Concurrent identical requests share one underlying
// solve that runs on its own flight context; a follower whose ctx is
// cancelled detaches immediately while the solve keeps running for the
// remaining waiters, and only when the LAST waiter detaches is the flight's
// context cancelled, aborting the model build or DP promptly (coarse-grained
// polls in cost.NewModelWith, core.Solve, and mcmc.Search).
//
// The paper's thesis is that strategy search should be cheap enough to run
// routinely; the planner makes *repeated* and *concurrent* search cheap:
// a second identical request is a cache hit that performs no model build and
// no DP run, and N simultaneous identical requests cost one solve.
package planner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pase/internal/canon"
	"pase/internal/core"
	"pase/internal/cost"
	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/mcmc"
	"pase/internal/pressure"
	"pase/internal/seq"
	"pase/internal/strategies"
)

// ErrShed is returned when admission control rejects a request because the
// solve queue is full (Config.MaxInFlight/MaxQueue). The rejection is
// immediate — a saturated planner answers in microseconds, never by
// blocking — and the request is safe to retry once pressure subsides.
var ErrShed = pressure.ErrShed

// ErrSolvePanic wraps a panic recovered from an underlying solve or model
// build: the panicking request (and any ride-along waiters) fails with this
// error, the planner's Panics counter increments, and every other request
// keeps being served.
var ErrSolvePanic = errors.New("planner: solve panicked")

// Degradation reasons reported on Result.DegradeReason.
const (
	// DegradeReasonOOM: the exact DP exceeded its table budget (core.ErrOOM),
	// so the planner served the bounded-width beam solve instead. The outcome
	// is deterministic for the request, so it IS cached — repeat requests get
	// the degraded answer immediately instead of re-running into the OOM.
	DegradeReasonOOM = "oom"
	// DegradeReasonPressure: the admission queue was deep enough at arrival
	// that the planner traded exactness for latency. Pressure is transient,
	// so the result is served to the current waiters but never cached.
	DegradeReasonPressure = "pressure"
)

// Options tunes a solve request. It is re-exported as pase.Options.
type Options struct {
	// Method selects the strategy-search method: "dp" (default — the paper's
	// dependent-set dynamic program), "beam" (the anytime bounded-width DP;
	// see BeamWidth/GapTarget), "mcmc" (the FlexFlow-substitute Metropolis
	// search), "dataparallel" (the standard-practice baseline), or
	// "expert:<family>" with family "cnn", "rnn", or "transformer" (the
	// paper's expert baselines). All methods run through the same planner
	// request path — fingerprinted (the method is part of the solve
	// fingerprint), cached, and singleflighted — and fill the same Result.
	// Empty means "dp"; "dp" itself is excluded from the fingerprint so
	// default request identities predate the field.
	Method string
	// MCMC tunes the "mcmc" method (ignored by the others). The zero value
	// is normalized to the package defaults before fingerprinting, so an
	// unset struct and the explicit defaults share one cache identity.
	MCMC mcmc.Options
	// MCMCInit selects the "mcmc" chain's initial strategy, itself a baseline
	// method name: "dataparallel" (the default) or "expert:<family>" (the
	// paper seeds FlexFlow's search with the expert strategies).
	MCMCInit string
	// Policy restricts configuration enumeration (zero value: the paper's
	// divisibility rule only).
	Policy itspace.EnumPolicy
	// MaxTableEntries bounds the DP tables' peak live memory (tables are
	// freed as soon as no later recurrence lookup can read them); exceeding
	// it returns core.ErrOOM. Zero selects core.DefaultMaxTableEntries.
	MaxTableEntries int64
	// BreadthFirst switches to the naive Section III-A ordering (the
	// baseline that OOMs on InceptionV3/Transformer). Default: GENERATESEQ.
	BreadthFirst bool
	// Workers parallelizes each vertex's DP-table fill across goroutines
	// (results are byte-identical at any worker count, so Workers is NOT
	// part of a request's cache identity). Zero — the default — uses all
	// available CPUs; set 1 for the explicit serial mode.
	Workers int
	// PruneEpsilon, when > 0, enables epsilon-dominance pruning of the
	// configuration space at model-build time on top of the always-on exact
	// dedup: the found strategy's cost is within (1+PruneEpsilon)² of
	// optimal, in exchange for a smaller DP. It changes which model and
	// results are produced, so a non-zero value is part of the request's
	// cache identity (zero is excluded, keeping default fingerprints
	// stable). Zero falls back to the planner's DefaultPruneEpsilon; a
	// negative value forces the exact solve even on a planner whose
	// default is aggressive.
	PruneEpsilon float64
	// BeamWidth bounds the "beam" method's frontier: each DP table keeps the
	// top-W dependent-set configurations by cost (plus a greedy guide state,
	// so a valid strategy always survives). Zero falls back to the planner's
	// Config.DefaultBeamWidth; if no width resolves (or the value is
	// negative) the beam is unbounded, which is by construction the exact
	// DP — the planner routes the request to "dp" so it shares the exact
	// solve's fingerprint, caches, and byte-identical results. A positive
	// width is part of the request's cache identity. Ignored by every method
	// but "beam".
	BeamWidth int
	// GapTarget steers the "beam" method's anytime refinement loop (see
	// core.BeamOptions.GapTarget): > 0 doubles the width until the tracked
	// optimality gap falls to the target (or the ctx deadline arrives); 0
	// refines under the ctx deadline when one is set, otherwise runs a
	// single pass; negative forces a single pass at BeamWidth. A non-zero
	// target is part of the request's cache identity (negatives normalize to
	// -1). Ignored by every method but "beam".
	GapTarget float64
	// Priority orders requests waiting for a solve slot under admission
	// control (Config.MaxInFlight): higher priorities are granted slots
	// first, ties are served FIFO in arrival order. It cannot change which
	// result is produced, so it is NOT part of the request's cache identity;
	// without admission control it is ignored.
	Priority int
}

// method returns the normalized method name ("" means "dp").
func (o Options) method() string {
	if o.Method == "" {
		return "dp"
	}
	return o.Method
}

// mcmcInit returns the normalized MCMC seed-strategy method.
func (o Options) mcmcInit() string {
	if o.MCMCInit == "" {
		return "dataparallel"
	}
	return o.MCMCInit
}

// ValidateMethod reports whether method names a known solve method: "",
// "dp", "beam", "mcmc", "dataparallel", or "expert:<family>" with a family
// from strategies.Families. It is the wire-level validation hook for
// daemons, so malformed methods are rejected before they are fingerprinted
// or solved.
func ValidateMethod(method string) error {
	switch method {
	case "", "dp", "beam", "mcmc", "dataparallel":
		return nil
	}
	if fam, ok := strings.CutPrefix(method, "expert:"); ok {
		for _, f := range strategies.Families() {
			if fam == f {
				return nil
			}
		}
		return fmt.Errorf("planner: unknown expert family %q (want one of %v)", fam, strategies.Families())
	}
	return fmt.Errorf("planner: unknown method %q (want dp, beam, mcmc, dataparallel, or expert:<family>)", method)
}

// Result is a found strategy with its cost and search statistics. It is
// re-exported as pase.Result.
type Result struct {
	// Strategy is the best strategy found.
	Strategy graph.Strategy
	// Cost is the estimated per-step time of the strategy under the model.
	Cost float64
	// Method is the normalized solve method that produced this result:
	// "dp", "mcmc", "dataparallel", or "expert:<family>".
	Method string
	// SearchTime is the end-to-end time of this request, including cost
	// model construction (ModelTime) when one was built.
	SearchTime time.Duration
	// ModelTime is how long this request spent building the cost model;
	// zero when the model came from cache or was supplied prebuilt.
	ModelTime time.Duration
	// MaxDepSize is the paper's M for the ordering used ("dp" only).
	MaxDepSize int
	// States is the number of (φ, C) combinations the DP evaluated, or the
	// number of proposals an MCMC chain evaluated; zero for baselines.
	States int64
	// Cached reports that this result was served without running a new
	// underlying solve: either a result-cache hit or a ride-along on a
	// concurrent identical request's solve.
	Cached bool
	// Fingerprint is the canonical request fingerprint (hex), the planner's
	// cache key for this request. Empty for Request.Model solves, which
	// bypass the caches (see Request.Model).
	Fingerprint string
	// PrunedConfigs is how many candidate configurations the model's
	// config-space reduction removed before the search ran (zero for
	// baseline methods, which never build a model).
	PrunedConfigs int
	// KEffective is the largest per-vertex configuration count the search
	// iterated over (post-pruning; zero for baseline methods).
	KEffective int
	// VertexClasses / EdgeClasses are the model's structural-sharing class
	// counts: how many distinct vertex and edge cost tables the build
	// constructed (repeated layers alias shared tables; zero for baseline
	// methods, which never build a model).
	VertexClasses int
	EdgeClasses   int
	// TableBytes is the model's resident cost-table footprint in bytes
	// (shared tables counted once); SharedTableBytes is what structural
	// sharing saved versus a per-occurrence build.
	TableBytes       int64
	SharedTableBytes int64
	// ClassStoreHits is how many class references this request's model build
	// resolved from the planner's cross-request class store instead of
	// building; ClassStoreBytes is the table bytes those hits aliased. Zero
	// for cached results, baseline methods, and store-less planners.
	ClassStoreHits  int64
	ClassStoreBytes int64
	// Gap bounds the optimality of a "dp" or "beam" result: the true
	// optimum is guaranteed to lie in [Cost/(1+Gap), Cost]. It compounds the
	// beam's tracked frontier gap with the model's epsilon-dominance slack —
	// a model built with effective PruneEpsilon ε > 0 contributes (1+ε)², so
	// an untruncated "dp" result there reports Gap = (1+ε)²−1. Zero when the
	// result is exact, and for heuristics that track no bound (mcmc,
	// baselines — see Exact).
	Gap float64
	// Exact reports that Cost is provably the optimum of the unpruned
	// problem: true for "dp" and for "beam" when no frontier truncation
	// occurred (or the gap closed to zero), in both cases only when the
	// model's effective PruneEpsilon is zero; false for mcmc and the
	// baselines.
	Exact bool
	// BeamWidth is the frontier width a "beam" request resolved to (after
	// Config.DefaultBeamWidth); zero for every other method — except a
	// degraded "dp" request, where it reports the degraded solve's width.
	BeamWidth int
	// Degraded reports the planner served this "dp" request through the
	// degradation ladder: the bounded-width beam solve ran instead of the
	// exact DP (Method still reports the requested "dp"). The Strategy is
	// valid and Cost realizable; Gap bounds the true optimum in
	// [Cost/(1+Gap), Cost], BeamWidth reports the width used, and Exact is
	// false unless the beam proved exactness anyway. DegradeReason says why:
	// DegradeReasonOOM (cached — the exact solve deterministically exceeds
	// its budget) or DegradeReasonPressure (transient — never cached).
	Degraded      bool
	DegradeReason string
	// FleetFallback reports that this daemon solved a request another fleet
	// member owns because that owner was unreachable (Request.FleetFallback).
	// The answer is correct — solves are deterministic — but it is never
	// cached here: peer health is transient state, and caching under the
	// owner's identity would let a flapping peer populate shadow copies
	// cluster-wide.
	FleetFallback bool
	// deadlineTruncated marks an anytime result whose refinement was cut
	// short by the caller's deadline (or a late-pass budget hit): an
	// identical request with more time could do better, so the planner
	// serves it to the current waiters but keeps it out of the result cache.
	deadlineTruncated bool
}

// noCache reports that this result must not enter the result cache: it was
// deadline-truncated (more time would refine it), degraded under transient
// queue pressure (the exact answer is still reachable once pressure
// subsides), or solved as a fleet fallback for an unreachable owner (the
// owner's LRU is this fingerprint's home). OOM-degraded results ARE cached —
// see DegradeReasonOOM.
func (r *Result) noCache() bool {
	return r.deadlineTruncated || r.DegradeReason == DegradeReasonPressure || r.FleetFallback
}

// clone returns an independent copy whose strategy the caller may mutate.
func (r *Result) clone() *Result {
	out := *r
	out.Strategy = r.Strategy.Clone()
	return &out
}

// Request is one solve request: a graph, a machine, and solve options.
// Graphs handed to the planner must not be mutated afterwards — the planner
// caches models and results under the graph's fingerprint at request time.
//
// Model, when non-nil, supplies a prebuilt cost model and changes the
// request's contract: the solve runs over exactly that model (G and Spec are
// taken from it; a non-nil G must match the model's), still through the
// unified method dispatch and fully cancellable, but it bypasses the
// planner's caches and singleflight — the planner cannot vouch for a model
// it did not build (unknown build options, possible mutation), so nothing is
// fingerprinted and Result.Cached/Result.Fingerprint stay zero by design.
// Reuse a Request.Model to amortize table construction across many solves of
// one graph; use the cached path for everything else.
type Request struct {
	G     *graph.Graph
	Spec  machine.Spec
	Opts  Options
	Model *cost.Model
	// FleetFallback marks a request this daemon is solving in place of an
	// unreachable fleet owner: the result is served and marked but never
	// cached (see Result.FleetFallback), and counted in
	// Stats.FleetFallbacks. Not fingerprinted — the answer is identical
	// either way.
	FleetFallback bool
}

// BatchItem is one outcome of SolveBatch, aligned with the request slice.
type BatchItem struct {
	Result *Result
	Err    error
}

// Config sizes a Planner. The zero value selects sensible defaults.
type Config struct {
	// ModelCacheSize bounds the cost-model LRU (default 16 models). Models
	// are the expensive, memory-heavy artifact: all TL/TX tables for one
	// (graph, machine, policy).
	ModelCacheSize int
	// ResultCacheSize bounds the solved-result LRU (default 128 results).
	ResultCacheSize int
	// BatchWorkers bounds SolveBatch's request-level concurrency (default
	// GOMAXPROCS).
	BatchWorkers int
	// DefaultPruneEpsilon is applied to requests whose Options leave
	// PruneEpsilon unset (zero); see Options.PruneEpsilon. The effective
	// value — not the request's literal field — is what enters the
	// fingerprint, so two planners with different defaults never share
	// stale cache entries through an exported fingerprint.
	DefaultPruneEpsilon float64
	// ClassStoreBytes bounds the planner's cross-request class store — the
	// cache of class-level cost tables every model build of this planner
	// resolves from, so a class (a Transformer encoder layer at p=32, say)
	// is built once ever per planner rather than once per model. Zero
	// selects cost.DefaultClassStoreBytes.
	ClassStoreBytes int64
	// DisableClassStore turns cross-request class sharing off — every model
	// build constructs its own tables. This is the byte-identity oracle the
	// store's property tests pin store-enabled builds against.
	DisableClassStore bool
	// DefaultBeamWidth is applied to "beam" requests whose Options leave
	// BeamWidth unset (zero). Like DefaultPruneEpsilon, the effective width
	// — not the request's literal field — enters the fingerprint. Zero means
	// no default: a "beam" request without a width is unbounded and routes
	// to the exact "dp" path (counted in Stats.BeamFallbacks).
	DefaultBeamWidth int
	// MaxInFlight enables admission control when > 0: at most this many
	// underlying solves run concurrently, at most MaxQueue more wait for a
	// slot (by Options.Priority, FIFO within a priority), and arrivals
	// beyond that are rejected immediately with ErrShed. Cache hits and
	// ride-alongs on in-flight identical solves are always admitted — they
	// perform no new work. Zero disables admission control entirely
	// (the pre-pressure behavior).
	MaxInFlight int
	// MaxQueue bounds requests waiting for a solve slot (only meaningful
	// with MaxInFlight > 0). Zero selects pressure.DefaultMaxQueue.
	MaxQueue int
	// DegradeBeamWidth enables the graceful-degradation ladder when > 0: a
	// "dp" request whose exact solve hits core.ErrOOM — or that arrives
	// while the admission queue is at least DegradeQueueDepth deep — is
	// served by a single bounded-width beam pass at this width instead of
	// failing or adding exact-solve latency to a saturated queue. Degraded
	// results are marked (Result.Degraded/DegradeReason) and carry the beam
	// gap contract. Zero disables degradation: ErrOOM surfaces to the
	// caller as before.
	DegradeBeamWidth int
	// DegradeQueueDepth is the admission-queue depth at which incoming "dp"
	// requests start degrading (with DegradeBeamWidth > 0 and admission
	// control on). Zero selects half of MaxQueue (at least 1); negative
	// restricts degradation to the ErrOOM ladder only.
	DegradeQueueDepth int
	// FaultPlan, when non-nil, injects deterministic faults (ErrOOM,
	// panics, latency) at named pipeline sites — see pressure.ParseFaultPlan.
	// Test and debug only; nil in production.
	FaultPlan *pressure.FaultPlan
}

func (c Config) modelCacheSize() int {
	if c.ModelCacheSize == 0 {
		return 16
	}
	return c.ModelCacheSize
}

func (c Config) resultCacheSize() int {
	if c.ResultCacheSize == 0 {
		return 128
	}
	return c.ResultCacheSize
}

func (c Config) batchWorkers() int {
	if c.BatchWorkers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.BatchWorkers
}

// degradeQueueDepth resolves the queue depth at which "dp" requests degrade;
// a negative configured value means "never by pressure" (OOM ladder only).
func (c Config) degradeQueueDepth() (depth int, byPressure bool) {
	if c.DegradeQueueDepth < 0 {
		return 0, false
	}
	if c.DegradeQueueDepth > 0 {
		return c.DegradeQueueDepth, true
	}
	q := c.MaxQueue
	if q <= 0 {
		q = pressure.DefaultMaxQueue
	}
	if q/2 < 1 {
		return 1, true
	}
	return q / 2, true
}

// Stats is a snapshot of the planner's cache and dedup counters. "One
// underlying solve per unique request" means Solves equals the number of
// distinct fingerprints ever requested (while none has been evicted and no
// flight was abandoned by every waiter).
type Stats struct {
	// Solves counts underlying method runs actually performed and completed
	// (DP solves, MCMC chains, baseline evaluations).
	Solves int64 `json:"solves"`
	// ModelBuilds counts cost models actually constructed.
	ModelBuilds int64 `json:"model_builds"`
	// ResultHits / ResultMisses count result-cache lookups.
	ResultHits   int64 `json:"result_hits"`
	ResultMisses int64 `json:"result_misses"`
	// ModelHits / ModelMisses count model-cache lookups (model-building
	// methods only; a result-cache hit never consults the model cache).
	ModelHits   int64 `json:"model_hits"`
	ModelMisses int64 `json:"model_misses"`
	// DedupWaits counts requests that rode along on a concurrent identical
	// request's in-flight solve instead of starting their own.
	DedupWaits int64 `json:"dedup_waits"`
	// Cancelled counts requests that returned early because their context
	// was cancelled while waiting on a solve or model flight. A cancelled
	// follower detaches without stopping the shared solve; the flight itself
	// is aborted only when its last waiter cancels.
	Cancelled int64 `json:"cancelled"`
	// ResultEvictions / ModelEvictions count LRU evictions.
	ResultEvictions int64 `json:"result_evictions"`
	ModelEvictions  int64 `json:"model_evictions"`
	// PrunedConfigs totals the candidate configurations removed by
	// config-space reduction across all models this planner built.
	PrunedConfigs int64 `json:"pruned_configs"`
	// VertexClasses / EdgeClasses total the structural-sharing class counts
	// across all models this planner built; SharedTableBytes totals the
	// table bytes interning saved versus per-occurrence builds. Repeated
	// structure (Transformer encoder layers, inception modules) shows up
	// here as classes far below the node/edge counts served.
	VertexClasses    int64 `json:"vertex_classes"`
	EdgeClasses      int64 `json:"edge_classes"`
	SharedTableBytes int64 `json:"shared_table_bytes"`
	// ClassStoreHits / ClassStoreMisses count class references resolved from
	// vs built into the planner's cross-request class store, across every
	// model this planner built; ClassStoreBytes is the store's resident
	// table bytes, ClassStoreSavedBytes the cumulative bytes hits aliased
	// instead of rebuilding, and ClassStoreEvictions the entries dropped to
	// hold the store's budget. All zero when Config.DisableClassStore.
	ClassStoreHits       int64 `json:"class_store_hits"`
	ClassStoreMisses     int64 `json:"class_store_misses"`
	ClassStoreBytes      int64 `json:"class_store_bytes"`
	ClassStoreSavedBytes int64 `json:"class_store_saved_bytes"`
	ClassStoreEvictions  int64 `json:"class_store_evictions"`
	// BeamSolves counts underlying "beam" method runs actually performed;
	// BeamFallbacks counts requests that asked for "beam" but resolved an
	// unbounded width and were routed to the exact "dp" path instead.
	// LastGap is the optimality gap of the most recent completed beam solve
	// (zero when it proved exactness).
	BeamSolves    int64   `json:"beam_solves"`
	BeamFallbacks int64   `json:"beam_fallbacks"`
	LastGap       float64 `json:"last_gap"`
	// Shed counts requests rejected immediately because the admission queue
	// was full; Queued counts requests that waited for a solve slot.
	// QueueDepth and InFlight are gauges read at snapshot time. All zero
	// without admission control (Config.MaxInFlight).
	Shed       int64 `json:"shed"`
	Queued     int64 `json:"queued"`
	QueueDepth int   `json:"queue_depth"`
	InFlight   int   `json:"in_flight"`
	// Degraded counts "dp" requests served by the degradation ladder (a
	// bounded beam solve instead of the exact DP — ErrOOM or queue
	// pressure); Panics counts solves or model builds that panicked and
	// were isolated to their own request.
	Degraded int64 `json:"degraded"`
	Panics   int64 `json:"panics"`
	// RestoredResults counts result-cache entries loaded from a warm-restart
	// snapshot (Planner.LoadSnapshot).
	RestoredResults int64 `json:"restored_results"`
	// FleetFallbacks counts solves this planner ran in place of an
	// unreachable fleet owner (Request.FleetFallback); their results are
	// never cached here.
	FleetFallbacks int64 `json:"fleet_fallbacks"`
}

// solveFlight is one in-flight underlying solve. waiters counts the callers
// whose contexts are still interested; when it reaches zero the flight's
// cancel aborts the solve.
type solveFlight struct {
	done    chan struct{}
	cancel  context.CancelCauseFunc
	waiters int
	res     *Result
	err     error
}

type modelFlight struct {
	done    chan struct{}
	cancel  context.CancelCauseFunc
	waiters int
	m       *cost.Model
	err     error
}

// Planner caches, deduplicates, and serves strategy solves. It is safe for
// concurrent use by any number of goroutines.
type Planner struct {
	cfg Config
	// arena recycles DP-solve table buffers across every solve this planner
	// runs (cache misses, batch fan-outs, Compare): sync.Pool-backed size
	// classes, shared safely by concurrent solves.
	arena *core.Arena
	// store is the planner's cross-request class store: every model build
	// resolves class-level cost tables from it, so a class is built once
	// ever per planner across distinct graphs, sweep points, and concurrent
	// requests. nil when Config.DisableClassStore.
	store *cost.ClassStore
	// gate is the admission gate bounding concurrent underlying solves and
	// the queue behind them. nil when Config.MaxInFlight is zero: every
	// request is admitted unconditionally.
	gate *pressure.Gate

	mu           sync.Mutex
	models       *lruCache[canon.Fingerprint, *cost.Model]
	results      *lruCache[canon.Fingerprint, *Result]
	solveFlights map[canon.Fingerprint]*solveFlight
	modelFlights map[canon.Fingerprint]*modelFlight
	stats        Stats
}

// New returns a Planner sized by cfg (zero value: defaults).
func New(cfg Config) *Planner {
	p := &Planner{
		cfg:          cfg,
		arena:        core.NewArena(),
		solveFlights: map[canon.Fingerprint]*solveFlight{},
		modelFlights: map[canon.Fingerprint]*modelFlight{},
	}
	if !cfg.DisableClassStore {
		p.store = cost.NewClassStore(cfg.ClassStoreBytes)
	}
	if cfg.MaxInFlight > 0 {
		p.gate = pressure.NewGate(pressure.GateConfig{
			MaxInFlight: cfg.MaxInFlight,
			MaxQueue:    cfg.MaxQueue,
		})
	}
	p.models = newLRU[canon.Fingerprint, *cost.Model](cfg.modelCacheSize(), func(canon.Fingerprint, *cost.Model) {
		p.stats.ModelEvictions++
	})
	p.results = newLRU[canon.Fingerprint, *Result](cfg.resultCacheSize(), func(canon.Fingerprint, *Result) {
		p.stats.ResultEvictions++
	})
	return p
}

// Fingerprints returns the model- and solve-level canonical fingerprints of a
// request. The model fingerprint covers (graph, machine, enumeration policy,
// and — only when non-zero — PruneEpsilon, which changes the built model's
// config space); the solve fingerprint extends it with the result-relevant
// solver options: ordering choice, the effective memory budget, and — only
// when not the default "dp" — the method with its method-specific knobs
// (normalized mcmc.Options and the MCMC seed strategy; the effective beam
// width and normalized gap target). Workers is excluded
// because results are byte-identical at any worker count; zero PruneEpsilon
// and method "dp" are excluded because they reproduce pre-field results
// byte for byte, keeping pre-existing fingerprints stable.
func Fingerprints(req Request) (modelFP, solveFP canon.Fingerprint) {
	w := canon.NewWriter()
	w.Label("pase.request/v1")
	req.G.CanonicalEncode(w)
	req.Spec.CanonicalEncode(w)
	req.Opts.Policy.CanonicalEncode(w)
	if req.Opts.PruneEpsilon > 0 {
		w.Label("prune-epsilon")
		w.F64(req.Opts.PruneEpsilon)
	}
	modelFP = w.Sum()
	w.Label("solve-options")
	budget := req.Opts.MaxTableEntries
	if budget <= 0 {
		budget = core.DefaultMaxTableEntries
	}
	w.I64(budget)
	w.Bool(req.Opts.BreadthFirst)
	if method := req.Opts.method(); method != "dp" {
		w.Label("method")
		w.Str(method)
		if method == "mcmc" {
			req.Opts.MCMC.CanonicalEncode(w)
			w.Label("mcmc-init")
			w.Str(req.Opts.mcmcInit())
		}
		if method == "beam" {
			// Solve normalizes the beam fields before fingerprinting: width
			// is the effective (post-DefaultBeamWidth) positive value —
			// unbounded requests were rewritten to "dp" and never reach this
			// branch — and negative gap targets collapse to -1.
			w.Label("beam")
			w.Int(req.Opts.BeamWidth)
			w.F64(req.Opts.GapTarget)
		}
	}
	solveFP = w.Sum()
	return modelFP, solveFP
}

// prepared is a validated request after option resolution: the normalized
// request, its fingerprints (zero for Request.Model solves, which bypass the
// caches), and whether an unbounded "beam" request was rewritten to "dp".
type prepared struct {
	Request
	modelFP, solveFP canon.Fingerprint
	beamFallback     bool
}

// prepare is the one normalization step every entry point shares (Solve,
// SolveFingerprint, the Request.Model path, Model): it validates the method
// and MCMC seed, then resolves the planner-default-dependent options exactly
// as they are fingerprinted. The effective epsilon: zero inherits the planner
// default, negative explicitly opts out. The effective beam width the same
// way — and an unbounded width means the beam IS the exact DP, so the request
// is rewritten to "dp" (it shares the exact solve's fingerprint, caches, and
// flights). Every other method has its beam knobs cleared so they cannot
// perturb behavior (they are not fingerprinted anyway).
func (p *Planner) prepare(req Request) (prepared, error) {
	if err := ValidateMethod(req.Opts.Method); err != nil {
		return prepared{}, err
	}
	if init := req.Opts.MCMCInit; init != "" {
		// Fail fast on a bad seed strategy — the same validation Method
		// gets — instead of discovering it after a full model build.
		if err := ValidateMethod(init); err != nil {
			return prepared{}, err
		}
		if !strategies.IsBaselineMethod(init) {
			return prepared{}, fmt.Errorf("planner: MCMCInit %q is not a baseline method (want dataparallel or expert:<family>)", init)
		}
	}
	if req.Model == nil && req.G == nil {
		return prepared{}, errors.New("planner: nil graph")
	}
	pr := prepared{Request: req}
	opts := &pr.Opts
	switch {
	case opts.PruneEpsilon < 0:
		opts.PruneEpsilon = 0
	case opts.PruneEpsilon == 0 && p.cfg.DefaultPruneEpsilon > 0:
		opts.PruneEpsilon = p.cfg.DefaultPruneEpsilon
	}
	if opts.method() == "beam" {
		if opts.BeamWidth == 0 {
			opts.BeamWidth = p.cfg.DefaultBeamWidth
		}
		if opts.BeamWidth <= 0 {
			opts.Method = "dp"
			pr.beamFallback = true
		} else if opts.GapTarget < 0 {
			opts.GapTarget = -1
		}
	}
	if opts.method() != "beam" {
		opts.BeamWidth = 0
		opts.GapTarget = 0
	}
	if pr.Model == nil {
		pr.modelFP, pr.solveFP = Fingerprints(pr.Request)
	}
	return pr, nil
}

// SolveFingerprint returns the canonical solve fingerprint Solve would cache
// req under, after the same option normalization, without solving anything
// and without touching any counter. It is the fleet layer's shard key: the
// rendezvous ring hashes this fingerprint to pick the request's owner.
// Request.Model solves bypass the caches and have no fingerprint.
func (p *Planner) SolveFingerprint(req Request) (canon.Fingerprint, error) {
	if req.Model != nil {
		return canon.Fingerprint{}, errors.New("planner: Request.Model solves bypass the caches and have no fingerprint")
	}
	pr, err := p.prepare(req)
	if err != nil {
		return canon.Fingerprint{}, err
	}
	return pr.solveFP, nil
}

// HasLocal reports whether fp is already answerable from this planner
// without new work: a cached result or an in-flight identical solve. The
// fleet layer uses it to skip forwarding — results are deterministic, so a
// local copy is always as good as the owner's.
func (p *Planner) HasLocal(fp canon.Fingerprint) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.results.Peek(fp); ok {
		return true
	}
	_, ok := p.solveFlights[fp]
	return ok
}

// Solve serves one request: it is the single entry point every method and
// every front end (pase.Solve, SolveBatch, cmd/pased) routes through.
// Identical previously-solved requests are cache hits; a request identical to
// one currently in flight joins that flight. The returned Result is the
// caller's to keep: its Strategy is an independent copy.
//
// ctx cancels this caller's interest only: a joined flight keeps solving for
// its other waiters, and the underlying solve is aborted — promptly, at the
// pipeline's coarse cancellation polls — only when the last interested
// caller has cancelled. The error is ctx's error (context.Canceled or
// context.DeadlineExceeded), possibly wrapped.
func (p *Planner) Solve(ctx context.Context, req Request) (*Result, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	pr, err := p.prepare(req)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	if pr.beamFallback {
		p.mu.Lock()
		p.stats.BeamFallbacks++
		p.mu.Unlock()
	}
	req, modelFP, solveFP := pr.Request, pr.modelFP, pr.solveFP
	if req.Model != nil {
		return p.solveWithModel(ctx, req, start)
	}

	// Fast path: cache hits and ride-alongs on in-flight identical solves
	// bypass admission control — they perform no new underlying work, so
	// shedding or queueing them would only add latency to free answers.
	p.mu.Lock()
	if r, ok := p.results.Get(solveFP); ok {
		p.stats.ResultHits++
		p.mu.Unlock()
		return cachedResult(r, start), nil
	}
	if fl, ok := p.solveFlights[solveFP]; ok {
		p.stats.DedupWaits++
		fl.waiters++
		p.mu.Unlock()
		return p.waitSolve(ctx, solveFP, fl, start, false)
	}
	p.mu.Unlock()

	// Admission: this request is about to start a new underlying solve, so
	// it must hold one of the MaxInFlight slots (waiting by priority when
	// none is free, shed immediately when the queue is full). The observed
	// queue depth at arrival is the pressure signal for the degradation
	// ladder: a deep queue downgrades exact "dp" requests to a fast bounded
	// beam pass so the queue keeps draining.
	degradeReason := ""
	release := func() {}
	if p.gate != nil {
		depth, err := p.gate.Acquire(ctx, req.Opts.Priority)
		if err != nil {
			if !errors.Is(err, pressure.ErrShed) {
				p.mu.Lock()
				p.stats.Cancelled++
				p.mu.Unlock()
			}
			return nil, err
		}
		release = p.gate.Release
		if p.cfg.DegradeBeamWidth > 0 && req.Opts.method() == "dp" {
			if thr, byPressure := p.cfg.degradeQueueDepth(); byPressure && depth >= thr {
				degradeReason = DegradeReasonPressure
			}
		}
	}

	p.mu.Lock()
	// Re-check under the lock: an identical request may have completed or
	// started its flight while this one waited for admission.
	if r, ok := p.results.Get(solveFP); ok {
		p.stats.ResultHits++
		p.mu.Unlock()
		release()
		return cachedResult(r, start), nil
	}
	if fl, ok := p.solveFlights[solveFP]; ok {
		p.stats.DedupWaits++
		fl.waiters++
		p.mu.Unlock()
		release()
		return p.waitSolve(ctx, solveFP, fl, start, false)
	}
	p.stats.ResultMisses++
	if req.FleetFallback {
		p.stats.FleetFallbacks++
	}
	flightCtx, cancel := context.WithCancelCause(context.Background())
	fl := &solveFlight{done: make(chan struct{}), cancel: cancel, waiters: 1}
	p.solveFlights[solveFP] = fl
	p.mu.Unlock()

	// The solve runs on its own flight context so the leader can detach like
	// any other waiter while the flight finishes for the rest; the flight
	// context is cancelled only when the last waiter detaches (waitSolve).
	//
	// Anytime beam requests additionally inherit the caller's deadline,
	// shrunk by a small margin: the refinement loop must stop and hand its
	// best-so-far result to the flight *before* the caller's own deadline
	// fires and detaches it, or the anytime contract degenerates to a
	// DeadlineExceeded error.
	solveCtx := flightCtx
	stopTimer := func() {}
	if req.Opts.method() == "beam" {
		if dl, ok := ctx.Deadline(); ok {
			solveCtx, stopTimer = context.WithDeadline(flightCtx, dl.Add(-beamDeadlineMargin(time.Until(dl))))
		}
	}
	go func() {
		defer release()
		defer stopTimer()
		res, err := p.solveGuarded(solveCtx, req, modelFP, solveFP, start, degradeReason)
		p.mu.Lock()
		if p.solveFlights[solveFP] == fl {
			delete(p.solveFlights, solveFP)
		}
		// Deadline-truncated and pressure-degraded results are served to
		// the flight's waiters but not cached: the same request with more
		// time (or less pressure) could do better, and a cache would freeze
		// the early answer. OOM-degraded results are cached — see noCache.
		if err == nil && !res.noCache() {
			p.results.Put(solveFP, res)
		}
		fl.res, fl.err = res, err
		p.mu.Unlock()
		close(fl.done)
		cancel(nil)
	}()
	return p.waitSolve(ctx, solveFP, fl, start, true)
}

// cachedResult lifts a result-cache hit into the caller's copy.
func cachedResult(r *Result, start time.Time) *Result {
	out := r.clone()
	out.Cached = true
	out.ModelTime = 0
	out.SearchTime = time.Since(start)
	return out
}

// guard converts a panic on the calling goroutine into an ErrSolvePanic
// failure of just this request, counting it. Call via defer with the named
// return values.
func (p *Planner) guard(res **Result, err *error) {
	if r := recover(); r != nil {
		p.mu.Lock()
		p.stats.Panics++
		p.mu.Unlock()
		*res, *err = nil, fmt.Errorf("%w: %v", ErrSolvePanic, r)
	}
}

// solveGuarded is doSolve behind panic isolation: a panicking solve fails
// only its own flight (the waiters see ErrSolvePanic), never the process.
func (p *Planner) solveGuarded(ctx context.Context, req Request, modelFP, solveFP canon.Fingerprint, start time.Time, degradeReason string) (res *Result, err error) {
	defer p.guard(&res, &err)
	return p.doSolve(ctx, req, modelFP, solveFP, start, degradeReason)
}

// waitSolve blocks until the flight completes or the caller's ctx is
// cancelled. A cancelled caller detaches: it decrements the flight's waiter
// count and — when it was the last — cancels the flight's context (aborting
// the solve) and unlinks the flight so a later identical request starts
// fresh instead of inheriting a doomed one.
func (p *Planner) waitSolve(ctx context.Context, fp canon.Fingerprint, fl *solveFlight, start time.Time, leader bool) (*Result, error) {
	select {
	case <-fl.done:
		if fl.err != nil {
			return nil, fl.err
		}
		out := fl.res.clone()
		if !leader {
			out.Cached = true
			out.ModelTime = 0
		}
		out.SearchTime = time.Since(start)
		return out, nil
	case <-ctx.Done():
		p.mu.Lock()
		fl.waiters--
		last := fl.waiters == 0
		if last && p.solveFlights[fp] == fl {
			delete(p.solveFlights, fp)
		}
		p.stats.Cancelled++
		p.mu.Unlock()
		if last {
			fl.cancel(context.Cause(ctx))
		}
		return nil, context.Cause(ctx)
	}
}

// doSolve performs the one underlying solve for a fingerprint, dispatching
// on the request's method: model acquisition (cached, deduplicated, or
// built) followed by the method's search, or a direct baseline evaluation
// (baselines price one fixed strategy and never need a model). A non-empty
// degradeReason (queue pressure observed at admission) routes a "dp" request
// straight to the bounded beam solve; an ErrOOM from the exact DP takes the
// same ladder with DegradeReasonOOM.
func (p *Planner) doSolve(ctx context.Context, req Request, modelFP, solveFP canon.Fingerprint, start time.Time, degradeReason string) (*Result, error) {
	if err := p.cfg.FaultPlan.Fire(ctx, pressure.SiteSolve); err != nil {
		return nil, err
	}
	method := req.Opts.method()
	var res *Result
	var err error
	if strategies.IsBaselineMethod(method) {
		res, err = runBaseline(ctx, req.G, req.Spec, method, start)
	} else {
		var m *cost.Model
		var modelTime time.Duration
		// ctx here is the solve flight's context, not a caller's: a detach
		// on it was already counted by waitSolve, so it must not increment
		// Stats.Cancelled a second time (countCancel false).
		m, modelTime, err = p.model(ctx, req, modelFP, false)
		if err != nil {
			return nil, err
		}
		switch method {
		case "mcmc":
			res, err = runMCMC(ctx, m, req.Opts, start)
		case "beam":
			res, err = p.runBeam(ctx, m, req.Opts, start)
		default:
			if degradeReason != "" {
				res, err = p.runDegraded(ctx, m, req.Opts, start, degradeReason)
				break
			}
			if err = p.cfg.FaultPlan.Fire(ctx, pressure.SiteDP); err == nil {
				res, err = runDP(ctx, m, req.Opts, start, p.arena)
			}
			if err != nil && errors.Is(err, core.ErrOOM) && p.cfg.DegradeBeamWidth > 0 {
				res, err = p.runDegraded(ctx, m, req.Opts, start, DegradeReasonOOM)
			}
		}
		if res != nil {
			res.ModelTime = modelTime
			res.ClassStoreHits = m.ClassStoreHits()
			res.ClassStoreBytes = m.ClassStoreBytes()
		}
	}
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.stats.Solves++
	p.mu.Unlock()
	res.Method = method
	res.Fingerprint = solveFP.String()
	res.FleetFallback = req.FleetFallback
	return res, nil
}

// solveWithModel is the Request.Model path: the unified method dispatch over
// a caller-supplied model, bypassing the caches (see Request.Model for the
// contract). It also bypasses admission control and the degradation ladder —
// the caller owns the model and its memory — but shares panic isolation.
func (p *Planner) solveWithModel(ctx context.Context, req Request, start time.Time) (res *Result, err error) {
	defer p.guard(&res, &err)
	m := req.Model
	if req.G != nil && req.G != m.G {
		return nil, errors.New("planner: Request.Model was built for a different graph than Request.G")
	}
	method := req.Opts.method()
	switch {
	case strategies.IsBaselineMethod(method):
		res, err = runBaseline(ctx, m.G, m.Spec, method, start)
	case method == "mcmc":
		res, err = runMCMC(ctx, m, req.Opts, start)
	case method == "beam":
		res, err = p.runBeam(ctx, m, req.Opts, start)
	default:
		res, err = runDP(ctx, m, req.Opts, start, p.arena)
	}
	if err != nil {
		return nil, err
	}
	res.Method = method
	return res, nil
}

// dpSeq builds the vertex ordering a dp request solves under.
func dpSeq(m *cost.Model, opts Options) *seq.Sequence {
	if opts.BreadthFirst {
		return seq.BFS(m.G)
	}
	return seq.Generate(m.G)
}

// dpResult lifts a core DP result into the planner's Result shape. The
// exact DP proves optimality by construction; beam callers overwrite Exact
// with what the solve established.
func dpResult(r *core.Result, start time.Time) *Result {
	return &Result{
		Strategy:         r.Strategy,
		Cost:             r.Cost,
		SearchTime:       time.Since(start),
		MaxDepSize:       r.Stats.MaxDepSize,
		States:           r.Stats.States,
		PrunedConfigs:    r.Stats.PrunedConfigs,
		KEffective:       r.Stats.KEffective,
		VertexClasses:    r.Stats.VertexClasses,
		EdgeClasses:      r.Stats.EdgeClasses,
		TableBytes:       r.Stats.TableBytes,
		SharedTableBytes: r.Stats.SharedTableBytes,
		Exact:            true,
	}
}

// runDP runs ordering + the dependent-set DP over a built model, drawing
// table buffers from the planner's shared arena.
func runDP(ctx context.Context, m *cost.Model, opts Options, start time.Time, arena *core.Arena) (*Result, error) {
	r, err := core.Solve(ctx, m, dpSeq(m, opts), core.Options{
		MaxTableEntries: opts.MaxTableEntries,
		Workers:         opts.Workers,
		Arena:           arena,
	})
	if err != nil {
		return nil, err
	}
	res := dpResult(r, start)
	boundEpsilon(res, m.PruneEpsilon())
	return res, nil
}

// boundEpsilon widens a result's guarantee by its model's epsilon-dominance
// slack: with ε > 0 the pruned model's optimum is only within (1+ε)² of the
// unpruned one, so the result is not exact and the slack compounds with any
// frontier gap the solve tracked.
func boundEpsilon(res *Result, eps float64) {
	if eps > 0 {
		res.Exact = false
		res.Gap = (1+res.Gap)*(1+eps)*(1+eps) - 1
	}
}

// runBeam runs the anytime bounded-width DP over a built model, sharing the
// planner's arena like every other solve.
func (p *Planner) runBeam(ctx context.Context, m *cost.Model, opts Options, start time.Time) (*Result, error) {
	br, err := core.SolveBeam(ctx, m, dpSeq(m, opts), core.BeamOptions{
		Options: core.Options{
			MaxTableEntries: opts.MaxTableEntries,
			Workers:         opts.Workers,
			Arena:           p.arena,
		},
		Width:     opts.BeamWidth,
		GapTarget: opts.GapTarget,
	})
	if err != nil {
		return nil, err
	}
	res := dpResult(&br.Result, start)
	res.Gap = br.Gap
	res.Exact = br.Exact
	boundEpsilon(res, m.PruneEpsilon())
	res.BeamWidth = opts.BeamWidth
	res.deadlineTruncated = br.Truncated
	p.mu.Lock()
	p.stats.BeamSolves++
	p.stats.LastGap = br.Gap
	p.mu.Unlock()
	return res, nil
}

// runDegraded is the degradation ladder's landing: a single bounded-width
// beam pass at Config.DegradeBeamWidth in place of the exact DP, marked on
// the Result so callers and caches can tell. A single pass (no refinement
// loop) because degradation exists to answer fast — under queue pressure or
// after an ErrOOM — not to chase the gap.
func (p *Planner) runDegraded(ctx context.Context, m *cost.Model, opts Options, start time.Time, reason string) (*Result, error) {
	opts.BeamWidth = p.cfg.DegradeBeamWidth
	opts.GapTarget = -1
	res, err := p.runBeam(ctx, m, opts, start)
	if err != nil {
		return nil, err
	}
	res.Degraded = true
	res.DegradeReason = reason
	p.mu.Lock()
	p.stats.Degraded++
	p.mu.Unlock()
	return res, nil
}

// beamDeadlineMargin is how much of the caller's remaining deadline budget a
// beam flight gives back so its best-so-far result reaches the waiters
// before their contexts fire: 5% of the remaining time, clamped to
// [25ms, 200ms].
func beamDeadlineMargin(remaining time.Duration) time.Duration {
	margin := remaining / 20
	if margin > 200*time.Millisecond {
		margin = 200 * time.Millisecond
	}
	if margin < 25*time.Millisecond {
		margin = 25 * time.Millisecond
	}
	return margin
}

// runMCMC runs the FlexFlow-substitute chain over a built model, seeded by
// the request's MCMCInit baseline (data parallelism by default).
func runMCMC(ctx context.Context, m *cost.Model, opts Options, start time.Time) (*Result, error) {
	initStrat, err := strategies.ForMethod(opts.mcmcInit(), m.G, m.P())
	if err != nil {
		return nil, fmt.Errorf("planner: mcmc init: %w", err)
	}
	init, err := m.IdxFromStrategy(initStrat)
	if err != nil {
		return nil, fmt.Errorf("planner: mcmc init strategy not enumerable under the request's policy: %w", err)
	}
	r, err := mcmc.Search(ctx, m, init, opts.MCMC)
	if err != nil {
		return nil, err
	}
	return &Result{
		Strategy:         m.StrategyFromIdx(r.BestIdx),
		Cost:             r.BestCost,
		SearchTime:       time.Since(start),
		States:           int64(r.Iters),
		PrunedConfigs:    m.PrunedConfigs(),
		KEffective:       m.MaxKEffective(),
		VertexClasses:    m.VertexClasses(),
		EdgeClasses:      m.EdgeClasses(),
		TableBytes:       m.TableBytes(),
		SharedTableBytes: m.SharedTableBytes(),
	}, nil
}

// runBaseline prices a fixed baseline strategy directly from the graph and
// machine — no enumeration, no tables, microseconds of work.
func runBaseline(ctx context.Context, g *graph.Graph, spec machine.Spec, method string, start time.Time) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	s, err := strategies.ForMethod(method, g, spec.Devices)
	if err != nil {
		return nil, err
	}
	c, err := cost.EvalStrategy(g, spec, s)
	if err != nil {
		return nil, err
	}
	return &Result{Strategy: s, Cost: c, SearchTime: time.Since(start)}, nil
}

// Model returns the cost model for (g, spec, pol), from cache when possible.
// Callers that need direct model access (strategy costing, simulation
// baselines) share the planner's model cache this way.
func (p *Planner) Model(ctx context.Context, g *graph.Graph, spec machine.Spec, pol itspace.EnumPolicy) (*cost.Model, error) {
	pr, err := p.prepare(Request{G: g, Spec: spec, Opts: Options{Policy: pol}})
	if err != nil {
		return nil, err
	}
	m, _, err := p.model(ctx, pr.Request, pr.modelFP, true)
	return m, err
}

// model acquires the request's cost model: cache hit, ride-along on a
// concurrent build, or a fresh build on the flight's own context (so a
// cancelled waiter detaches without killing the build for others). The
// returned duration is the build time when this call's flight built it
// (zero for hits and ride-alongs). countCancel says whether a detach on ctx
// represents a real caller cancelling (Planner.Model) rather than an
// already-counted solve flight unwinding (doSolve).
func (p *Planner) model(ctx context.Context, req Request, modelFP canon.Fingerprint, countCancel bool) (*cost.Model, time.Duration, error) {
	p.mu.Lock()
	if m, ok := p.models.Get(modelFP); ok {
		p.stats.ModelHits++
		p.mu.Unlock()
		return m, 0, nil
	}
	if fl, ok := p.modelFlights[modelFP]; ok {
		fl.waiters++
		p.mu.Unlock()
		return p.waitModel(ctx, modelFP, fl, false, countCancel)
	}
	p.stats.ModelMisses++
	buildCtx, cancel := context.WithCancelCause(context.Background())
	fl := &modelFlight{done: make(chan struct{}), cancel: cancel, waiters: 1}
	p.modelFlights[modelFP] = fl
	p.mu.Unlock()

	go func() {
		m, err := p.buildModelGuarded(buildCtx, req)
		p.mu.Lock()
		if p.modelFlights[modelFP] == fl {
			delete(p.modelFlights, modelFP)
		}
		if err == nil {
			p.stats.ModelBuilds++
			p.stats.PrunedConfigs += int64(m.PrunedConfigs())
			p.stats.VertexClasses += int64(m.VertexClasses())
			p.stats.EdgeClasses += int64(m.EdgeClasses())
			p.stats.SharedTableBytes += m.SharedTableBytes()
			p.models.Put(modelFP, m)
		}
		fl.m, fl.err = m, err
		p.mu.Unlock()
		close(fl.done)
		cancel(nil)
	}()
	return p.waitModel(ctx, modelFP, fl, true, countCancel)
}

// buildModelGuarded runs a model build behind the fault plan's model site
// and panic isolation: a panicking build fails its flight's waiters with
// ErrSolvePanic instead of killing the process.
func (p *Planner) buildModelGuarded(ctx context.Context, req Request) (m *cost.Model, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.mu.Lock()
			p.stats.Panics++
			p.mu.Unlock()
			m, err = nil, fmt.Errorf("%w: %v", ErrSolvePanic, r)
		}
	}()
	if err := p.cfg.FaultPlan.Fire(ctx, pressure.SiteModel); err != nil {
		return nil, err
	}
	return cost.NewModelWith(ctx, req.G, req.Spec, req.Opts.Policy, cost.BuildOptions{
		PruneEpsilon: req.Opts.PruneEpsilon,
		Store:        p.store,
	})
}

// waitModel is waitSolve's analogue for model-build flights.
func (p *Planner) waitModel(ctx context.Context, fp canon.Fingerprint, fl *modelFlight, leader, countCancel bool) (*cost.Model, time.Duration, error) {
	select {
	case <-fl.done:
		if fl.err != nil {
			return nil, 0, fl.err
		}
		if leader {
			return fl.m, fl.m.BuildTime, nil
		}
		return fl.m, 0, nil
	case <-ctx.Done():
		p.mu.Lock()
		fl.waiters--
		last := fl.waiters == 0
		if last && p.modelFlights[fp] == fl {
			delete(p.modelFlights, fp)
		}
		if countCancel {
			p.stats.Cancelled++
		}
		p.mu.Unlock()
		if last {
			fl.cancel(context.Cause(ctx))
		}
		return nil, 0, context.Cause(ctx)
	}
}

// SolveBatch solves independent requests concurrently across the planner's
// worker pool, sharing cached models and deduplicating identical entries down
// to one solve. The returned slice is aligned with reqs. Cancelling ctx
// cancels every entry: in-flight entries detach (aborting solves no other
// caller wants) and unstarted entries fail immediately with ctx's error.
func (p *Planner) SolveBatch(ctx context.Context, reqs []Request) []BatchItem {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]BatchItem, len(reqs))
	nw := p.cfg.batchWorkers()
	if nw > len(reqs) {
		nw = len(reqs)
	}
	if nw <= 1 {
		for i := range reqs {
			out[i].Result, out[i].Err = p.Solve(ctx, reqs[i])
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i].Result, out[i].Err = p.Solve(ctx, reqs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// Stats returns a snapshot of the planner's counters. The class-store
// counters are read from the store at snapshot time, so they include builds
// currently in flight.
func (p *Planner) Stats() Stats {
	p.mu.Lock()
	st := p.stats
	p.mu.Unlock()
	ss := p.store.Stats()
	st.ClassStoreHits = ss.Hits
	st.ClassStoreMisses = ss.Misses
	st.ClassStoreBytes = ss.Bytes
	st.ClassStoreSavedBytes = ss.SavedBytes
	st.ClassStoreEvictions = ss.Evictions
	gs := p.gate.Stats()
	st.Shed = gs.Shed
	st.Queued = gs.Queued
	st.QueueDepth = gs.QueueDepth
	st.InFlight = gs.InFlight
	return st
}

// ClassStore exposes the planner's cross-request class store for inspection
// (nil when Config.DisableClassStore).
func (p *Planner) ClassStore() *cost.ClassStore { return p.store }

// CacheSizes reports the current model- and result-cache entry counts.
func (p *Planner) CacheSizes() (models, results int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.models.Len(), p.results.Len()
}
