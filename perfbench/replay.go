package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pase"
	"pase/internal/core"
	"pase/internal/fleet"
	"pase/internal/seq"
)

// The traced run replays the timed phase's request sequence in-process,
// through the same public calls pased makes for each request, with one root
// span per request and one child span per layer call. Spans stay in memory
// until the replay ends.

// span is one timed call. parent indexes the same tracer's spans; -1 marks a
// request's root.
type span struct {
	name       string
	parent     int
	start, end time.Time
}

// tracer records the spans of one replay client. A tracer that is off
// records nothing, so the same replay code measures the untraced baseline.
type tracer struct {
	on    bool
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].end = time.Now()
	}
}

// selfTimes returns each span's duration minus the time its direct children
// cover, grouped by span name.
func (t *tracer) selfTimes() map[string][]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end.Sub(s.start)
		}
	}
	out := map[string][]time.Duration{}
	for i, s := range t.spans {
		out[s.name] = append(out[s.name], s.end.Sub(s.start)-child[i])
	}
	return out
}

// wireResponse mirrors pased's solve response (cmd/pased solveResponse), so
// the replay encodes the same document the daemon sends.
type wireResponse struct {
	Strategy         *pase.StrategyDocument `json:"strategy"`
	Method           string                 `json:"method"`
	CostSeconds      float64                `json:"cost_seconds"`
	SearchMs         float64                `json:"search_ms"`
	ModelMs          float64                `json:"model_ms"`
	Cached           bool                   `json:"cached"`
	Fingerprint      string                 `json:"fingerprint"`
	States           int64                  `json:"states"`
	MaxDepSize       int                    `json:"max_dep_size"`
	PrunedConfigs    int                    `json:"pruned_configs"`
	KEffective       int                    `json:"k_effective"`
	VertexClasses    int                    `json:"vertex_classes"`
	EdgeClasses      int                    `json:"edge_classes"`
	TableBytes       int64                  `json:"table_bytes"`
	SharedTableBytes int64                  `json:"shared_table_bytes"`
	ClassStoreHits   int64                  `json:"class_store_hits"`
	ClassStoreBytes  int64                  `json:"class_store_bytes"`
	DeltaResolve     bool                   `json:"delta_resolve"`
	Gap              float64                `json:"gap"`
	Exact            bool                   `json:"exact"`
	BeamWidth        int                    `json:"beam_width"`
	Degraded         bool                   `json:"degraded"`
	DegradeReason    string                 `json:"degrade_reason,omitempty"`
	FleetForwarded   bool                   `json:"fleet_forwarded,omitempty"`
	FleetFallback    bool                   `json:"fleet_fallback,omitempty"`
	FleetOwner       string                 `json:"fleet_owner,omitempty"`
}

// solveTimeout is pased's default -solve-timeout, applied per replayed
// request as the daemon does.
const solveTimeout = 2 * time.Minute

// newReplayPlanner returns a planner configured as pased configures its own
// under default flags.
func newReplayPlanner() *pase.Planner {
	return pase.NewPlanner(pase.PlannerConfig{
		ModelCacheSize:   16,
		ResultCacheSize:  256,
		DefaultBeamWidth: 32,
		DegradeBeamWidth: 16,
	})
}

// lowerWire decodes a solve body and lowers it as pased does, untraced.
func lowerWire(body []byte) (pase.SolveRequest, string, error) {
	var wr wireRequest
	if err := json.Unmarshal(body, &wr); err != nil {
		return pase.SolveRequest{}, "", err
	}
	return lower(&tracer{}, -1, wr)
}

// lower turns a decoded wire request into a planner request, as pased's
// toRequest (registry graph build) or toSpecRequest (spec ingestion) do.
func lower(tr *tracer, root int, wr wireRequest) (pase.SolveRequest, string, error) {
	if len(wr.Spec) > 0 {
		sp := tr.begin("spec.load", root)
		ir, err := pase.LoadSpec(wr.Spec)
		tr.end(sp)
		if err != nil {
			return pase.SolveRequest{}, "", err
		}
		name := ir.Name
		if name == "" {
			name = "spec"
		}
		return ir.Request(pase.Options{Policy: ir.Policy}), name, nil
	}
	sp := tr.begin("models.graph_build", root)
	defer tr.end(sp)
	bm, err := pase.BenchmarkByName(wr.Model)
	if err != nil {
		return pase.SolveRequest{}, "", err
	}
	batch := bm.Batch
	if wr.Batch > 0 {
		batch = wr.Batch
	}
	mach := wr.Machine
	if mach == "" {
		mach = "1080ti"
	}
	spec, err := pase.ParseMachine(mach, wr.GPUs)
	if err != nil {
		return pase.SolveRequest{}, "", err
	}
	return pase.SolveRequest{G: bm.Build(batch), Spec: spec, Opts: pase.Options{Policy: bm.Policy(wr.GPUs)}}, bm.Name, nil
}

// replayer serves replayed requests the way one pased front member does.
type replayer struct {
	pl *pase.Planner
	fc *fleet.Client // nil on a single daemon
	// solved collects core.Solve outcomes of misses, for the per-state rate.
	mu         sync.Mutex
	states     []int64
	solveNs    int64
	tableBytes int64
	respBytes  []float64
}

// solveEntry serves one solve entry and returns the response document (nil
// on a failed request); relayed is a forwarded owner's raw answer.
func (r *replayer) solveEntry(ctx context.Context, tr *tracer, root int, body []byte, wr wireRequest) (*wireResponse, []byte, error) {
	req, name, err := lower(tr, root, wr)
	if err != nil {
		return nil, nil, err
	}
	sp := tr.begin("planner.fingerprint", root)
	fp, err := r.pl.SolveFingerprint(req)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	if r.fc != nil && !r.pl.HasLocal(fp) {
		sp := tr.begin("fleet.route", root)
		out := r.fc.Route(ctx, fp, body)
		tr.end(sp)
		switch out.Decision {
		case fleet.Forwarded:
			if out.Status != 200 {
				return nil, nil, fmt.Errorf("owner answered %d", out.Status)
			}
			return nil, out.Body, nil
		case fleet.Fallback:
			req.FleetFallback = true
		}
	}
	var res *pase.Result
	if r.pl.HasLocal(fp) {
		sp := tr.begin("planner.hit", root)
		res, err = r.pl.Solve(ctx, req)
		tr.end(sp)
	} else {
		res, err = r.miss(ctx, tr, root, req)
	}
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("export.doc", root)
	defer tr.end(sp)
	doc, err := pase.ExportStrategy(name, req.G, res.Strategy, req.Spec.Devices, res.Cost)
	if err != nil {
		return nil, nil, err
	}
	doc.Fingerprint = fp.String()
	doc.Method = res.Method
	doc.PrunedConfigs = res.PrunedConfigs
	doc.KEffective = res.KEffective
	doc.VertexClasses = res.VertexClasses
	doc.EdgeClasses = res.EdgeClasses
	doc.TableBytes = res.TableBytes
	doc.SharedTableBytes = res.SharedTableBytes
	doc.ClassStoreHits = res.ClassStoreHits
	doc.ClassStoreBytes = res.ClassStoreBytes
	doc.Exact = res.Exact
	return &wireResponse{
		Strategy: doc, Method: res.Method, CostSeconds: res.Cost,
		SearchMs: float64(res.SearchTime.Nanoseconds()) / 1e6, ModelMs: float64(res.ModelTime.Nanoseconds()) / 1e6,
		Cached: res.Cached, Fingerprint: fp.String(), States: res.States, MaxDepSize: res.MaxDepSize,
		PrunedConfigs: res.PrunedConfigs, KEffective: res.KEffective, VertexClasses: res.VertexClasses,
		EdgeClasses: res.EdgeClasses, TableBytes: res.TableBytes, SharedTableBytes: res.SharedTableBytes,
		ClassStoreHits: res.ClassStoreHits, ClassStoreBytes: res.ClassStoreBytes, Exact: res.Exact,
		FleetFallback: req.FleetFallback,
	}, nil, nil
}

// miss solves a request the planner has not answered before, split into its
// layers: the cost model (Planner.Model: model cache, class store, table
// build), the vertex ordering, and the DP fill plus back-substitution. The
// result is not cached, so a replayed miss stays a miss.
func (r *replayer) miss(ctx context.Context, tr *tracer, root int, req pase.SolveRequest) (*pase.Result, error) {
	sp := tr.begin("cost.build", root)
	m, err := r.pl.Model(ctx, req.G, req.Spec, req.Opts.Policy)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("seq.generate", root)
	sq := seq.Generate(m.G)
	tr.end(sp)
	sp = tr.begin("core.solve", root)
	t0 := time.Now()
	cr, err := core.Solve(ctx, m, sq, core.Options{})
	ns := time.Since(t0).Nanoseconds()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.states = append(r.states, cr.Stats.States)
	r.solveNs += ns
	r.tableBytes = max(r.tableBytes, m.TableBytes())
	r.mu.Unlock()
	return &pase.Result{
		Strategy: cr.Strategy, Cost: cr.Cost, Method: "dp", States: cr.Stats.States, MaxDepSize: cr.Stats.MaxDepSize,
		PrunedConfigs: cr.Stats.PrunedConfigs, KEffective: cr.Stats.KEffective, VertexClasses: cr.Stats.VertexClasses,
		EdgeClasses: cr.Stats.EdgeClasses, TableBytes: cr.Stats.TableBytes, SharedTableBytes: cr.Stats.SharedTableBytes,
		Exact: true,
	}, nil
}

// serve replays one op, returning whether pased would have answered 200.
func (r *replayer) serve(ctx context.Context, tr *tracer, o *op) bool {
	ctx, cancel := context.WithTimeout(ctx, solveTimeout)
	defer cancel()
	root := tr.begin("request", -1)
	defer tr.end(root)
	var body any
	if o.path == "/v1/batch" {
		var br struct {
			Requests []json.RawMessage `json:"requests"`
		}
		sp := tr.begin("pased.decode", root)
		err := json.Unmarshal(o.body, &br)
		wrs := make([]wireRequest, len(br.Requests))
		for i, raw := range br.Requests {
			if err == nil {
				err = json.Unmarshal(raw, &wrs[i])
			}
		}
		tr.end(sp)
		if err != nil {
			return false
		}
		// pased forwards remote entries concurrently and solves the rest on
		// its batch workers; the replay serves entries one after another.
		results := make([]any, len(wrs))
		for i, wr := range wrs {
			resp, relayed, err := r.solveEntry(ctx, tr, root, br.Requests[i], wr)
			if err != nil {
				return false
			}
			results[i] = resp
			if relayed != nil {
				results[i] = r.relay(tr, root, relayed)
			}
		}
		body = map[string]any{"results": results}
	} else {
		var wr wireRequest
		sp := tr.begin("pased.decode", root)
		err := json.Unmarshal(o.body, &wr)
		tr.end(sp)
		if err != nil {
			return false
		}
		resp, relayed, err := r.solveEntry(ctx, tr, root, o.body, wr)
		if err != nil {
			return false
		}
		body = resp
		if relayed != nil {
			body = r.relay(tr, root, relayed)
		}
	}
	sp := tr.begin("export.encode", root)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(body)
	tr.end(sp)
	if tr.on {
		r.mu.Lock()
		r.respBytes = append(r.respBytes, float64(buf.Len()))
		r.mu.Unlock()
	}
	return err == nil
}

// relay decodes a forwarded owner's answer and marks it, as pased does
// before re-encoding it for the client.
func (r *replayer) relay(tr *tracer, root int, raw []byte) *wireResponse {
	sp := tr.begin("pased.relay_decode", root)
	defer tr.end(sp)
	var resp wireResponse
	if json.Unmarshal(raw, &resp) != nil {
		return nil
	}
	resp.FleetForwarded = true
	return &resp
}

// replay serves ops with the workload's number of concurrent clients and
// returns the median request time. It stops early once limit has passed.
func (r *replayer) replay(ctx context.Context, ops []*op, clients int, traced bool, limit time.Duration) (p50 time.Duration, tracers []*tracer, failed int) {
	var next, fails atomic.Int64
	lats := make([][]time.Duration, clients)
	tracers = make([]*tracer, clients)
	deadline := time.Now().Add(limit)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		tracers[c] = &tracer{on: traced}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				t0 := time.Now()
				if !r.serve(ctx, tracers[c], ops[i]) {
					fails.Add(1)
				}
				lats[c] = append(lats[c], time.Since(t0))
			}
		}()
	}
	wg.Wait()
	var all []float64
	for _, l := range lats {
		for _, d := range l {
			all = append(all, float64(d))
		}
	}
	return time.Duration(median(all)), tracers, int(fails.Load())
}

// layerMetrics accumulates the per-layer metrics of a traced run.
type layerMetrics struct {
	metrics   map[string]metric
	replayP50 float64 // untraced replay median, ms
}

func (l *layerMetrics) set(name string, v float64, unit string) {
	l.metrics[name] = metric{v, unit}
}

// spanMetrics maps span names to the per-layer metric of their median self
// time. A layer the workload never calls reports 0.
var spanMetrics = map[string]string{
	"pased.decode":        "pased.decode_ms",
	"models.graph_build":  "models.graph_build_ms",
	"spec.load":           "spec.load_ms",
	"planner.fingerprint": "planner.fingerprint_ms",
	"planner.hit":         "planner.hit_ms",
	"fleet.route":         "fleet.route_ms",
	"cost.build":          "cost.build_ms",
	"seq.generate":        "seq.generate_ms",
	"core.solve":          "core.solve_ms",
	"export.doc":          "export.doc_ms",
	"export.encode":       "export.encode_ms",
}

// traceLayers replays the sent sequence twice — untraced, then traced — on
// planners warmed as the front daemon was, and derives the span metrics.
func traceLayers(ctx context.Context, w *workload, e *env, sent []*op, fps map[*target]pase.Fingerprint, limit time.Duration) (*layerMetrics, error) {
	newReplayer := func() (*replayer, error) {
		r := &replayer{pl: newReplayPlanner()}
		if w.fleet {
			fc, err := fleet.New(fleet.Config{Self: e.front.url, Peers: []string{e.daemons[1].url}, ProbeInterval: -1})
			if err != nil {
				return nil, err
			}
			r.fc = fc
		}
		// Warm what the front daemon answers from its own cache; keys another
		// member owns stay cold here and are routed to it.
		for _, t := range w.prewarm {
			if w.fleet && fleet.RendezvousOwner(r.fc.Members(), fps[t]) != e.front.url {
				continue
			}
			req, _, err := lowerWire(t.body)
			if err != nil {
				return nil, err
			}
			if _, err := r.pl.Solve(ctx, req); err != nil {
				return nil, fmt.Errorf("replay pre-warm %s: %w", t.key, err)
			}
		}
		return r, nil
	}
	base, err := newReplayer()
	if err != nil {
		return nil, err
	}
	// A cold workload needs a fresh planner per replay, or the second would
	// find the first one's models cached; warm replays share one.
	traced := base
	if len(w.prewarm) == 0 {
		if traced, err = newReplayer(); err != nil {
			return nil, err
		}
	}
	untracedP50, _, _ := base.replay(ctx, sent, w.clients, false, limit)
	tracedP50, tracers, failed := traced.replay(ctx, sent, w.clients, true, limit)
	fmt.Fprintf(os.Stderr, "replay: %d ops, %d failed; p50 untraced %.3f ms, traced %.3f ms\n",
		len(sent), failed, ms(untracedP50), ms(tracedP50))

	l := &layerMetrics{metrics: map[string]metric{}, replayP50: ms(untracedP50)}
	self := map[string][]float64{}
	for _, tr := range tracers {
		for name, ds := range tr.selfTimes() {
			for _, d := range ds {
				self[name] = append(self[name], ms(d))
			}
		}
	}
	for name, m := range spanMetrics {
		v := 0.0
		if xs := self[name]; len(xs) > 0 {
			v = median(xs)
		}
		l.set(m, v, "ms")
	}
	l.set("trace.overhead_ms", ms(tracedP50)-ms(untracedP50), "ms")

	var reqKB []float64
	for _, o := range sent {
		reqKB = append(reqKB, float64(len(o.body))/1024)
	}
	l.set("spec.request_kb", median(reqKB), "KiB")
	l.set("export.response_kb", median(traced.respBytes)/1024, "KiB")
	var states []float64
	var totalStates int64
	for _, s := range traced.states {
		states = append(states, float64(s))
		totalStates += s
	}
	l.set("core.states", 0, "count")
	l.set("core.ns_per_state", 0, "ns")
	if totalStates > 0 {
		l.set("core.states", median(states), "count")
		l.set("core.ns_per_state", float64(traced.solveNs)/float64(totalStates), "ns")
	}
	l.set("cost.table_mb", float64(traced.tableBytes)/1e6, "MB")
	if base.fc != nil {
		base.fc.Close()
	}
	if traced.fc != nil && traced != base {
		traced.fc.Close()
	}
	return l, nil
}

// counters derives the ratio and count metrics from the daemons' /v1/stats
// deltas over the timed phase, summed over members.
func (l *layerMetrics) counters(ss []sample, before, after []daemonStats) {
	var hits, misses, mhits, mmisses, solves, deltas, evictions, cshits, csmisses int64
	for i := range before {
		b, a := before[i].Planner, after[i].Planner
		hits += a.ResultHits - b.ResultHits
		misses += a.ResultMisses - b.ResultMisses
		mhits += a.ModelHits - b.ModelHits
		mmisses += a.ModelMisses - b.ModelMisses
		solves += a.Solves - b.Solves
		deltas += a.DeltaResolves - b.DeltaResolves
		evictions += (a.ResultEvictions - b.ResultEvictions) + (a.ModelEvictions - b.ModelEvictions)
		cshits += a.ClassStoreHits - b.ClassStoreHits
		csmisses += a.ClassStoreMisses - b.ClassStoreMisses
	}
	entries := 0
	for _, s := range ss {
		entries += len(s.op.items)
	}
	f0, f1 := before[0].Fleet, after[0].Fleet
	l.set("planner.result_hit_ratio", ratio(hits, hits+misses), "ratio")
	l.set("planner.model_hit_ratio", ratio(mhits, mhits+mmisses), "ratio")
	l.set("planner.delta_resolve_ratio", ratio(deltas, solves), "ratio")
	l.set("planner.evictions", float64(evictions), "count")
	l.set("cost.class_store_hit_ratio", ratio(cshits, cshits+csmisses), "ratio")
	l.set("fleet.forward_share", ratio(f1.Forwards-f0.Forwards, int64(entries)), "ratio")
	l.set("fleet.retries", float64(f1.Retries-f0.Retries), "count")
	l.set("fleet.fallbacks", float64(f1.Fallbacks-f0.Fallbacks), "count")
}

// ratio is num/den, 0 when nothing was counted.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
