package planner

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"pase/internal/core"
	"pase/internal/cost"
	"pase/internal/graph"
	"pase/internal/machine"
	"pase/internal/models"
	"pase/internal/seq"
)

// directSolve runs the raw pipeline (no planner) as the oracle.
func directSolve(t *testing.T, req Request) *core.Result {
	t.Helper()
	m, err := cost.NewModel(req.G, req.Spec, req.Opts.Policy)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Solve(context.Background(), m, seq.Generate(m.G), core.Options{
		MaxTableEntries: req.Opts.MaxTableEntries,
		Workers:         req.Opts.Workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func alexReq(p int) Request {
	return Request{G: models.AlexNet(128), Spec: machine.GTX1080Ti(p)}
}

func rnnReq(p int) Request {
	return Request{G: models.RNNLM(64), Spec: machine.GTX1080Ti(p)}
}

func TestConcurrentRequestsMatchDirectFindWithOneSolvePerFingerprint(t *testing.T) {
	// The satellite acceptance: N goroutines issuing identical + distinct
	// requests must produce byte-identical strategies to the direct
	// pipeline, with exactly one underlying solve per unique fingerprint.
	uniques := []Request{alexReq(8), alexReq(16), rnnReq(8)}
	oracles := make([]*core.Result, len(uniques))
	for i, req := range uniques {
		oracles[i] = directSolve(t, req)
	}

	p := New(Config{})
	const perUnique = 8
	var wg sync.WaitGroup
	results := make([]*Result, len(uniques)*perUnique)
	errs := make([]error, len(results))
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Re-build the graph per goroutine: identical content from a
			// different construction must still dedup onto one solve.
			u := i % len(uniques)
			var req Request
			switch u {
			case 0:
				req = alexReq(8)
			case 1:
				req = alexReq(16)
			default:
				req = rnnReq(8)
			}
			results[i], errs[i] = p.Solve(context.Background(), req)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i, res := range results {
		want := oracles[i%len(uniques)]
		if !reflect.DeepEqual(res.Strategy, want.Strategy) {
			t.Fatalf("request %d: strategy differs from direct solve", i)
		}
		if res.Cost != want.Cost {
			t.Fatalf("request %d: cost %v != direct %v", i, res.Cost, want.Cost)
		}
	}

	st := p.Stats()
	if st.Solves != int64(len(uniques)) {
		t.Fatalf("Solves = %d, want exactly %d (one per unique fingerprint)", st.Solves, len(uniques))
	}
	if st.ModelBuilds != int64(len(uniques)) {
		t.Fatalf("ModelBuilds = %d, want %d", st.ModelBuilds, len(uniques))
	}
	served := st.ResultHits + st.DedupWaits + st.ResultMisses
	if served != int64(len(results)) {
		t.Fatalf("hits(%d) + dedup(%d) + misses(%d) = %d, want %d requests",
			st.ResultHits, st.DedupWaits, st.ResultMisses, served, len(results))
	}
}

func TestCacheHitPerformsNoNewWork(t *testing.T) {
	p := New(Config{})
	first, err := p.Solve(context.Background(), alexReq(8))
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first solve reported Cached")
	}
	if first.ModelTime <= 0 {
		t.Fatal("first solve reported no model-build time")
	}
	before := p.Stats()
	second, err := p.Solve(context.Background(), alexReq(8))
	if err != nil {
		t.Fatal(err)
	}
	after := p.Stats()
	if !second.Cached {
		t.Fatal("second identical request not served from cache")
	}
	if second.ModelTime != 0 {
		t.Fatal("cache hit reported model-build time")
	}
	if after.Solves != before.Solves || after.ModelBuilds != before.ModelBuilds {
		t.Fatalf("cache hit ran new work: solves %d→%d, builds %d→%d",
			before.Solves, after.Solves, before.ModelBuilds, after.ModelBuilds)
	}
	if after.ResultHits != before.ResultHits+1 {
		t.Fatalf("ResultHits %d→%d, want +1", before.ResultHits, after.ResultHits)
	}
	if !reflect.DeepEqual(first.Strategy, second.Strategy) || first.Cost != second.Cost {
		t.Fatal("cached result differs from original")
	}
	if first.Fingerprint == "" || first.Fingerprint != second.Fingerprint {
		t.Fatalf("fingerprints disagree: %q vs %q", first.Fingerprint, second.Fingerprint)
	}
}

func TestResultsAreIndependentCopies(t *testing.T) {
	p := New(Config{})
	a, err := p.Solve(context.Background(), alexReq(8))
	if err != nil {
		t.Fatal(err)
	}
	a.Strategy[0][0] = -99 // caller mutates their copy
	b, err := p.Solve(context.Background(), alexReq(8))
	if err != nil {
		t.Fatal(err)
	}
	if b.Strategy[0][0] == -99 {
		t.Fatal("cached strategy aliases a previously returned one")
	}
}

func TestLRUEvictionIsDeterministic(t *testing.T) {
	// Tiny budget: 2 results, 1 model. Requests A, B, C have distinct
	// fingerprints; after C the least-recently-used result (A) must be the
	// one evicted, so A re-solves while B and C stay hits.
	p := New(Config{ResultCacheSize: 2, ModelCacheSize: 1})
	reqA, reqB, reqC := alexReq(8), alexReq(16), rnnReq(8)
	for _, r := range []Request{reqA, reqB, reqC} {
		if _, err := p.Solve(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Solves != 3 {
		t.Fatalf("Solves = %d, want 3", st.Solves)
	}
	if st.ResultEvictions != 1 {
		t.Fatalf("ResultEvictions = %d, want 1 (A evicted by C)", st.ResultEvictions)
	}
	if st.ModelEvictions != 2 {
		t.Fatalf("ModelEvictions = %d, want 2 (model cache of 1)", st.ModelEvictions)
	}
	if models, results := p.CacheSizes(); models != 1 || results != 2 {
		t.Fatalf("cache sizes (%d, %d), want (1, 2)", models, results)
	}

	// B then C: hits, no new solves. Their recency order is now B < C.
	for _, r := range []Request{reqB, reqC} {
		res, err := p.Solve(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatal("expected cache hit")
		}
	}
	if st := p.Stats(); st.Solves != 3 {
		t.Fatalf("hits re-solved: Solves = %d", st.Solves)
	}
	// A was evicted: requesting it re-solves and evicts B (LRU), not C.
	if res, err := p.Solve(context.Background(), reqA); err != nil || res.Cached {
		t.Fatalf("A should re-solve (err=%v, cached=%v)", err, res.Cached)
	}
	if res, err := p.Solve(context.Background(), reqC); err != nil || !res.Cached {
		t.Fatalf("C should still be cached (err=%v)", err)
	}
	if res, err := p.Solve(context.Background(), reqB); err != nil || res.Cached {
		t.Fatalf("B should have been evicted by A (err=%v, cached=%v)", err, res.Cached)
	}
	if st := p.Stats(); st.Solves != 5 {
		t.Fatalf("Solves = %d, want 5 (3 cold + A and B re-solves)", st.Solves)
	}
}

func TestFingerprintNormalization(t *testing.T) {
	base := alexReq(8)

	// Workers is excluded: byte-identical results at any worker count.
	w1, w8 := base, base
	w1.Opts.Workers = 1
	w8.Opts.Workers = 8
	_, fpW1 := Fingerprints(w1)
	_, fpW8 := Fingerprints(w8)
	if fpW1 != fpW8 {
		t.Error("Workers changed the solve fingerprint")
	}

	// MaxTableEntries zero and the explicit default are the same request.
	explicit := base
	explicit.Opts.MaxTableEntries = core.DefaultMaxTableEntries
	_, a := Fingerprints(base)
	_, b := Fingerprints(explicit)
	if a != b {
		t.Error("default MaxTableEntries normalization failed")
	}

	// BreadthFirst and the memory budget are part of the solve identity but
	// not the model identity.
	bf := base
	bf.Opts.BreadthFirst = true
	mA, sA := Fingerprints(base)
	mB, sB := Fingerprints(bf)
	if mA != mB {
		t.Error("BreadthFirst changed the model fingerprint")
	}
	if sA == sB {
		t.Error("BreadthFirst did not change the solve fingerprint")
	}

	// Machine Name is cosmetic; numbers are not.
	named := base
	named.Spec.Name = "renamed"
	if _, b := Fingerprints(named); sA != b {
		t.Error("machine name changed the fingerprint")
	}
	faster := base
	faster.Spec.PeakFLOPS *= 2
	if _, b := Fingerprints(faster); sA == b {
		t.Error("machine FLOPS did not change the fingerprint")
	}
}

func TestPruneEpsilonFingerprint(t *testing.T) {
	base := alexReq(8)

	// PruneEpsilon zero is excluded from the fingerprint: exact dedup
	// preserves results byte for byte, so default requests keep the
	// fingerprints they had before the knob existed.
	zero := base
	zero.Opts.PruneEpsilon = 0
	mA, sA := Fingerprints(base)
	mB, sB := Fingerprints(zero)
	if mA != mB || sA != sB {
		t.Error("PruneEpsilon=0 changed a fingerprint")
	}

	// A non-zero epsilon changes the built model, so it must change both
	// the model and the solve fingerprint, and distinct epsilons must not
	// collide.
	eps := base
	eps.Opts.PruneEpsilon = 0.05
	mC, sC := Fingerprints(eps)
	if mC == mA {
		t.Error("PruneEpsilon>0 did not change the model fingerprint")
	}
	if sC == sA {
		t.Error("PruneEpsilon>0 did not change the solve fingerprint")
	}
	eps2 := base
	eps2.Opts.PruneEpsilon = 0.1
	if _, s := Fingerprints(eps2); s == sC {
		t.Error("distinct epsilons collided")
	}
}

func TestDefaultPruneEpsilonResolvesIntoFingerprintAndSolve(t *testing.T) {
	req := alexReq(8)

	exact := New(Config{})
	rExact, err := exact.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	aggr := New(Config{DefaultPruneEpsilon: 0.05})
	rAggr, err := aggr.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// The planner default is resolved into the request before
	// fingerprinting, so the two planners must not share a cache identity.
	if rExact.Fingerprint == rAggr.Fingerprint {
		t.Error("planner DefaultPruneEpsilon not reflected in the fingerprint")
	}
	// Epsilon pruning keeps the cost within the (1+eps)² bound and a
	// per-request epsilon overrides the planner default.
	if rAggr.Cost > rExact.Cost*1.05*1.05*(1+1e-12) || rAggr.Cost < rExact.Cost*(1-1e-9) {
		t.Errorf("epsilon-pruned cost %v outside [optimum, (1+eps)²·optimum] of %v", rAggr.Cost, rExact.Cost)
	}
	over := req
	over.Opts.PruneEpsilon = 0.05
	rOver, err := exact.Solve(context.Background(), over)
	if err != nil {
		t.Fatal(err)
	}
	if rOver.Fingerprint != rAggr.Fingerprint {
		t.Error("explicit PruneEpsilon and equal planner default disagree on fingerprint")
	}
	// The reported guarantee matches the effective epsilon: exact at zero,
	// the (1+ε)² slack otherwise — whether ε came from the planner default
	// or the request.
	if !rExact.Exact || rExact.Gap != 0 {
		t.Errorf("eps=0 result: exact %v gap %v, want exact with gap 0", rExact.Exact, rExact.Gap)
	}
	wantGap := 1.05*1.05 - 1
	for label, r := range map[string]*Result{"planner default": rAggr, "request": rOver} {
		if r.Exact || math.Abs(r.Gap-wantGap) > 1e-12 {
			t.Errorf("%s eps=0.05 result: exact %v gap %v, want inexact with gap %v", label, r.Exact, r.Gap, wantGap)
		}
	}
	// A negative request epsilon opts out of the planner default and is
	// exact again.
	optOut := req
	optOut.Opts.PruneEpsilon = -1
	rOut, err := aggr.Solve(context.Background(), optOut)
	if err != nil {
		t.Fatal(err)
	}
	if !rOut.Exact || rOut.Gap != 0 || rOut.Fingerprint != rExact.Fingerprint {
		t.Errorf("eps<0 opt-out: exact %v gap %v, fingerprint match %v; want the exact result", rOut.Exact, rOut.Gap, rOut.Fingerprint == rExact.Fingerprint)
	}
	if st := exact.Stats(); st.PrunedConfigs <= 0 {
		t.Errorf("planner stats PrunedConfigs = %d, want > 0 (AlexNet p=8 dedup fires)", st.PrunedConfigs)
	}
}

// mutateNode multiplies one named node's FLOPs density — a content-only
// delta: topology, iteration spaces, and tensor maps are untouched, so the
// config space (and every DP table shape) is preserved.
func mutateNode(t *testing.T, g *graph.Graph, name string, factor float64) {
	t.Helper()
	for i := range g.Nodes {
		if g.Nodes[i].Name == name {
			g.Nodes[i].FlopsPerPoint *= factor
			return
		}
	}
	t.Fatalf("no node named %q", name)
}

func requireSameStrategy(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Cost != want.Cost {
		t.Fatalf("%s: cost %v != oracle %v", label, got.Cost, want.Cost)
	}
	if len(got.Strategy) != len(want.Strategy) {
		t.Fatalf("%s: strategy length %d != oracle %d", label, len(got.Strategy), len(want.Strategy))
	}
	for v := range want.Strategy {
		if !got.Strategy[v].Equal(want.Strategy[v]) {
			t.Fatalf("%s node %d: strategy %v != oracle %v", label, v, got.Strategy[v], want.Strategy[v])
		}
	}
}

// The acceptance property for the class store: a warm sweep — the same
// model builds the planner has already served once — performs ZERO
// redundant class builds. Every reference hits; hits equal total references
// minus the distinct classes, which were each built exactly once, in the
// cold pass.
func TestWarmSweepZeroRedundantClassBuilds(t *testing.T) {
	bm, err := models.ByName("transformer")
	if err != nil {
		t.Fatal(err)
	}
	g := bm.Build(bm.Batch)
	// ModelCacheSize 1 forces every sweep point to rebuild its model: the
	// warm pass exercises the class store, not the model cache.
	pl := New(Config{ModelCacheSize: 1})
	sweep := func() {
		for _, p := range []int{2, 4, 8, 16, 32} {
			if _, err := pl.Model(context.Background(), g, machine.GTX1080Ti(p), bm.Policy(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep()
	cold := pl.Stats()
	coldRefs := cold.ClassStoreHits + cold.ClassStoreMisses
	if cold.ClassStoreMisses == 0 {
		t.Fatalf("cold sweep built no classes through the store: %+v", cold)
	}
	sweep()
	warm := pl.Stats()
	if d := warm.ClassStoreMisses - cold.ClassStoreMisses; d != 0 {
		t.Errorf("warm sweep rebuilt %d classes, want 0 redundant class builds", d)
	}
	if d := warm.ClassStoreHits - cold.ClassStoreHits; d != coldRefs {
		t.Errorf("warm sweep hit %d references, want all %d the cold sweep made", d, coldRefs)
	}
	// hits = total references − distinct classes, with each distinct class
	// built exactly once ever.
	total := warm.ClassStoreHits + warm.ClassStoreMisses
	if warm.ClassStoreHits != total-warm.ClassStoreMisses {
		t.Errorf("hits %d != references %d − distinct classes %d", warm.ClassStoreHits, total, warm.ClassStoreMisses)
	}
	if warm.ClassStoreEvictions != 0 {
		t.Errorf("store evicted %d entries under the default budget", warm.ClassStoreEvictions)
	}
	if warm.ClassStoreSavedBytes <= 0 {
		t.Errorf("warm sweep saved %d bytes, want > 0", warm.ClassStoreSavedBytes)
	}
}

// A what-if edit to one layer re-solves from scratch, yet its model build
// still resolves every class the edit left alone from the class store — and
// the result is byte-identical (cost AND strategy) to a store-less oracle
// planner's, at every worker count.
func TestEditedGraphReusesClassStoreAndMatchesOracle(t *testing.T) {
	bm, err := models.ByName("transformer")
	if err != nil {
		t.Fatal(err)
	}
	const p = 8
	for _, workers := range []int{1, 4, 0} {
		g1 := bm.Build(bm.Batch)
		g2 := bm.Build(bm.Batch)
		mutateNode(t, g2, "enc0_self_wo", 1.5)
		opts := Options{Policy: bm.Policy(p), Workers: workers}
		spec := machine.GTX1080Ti(p)

		pl := New(Config{})
		if _, err := pl.Solve(context.Background(), Request{G: g1, Spec: spec, Opts: opts}); err != nil {
			t.Fatal(err)
		}
		res, err := pl.Solve(context.Background(), Request{G: g2, Spec: spec, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached || res.ClassStoreHits == 0 {
			t.Errorf("workers %d: edited graph cached %v, class-store hits %d; want a fresh solve over stored classes",
				workers, res.Cached, res.ClassStoreHits)
		}

		oraclePl := New(Config{DisableClassStore: true})
		oracle, err := oraclePl.Solve(context.Background(), Request{G: g2, Spec: spec, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		requireSameStrategy(t, "edited vs oracle", res, oracle)
	}
}
