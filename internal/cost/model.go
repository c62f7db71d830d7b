package cost

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pase/internal/graph"
	"pase/internal/itspace"
	"pase/internal/machine"
)

// IncEdge describes one directed edge incident to a node, from that node's
// point of view.
type IncEdge struct {
	// E is the model edge index (into Edges / EdgeCost).
	E int
	// Other is the node ID of the opposite endpoint.
	Other int
	// VIsU is true when the node is the edge's producer.
	VIsU bool
	// Self marks a self-loop; it appears once in the node's incidence list.
	Self bool
}

// Model binds a computation graph to a machine spec and precomputes every
// layer and edge cost the strategy search needs. The dynamic program, the
// MCMC search, and the exhaustive baselines all evaluate strategies through
// one Model, so they rank candidates under the identical cost function.
//
// All cost tables are built eagerly (and concurrently, across a
// GOMAXPROCS-sized worker pool) at NewModel time, so a finished Model is
// read-only and safe for concurrent use by any number of goroutines.
//
// Costs are in seconds of estimated per-step time (pricing.go): the sum of
// a strategy's layer and edge costs equals the simulator's step time minus
// the constant framework overhead, so cost-model rankings carry over to
// simulated throughput exactly.
type Model struct {
	G    *graph.Graph
	Spec machine.Spec
	// Policy controls configuration enumeration.
	Policy itspace.EnumPolicy
	// BuildTime is how long NewModel spent enumerating configurations and
	// building the cost tables, so callers can report model-construction cost
	// separately from DP-solve cost (and cache layers can show what a model
	// cache hit saves).
	BuildTime time.Duration

	r    float64
	cfgs [][]itspace.Config // per node, post-pruning (the interned ID space)
	tl   [][]float64        // [node][cfgID], eager
	tx   [][]float64        // [edge][cu*Kv+cv], eager, interned IDs
	txT  [][]float64        // [edge][cv*Ku+cu], transpose of tx
	txKv []int              // row stride of tx: the consumer's config count

	// Config-space reduction state (prune.go): the full enumeration before
	// pruning, the full-index → interned-ID map, and how many configurations
	// pruning removed, and the epsilon-dominance slack the build applied.
	// fullCfgs/repOf are nil when pruning is disabled.
	fullCfgs [][]itspace.Config
	repOf    [][]int32
	pruned   int
	pruneEps float64

	// Structural-sharing state (intern.go): distinct vertex/edge class
	// counts, the resident bytes of the (aliased) cost tables, and the bytes
	// sharing saved versus a per-occurrence build.
	vertexClasses    int
	edgeClasses      int
	tableBytes       int64
	sharedTableBytes int64

	// Cross-request sharing state (store.go): this build's ClassStore
	// traffic.
	classStoreHits  int64
	classStoreMiss  int64
	classStoreBytes int64

	edges   [][2]int
	edgeIdx map[[2]int]int
	inSlot  []int       // input slot of v fed by each edge
	inc     [][]IncEdge // per-node incident edges
}

// parallelFor runs f(i) for every i in [0, n) across a GOMAXPROCS-sized
// worker pool. Each index is handled exactly once; f must only write state
// owned by its index. Cancellation is polled between tasks — one task (one
// node's enumeration, one edge's table) is the unit of promptness — and the
// pool always drains before returning, so a cancelled build leaks no
// goroutines. Callers observe cancellation via ctx.Err() afterwards.
func parallelFor(ctx context.Context, n int, f func(i int)) {
	done := ctx.Done()
	nw := runtime.GOMAXPROCS(0)
	if nw > n {
		nw = n
	}
	if nw <= 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// NewModel enumerates configurations and precomputes all layer and edge cost
// tables for the graph on the given machine, parallelizing the per-node and
// per-edge table builds across a worker pool. Exact duplicate-signature
// dedup (prune.go) runs by default; NewModelWith exposes the epsilon knob,
// the pruning kill switch, and build cancellation.
func NewModel(g *graph.Graph, spec machine.Spec, pol itspace.EnumPolicy) (*Model, error) {
	return NewModelWith(context.Background(), g, spec, pol, BuildOptions{})
}

// NewModelWith is NewModel under explicit build options and a cancellable
// context. The build worker pool polls ctx between tasks (per node, per
// edge), so cancelling mid-build returns ctx's error promptly — in coarse
// per-table steps — without leaking pool goroutines.
func NewModelWith(ctx context.Context, g *graph.Graph, spec machine.Spec, pol itspace.EnumPolicy, bo BuildOptions) (*Model, error) {
	start := time.Now()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		G:       g,
		Spec:    spec,
		Policy:  pol,
		r:       spec.R(),
		cfgs:    make([][]itspace.Config, g.Len()),
		tl:      make([][]float64, g.Len()),
		edgeIdx: map[[2]int]int{},
	}
	m.edges = g.Edges()
	m.tx = make([][]float64, len(m.edges))
	m.txT = make([][]float64, len(m.edges))
	m.txKv = make([]int, len(m.edges))
	m.inSlot = make([]int, len(m.edges))
	m.inc = make([][]IncEdge, g.Len())
	for i, e := range m.edges {
		m.edgeIdx[e] = i
		m.inSlot[i] = g.InputIndex(e[0], e[1])
		if e[0] == e[1] {
			m.inc[e[0]] = append(m.inc[e[0]], IncEdge{E: i, Other: e[0], Self: true})
		} else {
			m.inc[e[0]] = append(m.inc[e[0]], IncEdge{E: i, Other: e[1], VIsU: true})
			m.inc[e[1]] = append(m.inc[e[1]], IncEdge{E: i, Other: e[0]})
		}
	}
	// Phase 0: structural sharing plan (intern.go). Nodes with identical
	// cost-relevant content form one vertex class; edges with identical
	// endpoint classes and input slot form one edge class. Every table below
	// is built once per class and aliased to all members — byte-identical to
	// the per-occurrence build the DisableInterning oracle runs, minus the
	// repeated work and memory.
	plan := m.buildInternPlan()
	if bo.DisableInterning {
		plan = singletonPlan(g.Len(), len(m.edges))
	}
	// A ClassStore only keys by class fingerprints, which a singleton plan
	// does not compute; a DisableInterning build therefore never consults it.
	store := bo.Store
	if plan.vFPs == nil {
		store = nil
	}
	var storeHits, storeMiss, storeBytes atomic.Int64
	// Phase 1: configuration enumeration and layer-cost tables, one vertex
	// class per pool task — resolved from the planner's ClassStore when one
	// is attached, so a class already built for any earlier model (a prior
	// sweep point, a concurrent near-duplicate request) is aliased instead of
	// re-enumerated.
	nodeErr := make([]error, len(plan.vReps))
	classCfgs := make([][]itspace.Config, len(plan.vReps))
	classTL := make([][]float64, len(plan.vReps))
	parallelFor(ctx, len(plan.vReps), func(ci int) {
		build := func() (any, int64, error) {
			n := g.Nodes[plan.vReps[ci]]
			cs := itspace.Enumerate(n.Space, spec.Devices, pol)
			if len(cs) == 0 {
				return nil, 0, fmt.Errorf("cost: node %d (%s) admits no configuration", n.ID, n.Name)
			}
			tl := make([]float64, len(cs))
			for i, c := range cs {
				tl[i] = TLSeconds(n, c, spec)
			}
			return vertexTables{cfgs: cs, tl: tl}, configBytes(cs) + int64(len(tl))*8, nil
		}
		if store == nil {
			val, _, err := build()
			if err != nil {
				nodeErr[ci] = err
				return
			}
			vt := val.(vertexTables)
			classCfgs[ci], classTL[ci] = vt.cfgs, vt.tl
			return
		}
		val, hit, bytes, err := store.getOrBuild(plan.vFPs[ci], build)
		if err != nil {
			nodeErr[ci] = err
			return
		}
		vt := val.(vertexTables)
		classCfgs[ci], classTL[ci] = vt.cfgs, vt.tl
		if hit {
			storeHits.Add(1)
			storeBytes.Add(bytes)
		} else {
			storeMiss.Add(1)
		}
	})
	if err := context.Cause(ctx); err != nil {
		return nil, fmt.Errorf("cost: model build cancelled: %w", err)
	}
	for _, err := range nodeErr {
		if err != nil {
			return nil, err
		}
	}
	for id := range m.cfgs {
		m.cfgs[id] = classCfgs[plan.vClass[id]]
		m.tl[id] = classTL[plan.vClass[id]]
	}
	for i, e := range m.edges {
		m.txKv[i] = len(m.cfgs[e[1]])
	}
	// Phase 2: every TX table, one edge class per pool task. The solver and
	// the MCMC search then only read plain slices — no lazy memoization left
	// to race on, and no per-vertex materialization pass in the DP. Per
	// edge, the tensor extents are fixed and each side's granularity vector
	// depends only on its own configuration, so they are computed once per
	// row/column instead of per cell; the Ku×Kv fill is then pure arithmetic
	// with no allocation.
	txBW := GroupBW(spec, float64(spec.Devices))
	classTab := make([][]float64, len(plan.eReps))
	classTabT := make([][]float64, len(plan.eReps))
	parallelFor(ctx, len(plan.eReps), func(ci int) {
		build := func() (any, int64, error) {
			e := plan.eReps[ci]
			u, v := m.edges[e][0], m.edges[e][1]
			nu, nv := g.Nodes[u], g.Nodes[v]
			out, in := nu.Output, nv.Inputs[m.inSlot[e]]
			ku, kv := len(m.cfgs[u]), m.txKv[e]
			nd := len(out.Map)
			s := make([]float64, nd)
			for t := range out.Map {
				s[t] = float64(out.Extent(nu.Space, t))
			}
			gus := make([]float64, ku*nd)
			for cu := 0; cu < ku; cu++ {
				granularitiesInto(gus[cu*nd:cu*nd+nd], out, nu.Space, m.cfgs[u][cu], s)
			}
			gvs := make([]float64, kv*nd)
			for cv := 0; cv < kv; cv++ {
				granularitiesInto(gvs[cv*nd:cv*nd+nd], in, nv.Space, m.cfgs[v][cv], s)
			}
			scale := out.EffScale()
			tab := make([]float64, ku*kv)
			tabT := make([]float64, ku*kv)
			for cu := 0; cu < ku; cu++ {
				gu := gus[cu*nd : cu*nd+nd]
				for cv := 0; cv < kv; cv++ {
					c := 0.0
					if bytes := txVolumeBytes(s, gu, gvs[cv*nd:cv*nd+nd], scale); bytes > 0 {
						c = bytes/txBW + spec.LatencySec
					}
					tab[cu*kv+cv] = c
					tabT[cv*ku+cu] = c
				}
			}
			return edgeTables{tab: tab, tabT: tabT}, int64(len(tab)) * 16, nil
		}
		if store == nil {
			val, _, _ := build()
			et := val.(edgeTables)
			classTab[ci], classTabT[ci] = et.tab, et.tabT
			return
		}
		val, hit, bytes, _ := store.getOrBuild(plan.eFPs[ci], build)
		et := val.(edgeTables)
		classTab[ci], classTabT[ci] = et.tab, et.tabT
		if hit {
			storeHits.Add(1)
			storeBytes.Add(bytes)
		} else {
			storeMiss.Add(1)
		}
	})
	if err := context.Cause(ctx); err != nil {
		return nil, fmt.Errorf("cost: model build cancelled: %w", err)
	}
	for e := range m.edges {
		m.tx[e] = classTab[plan.eClass[e]]
		m.txT[e] = classTabT[plan.eClass[e]]
	}
	// Phase 3: config-space reduction (prune.go) — exact dedup always,
	// epsilon dominance when requested — followed by table compaction onto
	// the surviving interned IDs. Both run per class: members of a prune
	// class have byte-identical cost signatures, so they keep the same
	// survivors and share the compacted tables.
	if !bo.DisablePruning {
		m.pruneEps = max(bo.PruneEpsilon, 0)
		m.pruneConfigs(ctx, bo.PruneEpsilon, plan, store, &storeHits, &storeMiss, &storeBytes)
		if err := context.Cause(ctx); err != nil {
			return nil, fmt.Errorf("cost: model build cancelled: %w", err)
		}
	}
	m.classStoreHits = storeHits.Load()
	m.classStoreMiss = storeMiss.Load()
	m.classStoreBytes = storeBytes.Load()
	m.computeTableStats(plan)
	m.BuildTime = time.Since(start)
	return m, nil
}

// P returns the device count.
func (m *Model) P() int { return m.Spec.Devices }

// R returns the FLOP-to-byte ratio used by the model.
func (m *Model) R() float64 { return m.r }

// Configs returns the (post-pruning) configuration list of node v: index i
// is interned config ID i. Do not mutate.
func (m *Model) Configs(v int) []itspace.Config { return m.cfgs[v] }

// K returns the number of surviving configurations of node v — the size of
// the interned ID space the DP iterates over.
func (m *Model) K(v int) int { return len(m.cfgs[v]) }

// KFull returns the number of configurations node v enumerated before
// config-space reduction.
func (m *Model) KFull(v int) int {
	if m.fullCfgs == nil {
		return len(m.cfgs[v])
	}
	return len(m.fullCfgs[v])
}

// MaxK returns the paper's K: the maximum enumerated configuration count
// over all nodes, before config-space reduction.
func (m *Model) MaxK() int {
	k := 0
	for v := range m.cfgs {
		if kv := m.KFull(v); kv > k {
			k = kv
		}
	}
	return k
}

// MaxKEffective returns the maximum surviving configuration count over all
// nodes — the K the DP actually pays for.
func (m *Model) MaxKEffective() int {
	k := 0
	for v := range m.cfgs {
		if len(m.cfgs[v]) > k {
			k = len(m.cfgs[v])
		}
	}
	return k
}

// PrunedConfigs returns how many candidate configurations config-space
// reduction removed across all nodes.
func (m *Model) PrunedConfigs() int { return m.pruned }

// PruneEpsilon returns the epsilon-dominance slack the build applied (zero
// for an exact build): the model's optimum is within (1+ε)² of the unpruned
// optimum.
func (m *Model) PruneEpsilon() float64 { return m.pruneEps }

// IndexOf returns the interned config ID of cfg within node v, or -1. A
// configuration removed by pruning resolves to the ID of its surviving
// representative (identical costs under exact dedup; at least as good on
// every signature entry, up to the epsilon slack, under dominance pruning).
func (m *Model) IndexOf(v int, cfg itspace.Config) int {
	if m.fullCfgs == nil {
		for i, c := range m.cfgs[v] {
			if c.Equal(cfg) {
				return i
			}
		}
		return -1
	}
	for i, c := range m.fullCfgs[v] {
		if c.Equal(cfg) {
			return int(m.repOf[v][i])
		}
	}
	return -1
}

// TL returns the memoized layer cost of node v under its ci-th configuration.
func (m *Model) TL(v, ci int) float64 { return m.tl[v][ci] }

// Edges returns the directed edge list in the model's canonical order.
func (m *Model) Edges() [][2]int { return m.edges }

// EdgeCost returns r·tx for edge e (model edge index) when the producer runs
// its cu-th configuration and the consumer its cv-th. Tables are built
// eagerly by NewModel, so this is a plain read, safe for concurrent use.
func (m *Model) EdgeCost(e, cu, cv int) float64 {
	return m.tx[e][cu*m.txKv[e]+cv]
}

// EdgeTable exposes edge e's full TX cost table and its row stride (the
// consumer's configuration count): vals[cu*kv+cv] = EdgeCost(e, cu, cv).
// Do not mutate.
func (m *Model) EdgeTable(e int) (vals []float64, kv int) {
	return m.tx[e], m.txKv[e]
}

// EdgeTableT exposes the producer-minor transpose of edge e's TX table and
// its row stride (the producer's configuration count):
// vals[cv*ku+cu] = EdgeCost(e, cu, cv). The solver picks whichever
// orientation makes its configuration scan contiguous. Do not mutate.
func (m *Model) EdgeTableT(e int) (vals []float64, ku int) {
	return m.txT[e], len(m.cfgs[m.edges[e][0]])
}

// TLRow exposes node v's full layer-cost table: TLRow(v)[ci] = TL(v, ci).
// Do not mutate.
func (m *Model) TLRow(v int) []float64 { return m.tl[v] }

// Incidence returns the directed edges incident to node v, self-loops listed
// once with Self set. Do not mutate.
func (m *Model) Incidence(v int) []IncEdge { return m.inc[v] }

// EdgeCostNodes is EdgeCost addressed by node IDs.
func (m *Model) EdgeCostNodes(u, v, cu, cv int) float64 {
	return m.EdgeCost(m.edgeIdx[[2]int{u, v}], cu, cv)
}

// EvalIdx computes F(G, φ) for a strategy given as per-node configuration
// indices.
func (m *Model) EvalIdx(idx []int) float64 {
	total := 0.0
	for v := range m.tl {
		total += m.tl[v][idx[v]]
	}
	for e, uv := range m.edges {
		total += m.EdgeCost(e, idx[uv[0]], idx[uv[1]])
	}
	return total
}

// Eval computes F(G, φ) for a full strategy. Configurations not in the
// enumerated list (possible for hand-written expert strategies under a
// restrictive policy) are costed directly without memoization.
func (m *Model) Eval(s graph.Strategy) (float64, error) {
	return EvalStrategy(m.G, m.Spec, s)
}

// EvalStrategy computes F(G, φ) for one concrete strategy directly from the
// graph and machine — no configuration enumeration and no table build. It is
// how the planner prices the fixed baseline strategies (data parallelism,
// expert layouts): costing a single known strategy is O(|V| + |E|) pricing
// calls, so baselines never pay for a Model.
func EvalStrategy(g *graph.Graph, spec machine.Spec, s graph.Strategy) (float64, error) {
	if err := s.Validate(g, spec.Devices); err != nil {
		return 0, err
	}
	total := 0.0
	for _, n := range g.Nodes {
		total += TLSeconds(n, s[n.ID], spec)
	}
	for _, uv := range g.Edges() {
		u, v := uv[0], uv[1]
		total += TXSeconds(g.Nodes[u], g.Nodes[v], g.InputIndex(u, v), s[u], s[v], spec)
	}
	return total, nil
}

// NodeDelta returns the change in F when node v moves from configuration
// index oldC to newC with the rest of the strategy fixed — the cheap
// neighbourhood evaluation the MCMC search uses (paper §II: a configuration
// change only affects the node's own layer cost and its incident edges).
// It walks v's precomputed incidence list, so one proposal costs O(deg(v))
// table reads instead of a scan over every edge of the graph.
func (m *Model) NodeDelta(idx []int, v, oldC, newC int) float64 {
	d := m.tl[v][newC] - m.tl[v][oldC]
	for _, ie := range m.inc[v] {
		switch {
		case ie.Self:
			d += m.EdgeCost(ie.E, newC, newC) - m.EdgeCost(ie.E, oldC, oldC)
		case ie.VIsU:
			o := idx[ie.Other]
			d += m.EdgeCost(ie.E, newC, o) - m.EdgeCost(ie.E, oldC, o)
		default:
			o := idx[ie.Other]
			d += m.EdgeCost(ie.E, o, newC) - m.EdgeCost(ie.E, o, oldC)
		}
	}
	return d
}

// StrategyFromIdx materializes configuration indices into a Strategy.
func (m *Model) StrategyFromIdx(idx []int) graph.Strategy {
	s := make(graph.Strategy, len(idx))
	for v, ci := range idx {
		s[v] = m.cfgs[v][ci].Clone()
	}
	return s
}

// IdxFromStrategy converts a strategy into configuration indices; it errors
// if some node's configuration is not in the enumerated list.
func (m *Model) IdxFromStrategy(s graph.Strategy) ([]int, error) {
	idx := make([]int, len(s))
	for v := range s {
		ci := m.IndexOf(v, s[v])
		if ci < 0 {
			return nil, fmt.Errorf("cost: node %d config %v not in enumerated list", v, s[v])
		}
		idx[v] = ci
	}
	return idx, nil
}

// DataParallelIdx returns the pure data-parallel strategy (batch dim named
// batchName split as far as possible on every node) as configuration indices.
func (m *Model) DataParallelIdx(batchName string) ([]int, error) {
	idx := make([]int, m.G.Len())
	for _, n := range m.G.Nodes {
		dp := itspace.DataParallel(n.Space, m.Spec.Devices, batchName)
		ci := m.IndexOf(n.ID, dp)
		if ci < 0 {
			return nil, fmt.Errorf("cost: node %d (%s) data-parallel config %v not enumerable", n.ID, n.Name, dp)
		}
		idx[n.ID] = ci
	}
	return idx, nil
}

// PaperEval computes the paper's original Eq. 1 cost F(G, φ) in FLOP units
// (layer FLOPs plus r times communication bytes), for comparison with the
// default seconds-based pricing.
func (m *Model) PaperEval(s graph.Strategy) (float64, error) {
	if err := s.Validate(m.G, m.Spec.Devices); err != nil {
		return 0, err
	}
	total := 0.0
	for _, n := range m.G.Nodes {
		total += TL(n, s[n.ID], m.r)
	}
	for e, uv := range m.edges {
		u, v := uv[0], uv[1]
		total += m.r * TXBytes(m.G.Nodes[u], m.G.Nodes[v], m.inSlot[e], s[u], s[v])
	}
	return total, nil
}
