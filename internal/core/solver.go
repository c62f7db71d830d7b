// Package core implements the PaSE dynamic program: FINDBESTSTRATEGY (paper
// Fig. 4) over recurrence (4), computing the minimum-cost parallelization
// strategy φ̂ = argmin F(G, φ) for a computation graph under the analytic
// cost model of package cost.
//
// The same DP engine runs over any vertex ordering: with GENERATESEQ it is
// the paper's efficient algorithm; with a breadth-first ordering it is the
// naive Section III-A baseline (recurrence 2), whose dependent sets explode
// on graphs like InceptionV3 — the engine then fails with ErrOOM exactly as
// the paper's Table I reports.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"pase/internal/cost"
	"pase/internal/graph"
	"pase/internal/seq"
)

// ErrOOM is returned when the DP tables would exceed the configured memory
// budget, mirroring the paper's OOM entries for breadth-first ordering on
// InceptionV3 and Transformer.
var ErrOOM = errors.New("core: dependent-set DP tables exceed memory budget")

// DefaultMaxTableEntries is the live-table budget used when
// Options.MaxTableEntries is zero (~200 MB of full cost+choice entries). It
// is exported so request fingerprinting can normalize "zero" and "explicit
// default" to the same solve identity.
const DefaultMaxTableEntries = 1 << 24

// Options tunes the solver.
type Options struct {
	// MaxTableEntries bounds the number of simultaneously live DP table
	// entries (each entry is a float64 cost plus an int32 choice; a cost
	// table freed after its last reader leaves only the choice third of its
	// entries live). Zero selects DefaultMaxTableEntries.
	MaxTableEntries int64
	// Workers sets the number of goroutines filling each vertex's DP table
	// (the φ iterations of recurrence 4 are independent). Zero — the default
	// — uses all available CPUs (GOMAXPROCS); set 1 for the explicit serial
	// mode matching the paper's single-threaded prototype. Results are
	// byte-identical at any worker count.
	Workers int
	// Arena, when non-nil, recycles the solve's large table buffers (cost
	// tables, choice tables, factored-scan side tables) across solves
	// sharing the arena. The planner passes its per-Planner arena here so
	// cache-miss solves and batch fan-outs stop re-allocating hundreds of
	// megabytes per solve. Nil allocates directly; results are identical
	// either way. Arena buffers are rounded up to power-of-two capacities,
	// so actual resident bytes can exceed the MaxTableEntries accounting by
	// up to 2x (see Arena).
	Arena *Arena
}

func (o Options) maxEntries() int64 {
	if o.MaxTableEntries > 0 {
		return o.MaxTableEntries
	}
	return DefaultMaxTableEntries
}

func (o Options) workers() int {
	if o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// parallelThreshold is the table size below which a chunked parallel fill is
// not worth the dispatch overhead.
const parallelThreshold = 4096

// fillChunkEntries caps one chunk of a parallel table fill at 16K entries:
// the chunk's output (16K float64 costs + 16K int32 choices ≈ 192 KB) plus
// the kv-long input rows it folds stays L2-resident per core, and a big fill
// splits into many more chunks than workers so the atomic work-claiming
// balances stragglers instead of one static split.
const fillChunkEntries = 1 << 14

// minChunkEntries floors the chunk size so the per-chunk odometer
// positioning (O(|D(i)| + subsets)) stays amortized to noise.
const minChunkEntries = 1 << 10

// fillChunkSize picks the chunk length for a table of the given size: aim
// for several chunks per worker, within [minChunkEntries, fillChunkEntries].
func fillChunkSize(total int64, workers int) int64 {
	c := (total + int64(workers)*4 - 1) / (int64(workers) * 4)
	if c > fillChunkEntries {
		c = fillChunkEntries
	}
	if c < minChunkEntries {
		c = minChunkEntries
	}
	return c
}

// fillPool is the solve-lifetime worker pool the chunked table fills
// dispatch to: nw−1 helper goroutines started once per Solve (the caller's
// goroutine is the nw-th worker), instead of spawning fresh goroutines for
// every vertex's fill.
type fillPool struct {
	jobs chan func()
	wg   sync.WaitGroup
}

func newFillPool(helpers int) *fillPool {
	p := &fillPool{jobs: make(chan func(), helpers)}
	for i := 0; i < helpers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for f := range p.jobs {
				f()
			}
		}()
	}
	return p
}

// close drains and stops the helpers. Safe only after every dispatched job
// has completed (each fill waits for its own jobs before returning).
func (p *fillPool) close() {
	close(p.jobs)
	p.wg.Wait()
}

// fillScratch is one chunk's odometer state — digit vector, per-subset
// bases, current row slices, edge offsets — pooled so the many chunks of a
// big fill don't each allocate four slices. Contents are undefined on Get;
// every fill fully initializes what it reads (digits are zeroed explicitly:
// masked scans only position a subset of them).
type fillScratch struct {
	digits []int
	rbase  []int64
	rows   [][]float64
	eoff   []int
}

var fillScratchPool = sync.Pool{New: func() any { return new(fillScratch) }}

func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func getFillScratch(ndep, nrefs, nrows, ne int) *fillScratch {
	sc := fillScratchPool.Get().(*fillScratch)
	sc.digits = grown(sc.digits, ndep)
	sc.rbase = grown(sc.rbase, nrefs)
	sc.rows = grown(sc.rows, nrows)
	sc.eoff = grown(sc.eoff, ne)
	for k := range sc.digits {
		sc.digits[k] = 0
	}
	return sc
}

// cancelCheckMask sets the cancellation polling granularity inside a table
// fill: every (cancelCheckMask+1) table entries each fill goroutine does one
// non-blocking read of ctx.Done(). 4096 entries amortize the channel poll to
// noise (<<1% of the scan work) while keeping worst-case cancellation
// latency in the low milliseconds even on Transformer p=32 tables. With a
// Background context (no Done channel) the checks compile down to a nil
// test — the default solve path pays nothing.
const cancelCheckMask = 4096 - 1

// Stats reports the work the solver performed.
type Stats struct {
	// MaxDepSize is M, the largest dependent set of the ordering used.
	MaxDepSize int
	// MaxTable is the largest single DP table (Π K over one dependent set).
	MaxTable int64
	// TotalEntries is the summed size of all DP tables ever allocated.
	TotalEntries int64
	// PeakLiveEntries is the largest number of simultaneously live table
	// entries (in full cost+choice entry equivalents): cost tables are freed
	// once their last reader's fill completes, so this — not TotalEntries —
	// is what the memory budget bounds.
	PeakLiveEntries int64
	// States is the number of table-cell evaluations the fill performed:
	// (φ, C) combinations actually scanned, plus — for vertices where the
	// factored kernel applies — one combine per table entry whose scan was
	// shared with other entries.
	States int64
	// PrunedConfigs is how many candidate configurations the model's
	// config-space reduction removed before the DP ran (cost.Model dedup +
	// optional epsilon dominance); every one is a multiplicative saving in
	// the K^|dependent set| table sizes above.
	PrunedConfigs int
	// KEffective is the largest per-vertex configuration count the DP
	// iterated over — the model's post-pruning K (the paper's K is the
	// pre-pruning maximum).
	KEffective int
	// VertexClasses / EdgeClasses are the model's structural-sharing class
	// counts: how many distinct vertex and edge cost tables the build
	// actually constructed (repeated layers alias the same tables).
	VertexClasses int
	EdgeClasses   int
	// TableBytes is the model's resident cost-table footprint (shared
	// slices counted once); SharedTableBytes is what interning saved versus
	// a per-occurrence build.
	TableBytes       int64
	SharedTableBytes int64
}

// Result is a solved strategy.
type Result struct {
	// Cost is R_V(|V|, ∅) = min_φ F(G, φ), in the model's pricing units —
	// estimated per-step seconds under the default cost.TLSeconds/TXSeconds
	// pricing (cost.Model.PaperEval is the Eq. 1 FLOP-unit variant).
	Cost float64
	// Idx holds the chosen configuration index of every node.
	Idx []int
	// Strategy is the materialized best strategy.
	Strategy graph.Strategy
	// Seq is the vertex ordering the DP ran over.
	Seq   *seq.Sequence
	Stats Stats
}

// FindBestStrategy runs the paper's FINDBESTSTRATEGY: GENERATESEQ ordering
// followed by the dependent-set dynamic program, without cancellation (a
// background context). Use Solve directly for a cancellable run.
func FindBestStrategy(m *cost.Model, opts Options) (*Result, error) {
	return Solve(context.Background(), m, seq.Generate(m.G), opts)
}

// NaiveBF runs the Section III-A baseline: the same recurrence over a
// breadth-first ordering, whose dependent sets are the naive DB(i).
func NaiveBF(m *cost.Model, opts Options) (*Result, error) {
	return Solve(context.Background(), m, seq.BFS(m.G), opts)
}

// subsetRef describes how to compute the flat table index of one connected
// subset's representative vertex v(j) from the current (φ, C) digits. The
// index splits into a φ-only base (constant while the solver scans v(i)'s
// own configurations) plus C times vStride.
//
// DP tables are laid out first-member-fastest: the member of D(j) with the
// SMALLEST position gets stride 1. Every member of D(j) other than v(i) lies
// in D(i), whose positions all exceed i, so whenever v(i) ∈ D(j) it is the
// smallest-position member — and there is at most one such reader position
// for each table. The flip therefore guarantees vStride ∈ {0, 1}: the scan
// over v(i)'s own configurations reads a CONTIGUOUS row of v(j)'s table
// (vStride 1), or a single φ-only cell hoisted out of the scan entirely
// (vStride 0). This is what makes the fill a flat strided kernel instead of
// a gather over cache-hostile K²-sized strides.
type subsetRef struct {
	pos     int   // position j of the subset's last vertex
	vStride int64 // stride of v(i)'s own configuration within v(j)'s table: 1, or 0 when v(i) ∉ D(j)
	// For the members of D(j) other than v(i): which φ digit supplies their
	// configuration and its mixed-radix stride within v(j)'s table.
	phiDigit  []int
	phiStride []int64
}

// Solve runs the dependent-set DP over an arbitrary ordering. The ordering's
// dependent sets must be the definitional D(i) (seq.Generate and seq.BFS /
// seq.FromOrder both guarantee this).
//
// Cancellation: the fill polls ctx at coarse granularity — at every vertex
// boundary and every few thousand table entries inside a fill (see
// cancelCheckMask) — so cancelling mid-DP returns ctx's error within
// milliseconds, worker goroutines always drain before Solve returns (no
// leaks), and a Background context costs the hot loop nothing.
func Solve(ctx context.Context, m *cost.Model, sq *seq.Sequence, opts Options) (*Result, error) {
	g := m.G
	n := g.Len()
	if n == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	if len(sq.Order) != n {
		return nil, fmt.Errorf("core: ordering covers %d of %d vertices", len(sq.Order), n)
	}

	budget := opts.maxEntries()
	nw := opts.workers()
	// Cancellation state shared by all fill goroutines: the first poll that
	// observes ctx.Done() sets the flag, later polls exit on the cheaper
	// atomic load, and the vertex loop converts it into ctx's error.
	done := ctx.Done()
	var cancelled atomic.Bool
	cancelErr := func() error {
		return fmt.Errorf("core: solve cancelled: %w", context.Cause(ctx))
	}
	var st Stats
	st.MaxDepSize = sq.MaxDepSize()
	st.PrunedConfigs = m.PrunedConfigs()
	st.KEffective = m.MaxKEffective()
	st.VertexClasses = m.VertexClasses()
	st.EdgeClasses = m.EdgeClasses()
	st.TableBytes = m.TableBytes()
	st.SharedTableBytes = m.SharedTableBytes()

	// The fill pool lives for the whole solve: every vertex's chunked table
	// fill dispatches to the same nw−1 helpers (the calling goroutine is the
	// nw-th worker), and the arena recycles the tables those fills write.
	arena := opts.Arena
	var pool *fillPool
	if nw > 1 {
		pool = newFillPool(nw - 1)
		defer pool.close()
	}

	tbl := make([][]float64, n)  // per position; freed at last reader
	choice := make([][]int32, n) // argmin config per (position, φ); kept for back-substitution

	// All connected subsets up front (one bitset pass): both the recurrence
	// lookup wiring and the liveness plan need them. lastReader[j] is the
	// last position whose fill reads tbl[j]; after that fill, tbl[j] is dead
	// (back-substitution only reads choice) and is freed.
	subsets := seq.ConnectedSubsetsAll(g, sq)
	lastReader := make([]int, n)
	for j := range lastReader {
		lastReader[j] = -1
	}
	for i, subs := range subsets {
		for _, sub := range subs {
			if j := sq.Pos[sub[len(sub)-1]]; i > lastReader[j] {
				lastReader[j] = i
			}
		}
	}
	freeAt := make([][]int, n)
	for j, r := range lastReader {
		if r >= 0 {
			freeAt[r] = append(freeAt[r], j)
		}
	}

	// Live-memory accounting in 4-byte units: a float64 cost cell is 2
	// units, an int32 choice cell 1, so a full entry is 3. Freeing a cost
	// table returns its 2 units per entry while the choice third stays live.
	// The budget bounds the peak, not the total ever allocated — graphs
	// whose tables die young fit in budgets their TotalEntries would blow.
	budgetUnits := 3 * budget
	liveUnits := int64(0)

	digitOf := make([]int, n) // dense node-ID → φ-digit map; -1 = absent
	for j := range digitOf {
		digitOf[j] = -1
	}
	var kd []int
	var finalCost float64

	for i := 0; i < n; i++ {
		if done != nil && ctx.Err() != nil {
			return nil, cancelErr()
		}
		v := sq.Order[i]
		dep := sq.Dep[i] // node IDs sorted by position, all after i
		kd = kd[:0]
		tblSize := int64(1)
		for k, d := range dep {
			kk := m.K(d)
			kd = append(kd, kk)
			digitOf[d] = k
			tblSize *= int64(kk)
			if tblSize > budget {
				return nil, fmt.Errorf("%w: table for vertex %d needs >%d entries", ErrOOM, v, budget)
			}
		}
		st.TotalEntries += tblSize
		if tblSize > st.MaxTable {
			st.MaxTable = tblSize
		}
		liveUnits += 3 * tblSize
		if liveUnits > budgetUnits {
			return nil, fmt.Errorf("%w: live tables at vertex %d exceed %d entries", ErrOOM, v, budget)
		}
		if live := (liveUnits + 2) / 3; live > st.PeakLiveEntries {
			st.PeakLiveEntries = live
		}

		// Connected subsets S(i) and their lookup wiring. Tables are laid
		// out first-member-fastest (see subsetRef), so vStride is 1 when
		// v ∈ D(j) and 0 otherwise; the refs are split accordingly into
		// row refs (contiguous kv-long reads per φ) and cell refs (one
		// φ-only read per φ, hoisted out of the configuration scan).
		subs := subsets[i]
		refs := make([]subsetRef, len(subs))
		for si, sub := range subs {
			jPos := sq.Pos[sub[len(sub)-1]]
			dj := sq.Dep[jPos]
			r := subsetRef{pos: jPos}
			stride := int64(1)
			for k := 0; k < len(dj); k++ {
				if dj[k] == v {
					r.vStride = stride
				} else {
					dg := digitOf[dj[k]]
					if dg < 0 {
						return nil, fmt.Errorf("core: D(%d) member %d not in D(%d) ∪ {v(%d)}: ordering's dependent sets are inconsistent", jPos, dj[k], i, i)
					}
					r.phiDigit = append(r.phiDigit, dg)
					r.phiStride = append(r.phiStride, stride)
				}
				stride *= int64(m.K(dj[k]))
			}
			if r.vStride > 1 {
				return nil, fmt.Errorf("core: v(%d) is not the first member of D(%d): first-member-fastest layout violated", i, jPos)
			}
			refs[si] = r
		}

		// Incident edges to later vertices; those endpoints are all in D(i).
		// Costs come straight from the model's eager TX tables, in whichever
		// orientation makes the scan over v's own configuration contiguous —
		// no per-vertex materialization pass, and nothing here mutates
		// shared state, so the parallel fill below reads them freely.
		type edgeRef struct {
			vals  []float64 // TX table oriented as vals[other*kv+c]
			digit int       // φ digit holding the other endpoint's configuration
		}
		var erefs []edgeRef
		for _, ie := range m.Incidence(v) {
			if sq.Pos[ie.Other] <= i { // earlier neighbours and self-loops
				continue
			}
			dg := digitOf[ie.Other]
			if dg < 0 {
				return nil, fmt.Errorf("core: later neighbour %d of %d missing from D(%d)", ie.Other, v, i)
			}
			var vals []float64
			if ie.VIsU {
				vals, _ = m.EdgeTableT(ie.E) // [cv*Ku+cu], contiguous in c=cu
			} else {
				vals, _ = m.EdgeTable(ie.E) // [cu*Kv+cv], contiguous in c=cv
			}
			erefs = append(erefs, edgeRef{vals: vals, digit: dg})
		}

		kv := m.K(v)
		tlv := m.TLRow(v)
		t := arena.GetF64(tblSize)
		ch := arena.GetI32(tblSize)

		// Flat strided kernel wiring. rowRefs are the subsets containing v:
		// their lookups form a contiguous kv-long row per φ (vStride 1).
		// cellRefs are φ-only subsets: one cell per φ, independent of the
		// configuration scanned, so they never enter the scan at all.
		// refDigRow/refDigCell/edgeDig list, per φ digit, which subset bases
		// and edge-row offsets that digit's stride moves — the odometer then
		// updates only what a digit change actually touches, instead of
		// refolding every base and reslicing every row per entry.
		var rowRefs, cellRefs []int
		for ri := range refs {
			if refs[ri].vStride == 1 {
				rowRefs = append(rowRefs, ri)
			} else {
				cellRefs = append(cellRefs, ri)
			}
		}
		isRow := make([]bool, len(refs))
		for _, ri := range rowRefs {
			isRow[ri] = true
		}
		type digUpd struct {
			ri     int
			stride int64
		}
		refDigRow := make([][]digUpd, len(dep))
		refDigCell := make([][]digUpd, len(dep))
		for ri := range refs {
			r := &refs[ri]
			for k, dg := range r.phiDigit {
				if isRow[ri] {
					refDigRow[dg] = append(refDigRow[dg], digUpd{ri, r.phiStride[k]})
				} else {
					refDigCell[dg] = append(refDigCell[dg], digUpd{ri, r.phiStride[k]})
				}
			}
		}
		edgeDig := make([][]int, len(dep))
		for li := range erefs {
			edgeDig[erefs[li].digit] = append(edgeDig[erefs[li].digit], li)
		}
		rtbl := make([][]float64, len(refs))
		for ri := range refs {
			rtbl[ri] = tbl[refs[ri].pos]
		}

		// Factorization: the minimizing configuration depends only on the φ
		// digits the edge rows and v-containing subsets read — cellRefs add
		// a per-φ constant, which never changes the argmin. When those
		// "scan digits" span fewer than all of D(i), the kv-wide scan runs
		// once per scan-digit combination (subSize of them) into a minf/argc
		// side table, and the full table fill collapses to one gather plus
		// the φ-only cell sum per entry: subSize·kv + tblSize states instead
		// of tblSize·kv.
		used := make([]bool, len(dep))
		for li := range erefs {
			used[erefs[li].digit] = true
		}
		for _, ri := range rowRefs {
			for _, dg := range refs[ri].phiDigit {
				used[dg] = true
			}
		}
		subSize := int64(1)
		subStride := make([]int64, len(dep)) // 0 for digits the scan ignores
		for k := range dep {
			if used[k] {
				subStride[k] = subSize
				subSize *= int64(kd[k])
			}
		}
		factored := subSize < tblSize

		// rowPos maps a v-containing subset ref to its slot in the merged
		// rows array: slots [0, nE) are the hoisted TX rows of the incident
		// edges, slots [nE, nRows) the contiguous DP-table rows. Every slot is
		// a kv-long slice indexed by the scanned configuration; slices are
		// refreshed only when a digit they stride through changes.
		nE := len(erefs)
		nRows := nE + len(rowRefs)
		rowPos := make([]int, len(refs))
		for rj, ri := range rowRefs {
			rowPos[ri] = nE + rj
		}

		// fillScan computes min_C over the masked odometer range [lo, hi):
		// the layer cost row, the hoisted TX row per incident edge, and the
		// contiguous kv-long row of each v-containing subset, folded with a
		// running minimum (branch-free unconditional sums for the common
		// 1-4-row shapes, early-exit folding for wide hubs). In factored mode
		// it fills the minf side table over the scan digits; otherwise it
		// writes the DP table directly, adding the φ-only cell sum. Ranges are
		// disjoint and all shared state is read-only, so chunks run in
		// parallel with byte-identical results at any worker count.
		fillScan := func(lo, hi int64, mask []bool, outT []float64, outC []int32, withCells bool) {
			// A chunk claimed after cancellation returns before paying the
			// odometer positioning.
			if done != nil && cancelled.Load() {
				return
			}
			sc := getFillScratch(len(dep), len(refs), nRows, len(erefs))
			defer fillScratchPool.Put(sc)
			digits, rbase, rows, eoff := sc.digits, sc.rbase, sc.rows, sc.eoff
			// Position the incremental state at flat index lo of the masked
			// odometer (first digit fastest).
			rem := lo
			for k := 0; k < len(dep); k++ {
				if mask != nil && !mask[k] {
					continue
				}
				digits[k] = int(rem % int64(kd[k]))
				rem /= int64(kd[k])
			}
			for ri := range refs {
				r := &refs[ri]
				b := int64(0)
				for k, dg := range r.phiDigit {
					b += int64(digits[dg]) * r.phiStride[k]
				}
				rbase[ri] = b
			}
			for li := range erefs {
				o := digits[erefs[li].digit] * kv
				eoff[li] = o
				rows[li] = erefs[li].vals[o : o+kv]
			}
			for _, ri := range rowRefs {
				rows[rowPos[ri]] = rtbl[ri][rbase[ri] : rbase[ri]+int64(kv)]
			}
			for flat := lo; flat < hi; flat++ {
				if done != nil && flat&cancelCheckMask == 0 {
					if cancelled.Load() {
						return
					}
					select {
					case <-done:
						cancelled.Store(true)
						return
					default:
					}
				}
				cbase := 0.0
				if withCells {
					for _, ri := range cellRefs {
						cbase += rtbl[ri][rbase[ri]]
					}
				}
				best := math.Inf(1)
				bestC := int32(0)
				switch nRows {
				case 1:
					r0 := rows[0]
					for c := 0; c < kv; c++ {
						if cst := tlv[c] + r0[c]; cst < best {
							best = cst
							bestC = int32(c)
						}
					}
				case 2:
					r0, r1 := rows[0], rows[1]
					for c := 0; c < kv; c++ {
						if cst := tlv[c] + r0[c] + r1[c]; cst < best {
							best = cst
							bestC = int32(c)
						}
					}
				case 3:
					r0, r1, r2 := rows[0], rows[1], rows[2]
					for c := 0; c < kv; c++ {
						if cst := tlv[c] + r0[c] + r1[c] + r2[c]; cst < best {
							best = cst
							bestC = int32(c)
						}
					}
				case 4:
					r0, r1, r2, r3 := rows[0], rows[1], rows[2], rows[3]
					for c := 0; c < kv; c++ {
						if cst := tlv[c] + r0[c] + r1[c] + r2[c] + r3[c]; cst < best {
							best = cst
							bestC = int32(c)
						}
					}
				default: // 0 rows, or wide hubs: early-exit folding
					for c := 0; c < kv; c++ {
						cst := tlv[c]
						for _, r := range rows {
							cst += r[c]
							if cst >= best {
								break
							}
						}
						if cst < best {
							best = cst
							bestC = int32(c)
						}
					}
				}
				outT[flat] = cbase + best
				outC[flat] = bestC

				// Masked odometer increment (first digit fastest), updating
				// only the bases and rows the changed digit strides through.
				for k := 0; k < len(dep); k++ {
					if mask != nil && !mask[k] {
						continue
					}
					digits[k]++
					if digits[k] < kd[k] {
						for _, u := range refDigRow[k] {
							rbase[u.ri] += u.stride
							rows[rowPos[u.ri]] = rtbl[u.ri][rbase[u.ri] : rbase[u.ri]+int64(kv)]
						}
						if withCells {
							for _, u := range refDigCell[k] {
								rbase[u.ri] += u.stride
							}
						}
						for _, li := range edgeDig[k] {
							eoff[li] += kv
							rows[li] = erefs[li].vals[eoff[li] : eoff[li]+kv]
						}
						break
					}
					digits[k] = 0
					for _, u := range refDigRow[k] {
						rbase[u.ri] -= int64(kd[k]-1) * u.stride
						rows[rowPos[u.ri]] = rtbl[u.ri][rbase[u.ri] : rbase[u.ri]+int64(kv)]
					}
					if withCells {
						for _, u := range refDigCell[k] {
							rbase[u.ri] -= int64(kd[k]-1) * u.stride
						}
					}
					for _, li := range edgeDig[k] {
						eoff[li] = 0
						rows[li] = erefs[li].vals[0:kv]
					}
				}
			}
		}

		// parChunk splits a fill's flat index range into contiguous
		// fixed-size chunks claimed off an atomic counter by the pool's
		// helpers plus the calling goroutine. Chunks write disjoint output
		// ranges, so which worker runs which chunk is irrelevant to the
		// bytes produced — results stay byte-identical at every worker
		// count — while the dynamic claiming keeps all cores busy even when
		// one chunk's scan is slower than another's.
		parChunk := func(total int64, f func(lo, hi int64)) {
			if nw <= 1 || total < parallelThreshold {
				f(0, total)
				return
			}
			chunk := fillChunkSize(total, nw)
			var next atomic.Int64
			run := func() {
				for {
					lo := (next.Add(1) - 1) * chunk
					if lo >= total {
						return
					}
					hi := lo + chunk
					if hi > total {
						hi = total
					}
					f(lo, hi)
				}
			}
			helpers := nw - 1
			if nc := (total + chunk - 1) / chunk; int64(helpers) > nc-1 {
				helpers = int(nc - 1)
			}
			var wg sync.WaitGroup
			wg.Add(helpers)
			for w := 0; w < helpers; w++ {
				pool.jobs <- func() {
					defer wg.Done()
					run()
				}
			}
			run()
			wg.Wait()
		}

		if factored {
			// Phase A: one scan per combination of the digits the scan
			// reads. The side table is transient — live only during this
			// vertex's fills — but it is real memory, so it is charged
			// against the budget like any other cost+choice table.
			liveUnits += 3 * subSize
			if liveUnits > budgetUnits {
				return nil, fmt.Errorf("%w: live tables at vertex %d exceed %d entries", ErrOOM, v, budget)
			}
			if live := (liveUnits + 2) / 3; live > st.PeakLiveEntries {
				st.PeakLiveEntries = live
			}
			minf := arena.GetF64(subSize)
			argc := arena.GetI32(subSize)
			parChunk(subSize, func(lo, hi int64) {
				fillScan(lo, hi, used, minf, argc, false)
			})
			if cancelled.Load() {
				return nil, cancelErr()
			}
			// Phase B: broadcast the scan results over the ignored digits,
			// adding the φ-only cell lookups.
			parChunk(tblSize, func(lo, hi int64) {
				if done != nil && cancelled.Load() {
					return
				}
				sc := getFillScratch(len(dep), len(refs), 0, 0)
				defer fillScratchPool.Put(sc)
				digits, rbase := sc.digits, sc.rbase
				rem := lo
				subFlat := int64(0)
				for k := 0; k < len(dep); k++ {
					digits[k] = int(rem % int64(kd[k]))
					rem /= int64(kd[k])
					subFlat += int64(digits[k]) * subStride[k]
				}
				for ri := range refs {
					if isRow[ri] {
						continue
					}
					r := &refs[ri]
					b := int64(0)
					for k, dg := range r.phiDigit {
						b += int64(digits[dg]) * r.phiStride[k]
					}
					rbase[ri] = b
				}
				for flat := lo; flat < hi; flat++ {
					if done != nil && flat&cancelCheckMask == 0 {
						if cancelled.Load() {
							return
						}
						select {
						case <-done:
							cancelled.Store(true)
							return
						default:
						}
					}
					cbase := 0.0
					for _, ri := range cellRefs {
						cbase += rtbl[ri][rbase[ri]]
					}
					t[flat] = cbase + minf[subFlat]
					ch[flat] = argc[subFlat]
					for k := 0; k < len(dep); k++ {
						digits[k]++
						if digits[k] < kd[k] {
							for _, u := range refDigCell[k] {
								rbase[u.ri] += u.stride
							}
							subFlat += subStride[k]
							break
						}
						digits[k] = 0
						for _, u := range refDigCell[k] {
							rbase[u.ri] -= int64(kd[k]-1) * u.stride
						}
						subFlat -= int64(kd[k]-1) * subStride[k]
					}
				}
			})
			liveUnits -= 3 * subSize // minf/argc die with the fills
			arena.PutF64(minf)
			arena.PutI32(argc)
			st.States += subSize*int64(kv) + tblSize
		} else {
			parChunk(tblSize, func(lo, hi int64) {
				fillScan(lo, hi, nil, t, ch, true)
			})
			st.States += tblSize * int64(kv)
		}
		// A cancelled fill returned early with partial tables; parChunk has
		// already drained its goroutines, so this is the clean exit point.
		if cancelled.Load() {
			return nil, cancelErr()
		}
		tbl[i] = t
		choice[i] = ch
		if i == n-1 {
			finalCost = t[0]
		}

		// Retire cost tables whose last reader was this position — returning
		// them to the arena for the next vertex's fill — and reset the dense
		// digit map for the next vertex.
		for _, j := range freeAt[i] {
			liveUnits -= 2 * int64(len(tbl[j]))
			arena.PutF64(tbl[j])
			tbl[j] = nil
		}
		for _, d := range dep {
			digitOf[d] = -1
		}
	}

	// Extract the strategy by back-substitution from v(|V|) with φ = ∅.
	idx := make([]int, n)
	assigned := make([]bool, n)
	var walk func(pos int) error
	walk = func(pos int) error {
		v := sq.Order[pos]
		dj := sq.Dep[pos]
		flat := int64(0)
		stride := int64(1)
		for k := 0; k < len(dj); k++ { // first-member-fastest layout
			if !assigned[dj[k]] {
				return fmt.Errorf("core: back-substitution reached %d before its dependent %d", v, dj[k])
			}
			flat += int64(idx[dj[k]]) * stride
			stride *= int64(m.K(dj[k]))
		}
		idx[v] = int(choice[pos][flat])
		assigned[v] = true
		for _, sub := range subsets[pos] {
			if err := walk(sq.Pos[sub[len(sub)-1]]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(n - 1); err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		if !assigned[v] {
			return nil, fmt.Errorf("core: back-substitution left node %d unassigned (graph not weakly connected?)", v)
		}
	}

	res := &Result{
		Cost:     finalCost,
		Idx:      idx,
		Strategy: m.StrategyFromIdx(idx),
		Seq:      sq,
		Stats:    st,
	}
	// Theorem 1 consistency: the extracted strategy must realize the DP
	// minimum. Guard against wiring bugs rather than silently returning an
	// inconsistent pair.
	if ev := m.EvalIdx(idx); math.Abs(ev-res.Cost) > 1e-6*math.Max(1, math.Abs(ev)) {
		return nil, fmt.Errorf("core: extracted strategy costs %v but DP minimum is %v", ev, res.Cost)
	}
	// The result no longer references any DP table: hand every surviving
	// buffer back to the arena for the next solve. (Error paths skip this
	// and let the GC collect instead.)
	for i := 0; i < n; i++ {
		if tbl[i] != nil {
			arena.PutF64(tbl[i])
			tbl[i] = nil
		}
		arena.PutI32(choice[i])
		choice[i] = nil
	}
	return res, nil
}

// BruteForce exhaustively enumerates every strategy. It is exponential and
// intended only for validating the DP on small graphs.
func BruteForce(m *cost.Model) (*Result, error) {
	n := m.G.Len()
	if n == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	total := int64(1)
	for v := 0; v < n; v++ {
		total *= int64(m.K(v))
		if total > 200_000_000 {
			return nil, fmt.Errorf("core: brute force space too large")
		}
	}
	idx := make([]int, n)
	best := math.Inf(1)
	bestIdx := make([]int, n)
	for it := int64(0); it < total; it++ {
		if c := m.EvalIdx(idx); c < best {
			best = c
			copy(bestIdx, idx)
		}
		for k := n - 1; k >= 0; k-- {
			idx[k]++
			if idx[k] < m.K(k) {
				break
			}
			idx[k] = 0
		}
	}
	return &Result{
		Cost:     best,
		Idx:      bestIdx,
		Strategy: m.StrategyFromIdx(bestIdx),
		Stats:    Stats{States: total},
	}, nil
}
