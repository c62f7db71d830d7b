package cost

// Config-space reduction (DESIGN.md "Config-space reduction"): the DP's cost
// is governed by K^|dependent set|, so removing candidate configurations is a
// multiplicative speedup. Two reductions run at model-build time, after the
// full TL/TX tables exist and before anything reads them:
//
//   - Exact dedup (always on): two configurations of a vertex whose cost
//     signatures are identical — same TL and bit-identical TX rows against
//     every neighbour's full configuration set — are interchangeable in every
//     strategy, so only the first (in canonical enumeration order) survives.
//     The DP breaks cost ties toward the lowest configuration index, which is
//     exactly the first member of its signature class, so dedup preserves not
//     just the optimal cost but the returned strategy byte for byte.
//
//   - Epsilon dominance (opt-in, PruneEpsilon > 0): configuration a dominates
//     b when every signature entry of a is ≤ the corresponding entry of b
//     plus eps·|entry|. Dropping dominated configurations can remove far more
//     of the space, at the price of a bounded cost inflation: swapping each
//     vertex's choice for its dominator inflates each layer term and each
//     edge term by at most a (1+eps) factor per adjacent swap, so the found
//     strategy costs at most (1+eps)² times the true optimum.
//
// Survivors are interned into dense per-vertex config IDs: the model's
// public cfgs/tl/tx tables are compacted to survivors only, so the solver's
// inner loops never see a pruned configuration.

import (
	"context"
	"math"
	"sync/atomic"

	"pase/internal/canon"
	"pase/internal/itspace"
)

// BuildOptions tunes model construction. The zero value is the default
// build: exact duplicate-signature dedup on, no epsilon dominance.
type BuildOptions struct {
	// PruneEpsilon, when > 0, enables epsilon-dominance pruning: a
	// configuration is dropped when an earlier-kept one is at least as good
	// on every cost-signature entry up to a relative slack of PruneEpsilon.
	// The returned strategy's cost is within (1+PruneEpsilon)² of optimal.
	PruneEpsilon float64
	// DisablePruning skips all config-space reduction, including the exact
	// dedup that is otherwise always on. The unpruned model is the oracle
	// the pruning property tests compare against.
	DisablePruning bool
	// DisableInterning skips structural sharing (intern.go): every node and
	// edge gets its own table build and backing slice, exactly as if the
	// graph had no repeated structure. Solves over the interned model are
	// byte-identical to this oracle; the property tests pin that.
	DisableInterning bool
	// Store, when non-nil, resolves class tables from a cross-request
	// ClassStore (store.go): classes already built for any earlier model
	// sharing the store are aliased instead of rebuilt, and fresh classes
	// are published for later builds. Requires interning (a DisableInterning
	// build computes no class fingerprints and ignores the store). Builds
	// through a store are byte-identical to store-less builds.
	Store *ClassStore
}

// sigVisit streams node v's cost signature entries for its ci-th
// configuration, in a fixed order: the TL entry, then for each incident edge
// the TX row of ci against the opposite endpoint's full configuration set
// (both orientations for a self-loop, so signature-equal configurations also
// agree on the diagonal entries the self-loop contributes to Eval).
func (m *Model) sigVisit(v, ci int, f func(float64)) {
	f(m.tl[v][ci])
	for _, ie := range m.inc[v] {
		kv := m.txKv[ie.E]
		ku := len(m.cfgs[m.edges[ie.E][0]])
		if ie.Self || ie.VIsU {
			for _, x := range m.tx[ie.E][ci*kv : ci*kv+kv] {
				f(x)
			}
		}
		if ie.Self || !ie.VIsU {
			for _, x := range m.txT[ie.E][ci*ku : ci*ku+ku] {
				f(x)
			}
		}
	}
}

// sigHash hashes the signature's float64 bit patterns (with -0 normalized
// to 0, matching sigEqual's == semantics), one splitmix64-style mix per
// value. Collisions only cost an extra sigEqual verification.
func (m *Model) sigHash(v, ci int) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	m.sigVisit(v, ci, func(x float64) {
		if x == 0 {
			x = 0 // collapse -0 so hash matches == equality
		}
		z := h + math.Float64bits(x) + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		h = z ^ (z >> 31)
	})
	return h
}

// sigRow materializes node v's signature for configuration ci into dst,
// returning the (node-constant) signature length.
func (m *Model) sigRow(dst []float64, v, ci int) []float64 {
	dst = dst[:0]
	m.sigVisit(v, ci, func(x float64) { dst = append(dst, x) })
	return dst
}

// dominates reports whether signature a beats signature b on every entry, up
// to a relative slack of eps (eps 0 is exact ≤-dominance).
func dominates(a, b []float64, eps float64) bool {
	for i := range a {
		slack := eps * math.Abs(b[i])
		if a[i] > b[i]+slack {
			return false
		}
	}
	return true
}

// sigEqual reports whether configurations a and b of node v have identical
// cost signatures.
func (m *Model) sigEqual(v, a, b int) bool {
	sa := make([]float64, 0, 64)
	sa = m.sigRow(sa, v, a)
	i, eq := 0, true
	m.sigVisit(v, b, func(x float64) {
		if eq && sa[i] != x {
			eq = false
		}
		i++
	})
	return eq
}

// pruneNode computes node v's surviving configurations under the build
// options: keep is the list of surviving full-enumeration indices (ascending,
// so canonical order is preserved) and rep maps every full index to the dense
// interned ID of its representative survivor.
func (m *Model) pruneNode(v int, eps float64) (keep []int, rep []int32) {
	k := len(m.cfgs[v])
	rep = make([]int32, k) // full index -> representative full index
	// Exact dedup: group by signature hash, verify within groups. The first
	// member of each class (lowest enumeration index) is its representative.
	seen := make(map[uint64][]int32, k)
	for ci := 0; ci < k; ci++ {
		h := m.sigHash(v, ci)
		found := false
		for _, cj := range seen[h] {
			if m.sigEqual(v, int(cj), ci) {
				rep[ci] = cj
				found = true
				break
			}
		}
		if !found {
			seen[h] = append(seen[h], int32(ci))
			rep[ci] = int32(ci)
		}
	}
	// Epsilon dominance over the exact survivors, first-kept-wins so the
	// result is deterministic and representatives stay canonical.
	if eps > 0 {
		var keptSigs [][]float64
		var keptIdx []int32
		sig := make([]float64, 0, 64)
		for ci := 0; ci < k; ci++ {
			if rep[ci] != int32(ci) {
				continue
			}
			sig = m.sigRow(sig, v, ci)
			dominated := false
			for j, ks := range keptSigs {
				if dominates(ks, sig, eps) {
					rep[ci] = keptIdx[j]
					dominated = true
					break
				}
			}
			if !dominated {
				keptSigs = append(keptSigs, append([]float64(nil), sig...))
				keptIdx = append(keptIdx, int32(ci))
			}
		}
		// Re-point exact duplicates of a dominated config at its dominator.
		for ci := 0; ci < k; ci++ {
			rep[ci] = rep[rep[ci]]
		}
	}
	// Intern survivors as dense IDs.
	denseOf := make([]int32, k)
	for ci := 0; ci < k; ci++ {
		if rep[ci] == int32(ci) {
			denseOf[ci] = int32(len(keep))
			keep = append(keep, ci)
		}
	}
	for ci := 0; ci < k; ci++ {
		rep[ci] = denseOf[rep[ci]]
	}
	return keep, rep
}

// pruneConfigs runs the config-space reduction and compacts the model's
// config lists and cost tables to survivors only. Must run after the full
// TL/TX tables are built and before the model is published. Both the
// signature analysis and the compaction run once per structural-sharing
// class (intern.go): members of a prune class see byte-identical signatures,
// so they keep identical survivor sets and alias the compacted tables —
// interning composes with the reduction instead of being undone by it. With
// a ClassStore attached both the per-class reduction outcome and each
// compacted TX table resolve from the store (keyed by the prune-class and
// compact-class fingerprints plus epsilon), so near-duplicate models skip
// the signature analysis entirely. It also assigns the model's final
// per-node and per-edge class fingerprints when the plan computed them. A
// cancelled ctx stops the per-class passes between tasks; the caller
// (NewModelWith) discards the partially-reduced model.
func (m *Model) pruneConfigs(ctx context.Context, eps float64, plan *internPlan, store *ClassStore, storeHits, storeMiss, storeBytes *atomic.Int64) {
	n := m.G.Len()
	rClass, rReps, rFPs := m.pruneClasses(plan)
	// Prune-entry store keys: the prune-class fingerprint plus epsilon
	// (epsilon changes the survivor set, so it is part of the identity).
	var pKeys []canon.Fingerprint
	if rFPs != nil {
		pKeys = make([]canon.Fingerprint, len(rFPs))
		for ci := range rFPs {
			w := canon.NewWriter()
			w.Label("cost.store.prune/v1")
			w.FP(rFPs[ci])
			w.F64(eps)
			pKeys[ci] = w.Sum()
		}
	}
	if rFPs == nil {
		store = nil
	}
	classPrune := make([]pruneTables, len(rReps))
	parallelFor(ctx, len(rReps), func(ci int) {
		build := func() (any, int64, error) {
			v := rReps[ci]
			keep, rep := m.pruneNode(v, eps)
			pt := pruneTables{keep: keep, rep: rep}
			b := int64(len(keep))*8 + int64(len(rep))*4
			if len(keep) == len(m.cfgs[v]) {
				pt.cfgs, pt.tl = m.cfgs[v], m.tl[v]
			} else {
				pt.cfgs = make([]itspace.Config, len(keep))
				pt.tl = make([]float64, len(keep))
				for i, fi := range keep {
					pt.cfgs[i] = m.cfgs[v][fi]
					pt.tl[i] = m.tl[v][fi]
				}
				b += int64(len(keep)) * 32 // compacted headers + TL row
			}
			return pt, b, nil
		}
		if store == nil {
			val, _, _ := build()
			classPrune[ci] = val.(pruneTables)
			return
		}
		val, hit, bytes, _ := store.getOrBuild(pKeys[ci], build)
		classPrune[ci] = val.(pruneTables)
		if hit {
			storeHits.Add(1)
			storeBytes.Add(bytes)
		} else {
			storeMiss.Add(1)
		}
	})
	if ctx.Err() != nil {
		return
	}
	keep := make([][]int, n)
	m.repOf = make([][]int32, n)
	for v := 0; v < n; v++ {
		keep[v] = classPrune[rClass[v]].keep
		m.repOf[v] = classPrune[rClass[v]].rep
	}
	// Snapshot the full enumeration before compaction: IndexOf resolves
	// pruned configurations through it, and MaxK keeps paper semantics.
	m.fullCfgs = make([][]itspace.Config, n)
	copy(m.fullCfgs, m.cfgs)
	anyPruned := false
	for v := 0; v < n; v++ {
		m.pruned += len(m.cfgs[v]) - len(keep[v])
		if len(keep[v]) != len(m.cfgs[v]) {
			anyPruned = true
		}
	}
	for v := 0; v < n; v++ {
		m.cfgs[v] = classPrune[rClass[v]].cfgs
		m.tl[v] = classPrune[rClass[v]].tl
	}
	// Compact-class identities: one per (edge class, producer prune class,
	// consumer prune class) — the survivor sets on both sides determine the
	// gather, so edges agreeing on all three share the compacted table. The
	// fingerprint variant (when computed) keys the store's compact entries.
	type compactKey struct{ ec, pu, pv int }
	byKey := make(map[compactKey]int, len(m.edges))
	cClass := make([]int, len(m.edges))
	var cReps []int
	var cKeys []canon.Fingerprint
	for e := range m.edges {
		k := compactKey{plan.eClass[e], rClass[m.edges[e][0]], rClass[m.edges[e][1]]}
		ci, ok := byKey[k]
		if !ok {
			ci = len(cReps)
			byKey[k] = ci
			cReps = append(cReps, e)
			if rFPs != nil {
				w := canon.NewWriter()
				w.Label("cost.store.compact/v1")
				w.FP(plan.eFPs[k.ec])
				w.FP(pKeys[k.pu])
				w.FP(pKeys[k.pv])
				cKeys = append(cKeys, w.Sum())
			}
		}
		cClass[e] = ci
	}
	if !anyPruned {
		// Nothing pruned anywhere: every compacted table would alias the
		// full one, so skip the gather pass entirely.
		return
	}
	cTab := make([][]float64, len(cReps))
	cTabT := make([][]float64, len(cReps))
	cKv := make([]int, len(cReps))
	parallelFor(ctx, len(cReps), func(ci int) {
		build := func() (any, int64, error) {
			e := cReps[ci]
			u, v := m.edges[e][0], m.edges[e][1]
			ku, kv := len(m.fullCfgs[u]), m.txKv[e]
			nu, nv := len(m.cfgs[u]), len(m.cfgs[v])
			if nu == ku && nv == kv {
				// Neither endpoint pruned: alias the full table (its bytes
				// are already charged to the edge entry).
				return compactTables{tab: m.tx[e], tabT: m.txT[e], kv: kv}, 0, nil
			}
			tab := make([]float64, nu*nv)
			tabT := make([]float64, nu*nv)
			old := m.tx[e]
			for i, cu := range keep[u] {
				row := old[cu*kv : cu*kv+kv]
				for j, cv := range keep[v] {
					c := row[cv]
					tab[i*nv+j] = c
					tabT[j*nu+i] = c
				}
			}
			return compactTables{tab: tab, tabT: tabT, kv: nv}, int64(len(tab)) * 16, nil
		}
		var ct compactTables
		if store == nil {
			val, _, _ := build()
			ct = val.(compactTables)
		} else {
			val, hit, bytes, _ := store.getOrBuild(cKeys[ci], build)
			ct = val.(compactTables)
			if hit {
				storeHits.Add(1)
				storeBytes.Add(bytes)
			} else {
				storeMiss.Add(1)
			}
		}
		cTab[ci], cTabT[ci], cKv[ci] = ct.tab, ct.tabT, ct.kv
	})
	if ctx.Err() != nil {
		return
	}
	for e := range m.edges {
		m.tx[e] = cTab[cClass[e]]
		m.txT[e] = cTabT[cClass[e]]
		m.txKv[e] = cKv[cClass[e]]
	}
}
