package cost

// Structural sharing (DESIGN.md "Structural sharing & memory"): the paper's
// benchmark graphs are dominated by repeated structure — a Transformer's six
// identical encoder layers, InceptionV3's repeated inception modules — whose
// nodes and edges produce byte-identical TL rows and TX tables. Instead of
// building and storing one table per occurrence, the model computes a
// canonical *class fingerprint* per vertex and per edge, builds each distinct
// table exactly once, and aliases every class member to the shared slice.
// Three class levels, each keyed by internal/canon fingerprints:
//
//   - Vertex (content) class: machine spec + enumeration policy + the node's
//     cost-relevant content (graph.Node.CanonicalEncodeContent — op,
//     iteration space, tensor refs, FLOPs density, halos, norm dims).
//     Members share their configuration list and TL row.
//   - Edge class: the endpoint vertex classes plus the consumer input slot
//     (which pins the iteration-space mapping of the edge tensor on both
//     sides). Members share their TX table and its transpose.
//   - Prune class: the vertex class plus the ordered incident-edge shape
//     (edge class, orientation, self-loop flag per incidence entry). Two
//     members see byte-identical cost signatures for every configuration, so
//     config-space reduction (prune.go) runs once per prune class and the
//     compacted tables are shared too.
//
// Sharing is value-transparent: a class member's table holds exactly the
// bytes a per-occurrence build would have produced, so solves over an
// interned model are byte-identical — cost and strategy — to the
// BuildOptions.DisableInterning oracle. The wins are build time (one fill
// per class instead of per occurrence) and resident memory
// (Model.TableBytes vs the un-shared footprint; SharedTableBytes is the
// saving).

import (
	"pase/internal/canon"
)

// internPlan is the grouping the builder runs table construction over: dense
// class IDs per node and per edge, plus the representative (first member, in
// node/edge order) of every class.
type internPlan struct {
	vClass []int // per node: dense vertex (content) class ID
	vReps  []int // per vertex class: representative node ID
	eClass []int // per edge: dense edge class ID
	eReps  []int // per edge class: representative edge index
	// Per-class canonical fingerprints — the ClassStore keys. nil for a
	// singleton (DisableInterning) plan, which never shares.
	vFPs []canon.Fingerprint // per vertex class: content fingerprint
	eFPs []canon.Fingerprint // per edge class: endpoint classes + slot
}

// singletonPlan is the DisableInterning oracle: every node and edge is its
// own class, reproducing the per-occurrence build exactly.
func singletonPlan(nNodes, nEdges int) *internPlan {
	p := &internPlan{
		vClass: make([]int, nNodes),
		vReps:  make([]int, nNodes),
		eClass: make([]int, nEdges),
		eReps:  make([]int, nEdges),
	}
	for i := range p.vClass {
		p.vClass[i] = i
		p.vReps[i] = i
	}
	for e := range p.eClass {
		p.eClass[e] = e
		p.eReps[e] = e
	}
	return p
}

// vertexClassFingerprints hashes every node's class identity: the machine
// spec and enumeration policy (they determine the configuration set and the
// pricing of every layer term) plus the node's cost-relevant content. It
// runs serially — one SHA-256 over a node's ~1 KB content is microseconds,
// noise next to the table builds the classes then deduplicate.
func (m *Model) vertexClassFingerprints() []canon.Fingerprint {
	fps := make([]canon.Fingerprint, m.G.Len())
	for id := range fps {
		w := canon.NewWriter()
		w.Label("cost.vertex-class/v1")
		m.Spec.CanonicalEncode(w)
		m.Policy.CanonicalEncode(w)
		m.G.Nodes[id].CanonicalEncodeContent(w)
		fps[id] = w.Sum()
	}
	return fps
}

// buildInternPlan groups nodes by content fingerprint and edges by (producer
// class, consumer class, input slot). Class IDs are assigned in first-member
// order, so representatives and IDs are deterministic for a given graph.
func (m *Model) buildInternPlan() *internPlan {
	p := &internPlan{
		vClass: make([]int, m.G.Len()),
		eClass: make([]int, len(m.edges)),
	}
	byFP := make(map[canon.Fingerprint]int, m.G.Len())
	for id, fp := range m.vertexClassFingerprints() {
		ci, ok := byFP[fp]
		if !ok {
			ci = len(p.vReps)
			byFP[fp] = ci
			p.vReps = append(p.vReps, id)
			p.vFPs = append(p.vFPs, fp)
		}
		p.vClass[id] = ci
	}
	type edgeKey struct{ cu, cv, slot int }
	byKey := make(map[edgeKey]int, len(m.edges))
	for e, uv := range m.edges {
		k := edgeKey{p.vClass[uv[0]], p.vClass[uv[1]], m.inSlot[e]}
		ci, ok := byKey[k]
		if !ok {
			ci = len(p.eReps)
			byKey[k] = ci
			p.eReps = append(p.eReps, e)
			w := canon.NewWriter()
			w.Label("cost.edge-class/v1")
			w.FP(p.vFPs[k.cu])
			w.FP(p.vFPs[k.cv])
			w.Int(k.slot)
			p.eFPs = append(p.eFPs, w.Sum())
		}
		p.eClass[e] = ci
	}
	return p
}

// pruneClasses groups nodes whose cost signatures (prune.go sigVisit) are
// byte-identical for every configuration: same vertex class and the same
// ordered incident-edge shape. rClass[v] is the dense prune-class ID,
// rReps[c] its representative node, rFPs[c] its canonical fingerprint —
// composed from the member class fingerprints (not dense per-model IDs), so
// it identifies the class across models and keys the ClassStore's prune
// entries. With a singleton plan every node is its own prune class and no
// fingerprints are computed (nothing is shared or compared).
func (m *Model) pruneClasses(p *internPlan) (rClass []int, rReps []int, rFPs []canon.Fingerprint) {
	rClass = make([]int, m.G.Len())
	if p.vFPs == nil {
		for v := range rClass {
			rClass[v] = v
			rReps = append(rReps, v)
		}
		return rClass, rReps, nil
	}
	byFP := make(map[canon.Fingerprint]int, m.G.Len())
	for v := range rClass {
		w := canon.NewWriter()
		w.Label("cost.prune-class/v2")
		w.FP(p.vFPs[p.vClass[v]])
		w.Len(len(m.inc[v]))
		for _, ie := range m.inc[v] {
			w.FP(p.eFPs[p.eClass[ie.E]])
			w.Bool(ie.VIsU)
			w.Bool(ie.Self)
		}
		fp := w.Sum()
		ci, ok := byFP[fp]
		if !ok {
			ci = len(rReps)
			byFP[fp] = ci
			rReps = append(rReps, v)
			rFPs = append(rFPs, fp)
		}
		rClass[v] = ci
	}
	return rClass, rReps, rFPs
}

// computeTableStats fills the model's structural-sharing counters after the
// tables (and any compaction) are final: resident bytes count each distinct
// backing slice once (aliases identified by their first element's address),
// logical bytes are what a per-occurrence build would hold, and the
// difference is the sharing saving.
func (m *Model) computeTableStats(p *internPlan) {
	m.vertexClasses = len(p.vReps)
	m.edgeClasses = len(p.eReps)
	seen := make(map[*float64]bool, len(m.tl)+2*len(m.tx))
	var resident, logical int64
	count := func(s []float64) {
		if len(s) == 0 {
			return
		}
		logical += int64(len(s))
		if f := &s[0]; !seen[f] {
			seen[f] = true
			resident += int64(len(s))
		}
	}
	for _, row := range m.tl {
		count(row)
	}
	for e := range m.tx {
		count(m.tx[e])
		count(m.txT[e])
	}
	m.tableBytes = resident * 8
	m.sharedTableBytes = (logical - resident) * 8
}

// VertexClasses returns the number of distinct vertex (content) classes the
// build found — nodes within a class share their configuration list and TL
// row. Equals Len(G) when interning is disabled or the graph has no repeated
// structure.
func (m *Model) VertexClasses() int { return m.vertexClasses }

// EdgeClasses returns the number of distinct edge classes — edges within a
// class share their TX table and transpose. Equals len(Edges()) when
// interning is disabled or no structure repeats.
func (m *Model) EdgeClasses() int { return m.edgeClasses }

// TableBytes returns the resident bytes of the model's cost tables (TL rows
// plus TX tables and transposes), counting each shared slice once — the
// memory the model actually holds.
func (m *Model) TableBytes() int64 { return m.tableBytes }

// SharedTableBytes returns the bytes structural sharing saved: the
// per-occurrence (un-interned) table footprint minus TableBytes. Zero when
// interning is disabled or nothing repeats.
func (m *Model) SharedTableBytes() int64 { return m.sharedTableBytes }

// ClassStoreHits returns how many class references this build resolved from
// its ClassStore (zero without a store); ClassStoreMisses how many it built
// and published; ClassStoreBytes the table bytes the hits aliased instead of
// rebuilding.
func (m *Model) ClassStoreHits() int64   { return m.classStoreHits }
func (m *Model) ClassStoreMisses() int64 { return m.classStoreMiss }
func (m *Model) ClassStoreBytes() int64  { return m.classStoreBytes }
