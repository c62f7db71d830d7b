// Package export serializes parallelization strategies to JSON so they can
// be handed to execution frameworks. The paper notes (§VI) that systems like
// Mesh-TensorFlow and GShard "enable automatically converting these
// user-specified strategies into efficient parallel programs" — this is the
// interchange format for that hand-off.
package export

import (
	"encoding/json"
	"fmt"
	"io"

	"pase/internal/graph"
	"pase/internal/itspace"
)

// Layer is one node's strategy entry.
type Layer struct {
	// Name is the layer's name in the computation graph.
	Name string `json:"name"`
	// Op is the layer kind (fc, conv2d, lstm, ...).
	Op string `json:"op"`
	// Dims is the iteration-space dimension string, e.g. "bnc".
	Dims string `json:"dims"`
	// Config is the per-dimension split factor tuple.
	Config []int `json:"config"`
}

// Document is a complete serialized strategy.
type Document struct {
	// Model names the network the strategy parallelizes.
	Model string `json:"model"`
	// Devices is p, the device count the strategy was computed for.
	Devices int `json:"devices"`
	// CostSeconds is the cost model's estimated per-step time, if known.
	CostSeconds float64 `json:"cost_seconds,omitempty"`
	// Fingerprint, when set, is the canonical fingerprint (hex) of the solve
	// request that produced this strategy — the planner/daemon cache key, so
	// consumers can correlate exported documents with served requests.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Method, when set, names the solve method that produced this strategy:
	// "dp" (the paper's dynamic program), "beam" (the anytime bounded-width
	// DP), "mcmc", "dataparallel", or "expert:<family>".
	Method string `json:"method,omitempty"`
	// Gap / Exact / BeamWidth, when set, record the anytime-beam provenance
	// of this strategy: the true optimum is in [CostSeconds/(1+Gap),
	// CostSeconds]; Exact marks proven optimality ("dp", or "beam" when no
	// frontier truncation occurred, in both cases only without epsilon
	// pruning); BeamWidth is the frontier width a beam solve ran at.
	Gap       float64 `json:"gap,omitempty"`
	Exact     bool    `json:"exact,omitempty"`
	BeamWidth int     `json:"beam_width,omitempty"`
	// PrunedConfigs / KEffective, when set, record the config-space
	// reduction of the solve that produced this strategy: how many candidate
	// configurations dominance pruning removed, and the largest per-vertex
	// configuration count the DP actually iterated over.
	PrunedConfigs int `json:"pruned_configs,omitempty"`
	// KEffective is the post-pruning maximum per-vertex configuration count.
	KEffective int `json:"k_effective,omitempty"`
	// VertexClasses / EdgeClasses, when set, record the structural sharing
	// of the model behind this solve: how many distinct vertex and edge
	// cost tables were built (repeated layers alias shared tables).
	VertexClasses int `json:"vertex_classes,omitempty"`
	EdgeClasses   int `json:"edge_classes,omitempty"`
	// TableBytes is the model's resident cost-table footprint in bytes;
	// SharedTableBytes is what structural sharing saved versus a
	// per-occurrence build.
	TableBytes       int64 `json:"table_bytes,omitempty"`
	SharedTableBytes int64 `json:"shared_table_bytes,omitempty"`
	// ClassStoreHits / ClassStoreBytes, when set, record the cross-request
	// sharing of the model build behind this solve: class tables resolved
	// from the planner's class store instead of rebuilt, and the bytes those
	// hits aliased.
	ClassStoreHits  int64 `json:"class_store_hits,omitempty"`
	ClassStoreBytes int64 `json:"class_store_bytes,omitempty"`
	// Degraded / DegradeReason, when set, record that the planner served
	// this "dp" request through its graceful-degradation ladder: the
	// strategy is a valid bounded-width beam result (Gap/BeamWidth carry its
	// quality contract) produced because the exact solve could not run —
	// "oom" (table budget exceeded) or "pressure" (deep admission queue).
	Degraded      bool   `json:"degraded,omitempty"`
	DegradeReason string `json:"degrade_reason,omitempty"`
	// Layers holds one entry per node, in graph node order.
	Layers []Layer `json:"layers"`
}

// FromStrategy builds a Document from a validated strategy.
func FromStrategy(model string, g *graph.Graph, s graph.Strategy, devices int, costSeconds float64) (*Document, error) {
	if err := s.Validate(g, devices); err != nil {
		return nil, err
	}
	doc := &Document{Model: model, Devices: devices, CostSeconds: costSeconds}
	for _, n := range g.Nodes {
		cfg := make([]int, len(s[n.ID]))
		copy(cfg, s[n.ID])
		doc.Layers = append(doc.Layers, Layer{
			Name:   n.Name,
			Op:     n.Op.String(),
			Dims:   n.Space.Names(),
			Config: cfg,
		})
	}
	return doc, nil
}

// Write serializes the document as indented JSON.
func (d *Document) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Read parses a document.
func Read(r io.Reader) (*Document, error) {
	var d Document
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("export: %w", err)
	}
	return &d, nil
}

// ToStrategy reconstructs and validates the strategy against a graph. Layers
// are matched by position and cross-checked by name.
func (d *Document) ToStrategy(g *graph.Graph) (graph.Strategy, error) {
	if len(d.Layers) != g.Len() {
		return nil, fmt.Errorf("export: document has %d layers, graph has %d", len(d.Layers), g.Len())
	}
	s := make(graph.Strategy, g.Len())
	for i, l := range d.Layers {
		n := g.Nodes[i]
		if l.Name != n.Name {
			return nil, fmt.Errorf("export: layer %d is %q in document but %q in graph", i, l.Name, n.Name)
		}
		s[i] = itspace.Config(append([]int(nil), l.Config...))
	}
	if err := s.Validate(g, d.Devices); err != nil {
		return nil, err
	}
	return s, nil
}
