package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"pase"
)

// models is the registry model set every workload draws from.
var models = []string{"alexnet", "rnnlm", "inceptionv3", "transformer", "gptdeep:2"}

var machines = []string{"1080ti", "2080ti"}

// target is one solvable request: its wire form and what the answer checker
// needs to rebuild the graph independently.
type target struct {
	// key names the request in reference.json. A permuted re-send of a spec
	// shares its original's key: same meaning, different bytes.
	key string
	// kind groups targets of similar latency for the per-kind breakdown.
	kind    string
	model   string // registry name; empty for inline specs
	batch   int64  // effective mini-batch (registry targets)
	gpus    int
	machine string
	// spec is the inline pase-graph/v1 document of spec targets.
	spec  []byte
	body  []byte // POST /v1/solve body
	solve *op    // the op sending body, shared by every draw of t
}

// wireRequest is pased's solve request wire shape (cmd/pased solveRequest),
// restricted to the fields the benchmark sends.
type wireRequest struct {
	Model   string          `json:"model,omitempty"`
	Spec    json.RawMessage `json:"spec,omitempty"`
	Batch   int64           `json:"batch,omitempty"`
	GPUs    int             `json:"gpus,omitempty"`
	Machine string          `json:"machine,omitempty"`
}

func registryTarget(model string, gpus int, machine string, batchFactor int64) (*target, error) {
	bm, err := pase.BenchmarkByName(model)
	if err != nil {
		return nil, err
	}
	t := &target{model: model, batch: bm.Batch * batchFactor, gpus: gpus, machine: machine, kind: model}
	t.key = fmt.Sprintf("%s/p%d/%s/b%d", model, gpus, machine, t.batch)
	wr := wireRequest{Model: model, GPUs: gpus, Machine: machine}
	if batchFactor != 1 {
		wr.Batch = t.batch
	}
	t.body, err = json.Marshal(wr)
	return t, err
}

func specTarget(key, kind string, doc []byte) (*target, error) {
	body, err := json.Marshal(wireRequest{Spec: doc})
	if err != nil {
		return nil, err
	}
	return &target{key: key, kind: kind, spec: doc, body: body}, nil
}

// composite reports whether p is not a power of two: the device counts the
// planner cannot serve at this commit (see README).
func composite(p int) bool { return p&(p-1) != 0 }

// op is one HTTP request of a workload: a single solve, or a /v1/batch call
// carrying several working-set entries.
type op struct {
	path  string
	body  []byte
	items []*target
	kind  string
}

func solveOp(t *target) *op {
	if t.solve == nil {
		t.solve = &op{path: "/v1/solve", body: t.body, items: []*target{t}, kind: t.kind}
	}
	return t.solve
}

func batchOp(ts []*target) *op {
	var b bytes.Buffer
	b.WriteString(`{"requests":[`)
	for i, t := range ts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(t.body)
	}
	b.WriteString(`]}`)
	return &op{path: "/v1/batch", body: b.Bytes(), items: ts, kind: "batch"}
}

// sequence hands out a workload's seeded op order to concurrent clients. A
// finite sequence ends when exhausted; an endless one is dealt deck by deck,
// each deck a fresh seeded shuffle of the same multiset of ops, so the mix of
// request kinds is exact at every deck boundary.
type sequence struct {
	mu   sync.Mutex
	ops  []*op
	deck []*op // nil for a finite sequence
	rng  *rand.Rand
	next int
}

func (s *sequence) take() *op {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next == len(s.ops) {
		if s.deck == nil {
			return nil
		}
		s.ops = append(s.ops, shuffled(s.rng, s.deck)...)
	}
	s.next++
	return s.ops[s.next-1]
}

// sent returns the ops handed out so far, in order.
func (s *sequence) sent() []*op {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops[:s.next]
}

func shuffled(rng *rand.Rand, ops []*op) []*op {
	out := append([]*op(nil), ops...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// workload is one traffic mix.
type workload struct {
	name    string
	clients int
	// fleet runs two pased members; clients talk to the first only.
	fleet bool
	// setupReps is how many times an untraced run sets the workload up;
	// setup_s is the median and the last setup serves the timed phase.
	setupReps int
	// prewarm is solved on the owning member during setup, off the clock.
	prewarm []*target
	// newSequence builds the seeded request order of one run.
	newSequence func(rng *rand.Rand) *sequence
	// all lists every target the workload can send, for the reference.
	all []*target
}

func newWorkload(name, root string) (*workload, error) {
	switch name {
	case "solve-cold":
		return solveCold()
	case "hit-fleet":
		return hitFleet()
	case "hit-spec":
		return hitSpec(root)
	}
	return nil, fmt.Errorf("unknown workload %q (want solve-cold, hit-fleet or hit-spec)", name)
}

// solveCold is every distinct registry solve of models × p × machine ×
// {paper batch, 2× batch}, each sent once. The requests are grouped in
// sweeps, one per (model, machine, batch), that walk p upwards as a sweep
// script would; the seed orders the sweeps.
func solveCold() (*workload, error) {
	var sweeps [][]*target
	var all []*target
	for _, m := range models {
		for _, mach := range machines {
			for _, bf := range []int64{1, 2} {
				var sweep []*target
				for _, p := range []int{2, 4, 6, 8, 12, 16, 24, 32} {
					t, err := registryTarget(m, p, mach, bf)
					if err != nil {
						return nil, err
					}
					sweep = append(sweep, t)
				}
				sweeps = append(sweeps, sweep)
				all = append(all, sweep...)
			}
		}
	}
	w := &workload{name: "solve-cold", clients: 1, setupReps: 9, all: all}
	w.newSequence = func(rng *rand.Rand) *sequence {
		s := &sequence{}
		for _, i := range rng.Perm(len(sweeps)) {
			for _, t := range sweeps[i] {
				s.ops = append(s.ops, solveOp(t))
			}
		}
		return s
	}
	return w, nil
}

// zipfCounts spreads n draws over ranks 1..k with weight 1/r^s, rounding by
// largest remainder so the counts sum to n exactly.
func zipfCounts(k, n int, s float64) []int {
	w := make([]float64, k)
	var sum float64
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), s)
		sum += w[r]
	}
	counts := make([]int, k)
	type rem struct {
		r int
		f float64
	}
	rems := make([]rem, k)
	left := n
	for r := range w {
		x := w[r] / sum * float64(n)
		counts[r] = int(x)
		left -= counts[r]
		rems[r] = rem{r, x - float64(counts[r])}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].f > rems[j].f })
	for i := 0; i < left; i++ {
		counts[rems[i].r]++
	}
	return counts
}

// Hit-fleet mix: a deck of fleetDeck ops, fleetBatches of them /v1/batch
// calls of fleetBatchSize entries, the rest single solves drawn Zipf-like
// (exponent fleetZipf) over the working set.
const (
	fleetDeck      = 200
	fleetBatches   = 10
	fleetBatchSize = 4
	// fleetBatchKinds is how many distinct batch compositions a run uses.
	fleetBatchKinds = 4
	fleetZipf       = 0.8
)

// hitFleet is the 40-key registry working set served by a two-member fleet.
// The Zipf ranks are fixed by ownership (see rankFleetKeys) once the member
// URLs are known, so the forwarded share does not depend on the seed.
func hitFleet() (*workload, error) {
	var all []*target
	for _, m := range models {
		for _, mach := range machines {
			for _, p := range []int{4, 8, 16, 32} {
				t, err := registryTarget(m, p, mach, 1)
				if err != nil {
					return nil, err
				}
				all = append(all, t)
			}
		}
	}
	return &workload{name: "hit-fleet", clients: 2, fleet: true, setupReps: 2, prewarm: all, all: all}, nil
}

// rankFleetKeys orders the working set for the Zipf draw and builds the
// seeded sequence. Ranks alternate between keys the addressed member owns
// and keys it forwards, so about half of all solves are forwarded whichever
// keys the hash assigns to whom; within each owner, keys are taken in a
// fixed model order that interleaves fast and slow models.
func rankFleetKeys(w *workload, owned func(*target) bool) {
	order := map[string]int{"transformer": 0, "alexnet": 1, "inceptionv3": 2, "rnnlm": 3, "gptdeep:2": 4}
	var local, remote []*target
	for _, t := range w.all {
		t.kind = "local/" + t.model
		if !owned(t) {
			t.kind = "forwarded/" + t.model
		}
	}
	sorted := append([]*target(nil), w.all...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.gpus != b.gpus {
			return a.gpus < b.gpus
		}
		if a.machine != b.machine {
			return a.machine < b.machine
		}
		return order[a.model] < order[b.model]
	})
	for _, t := range sorted {
		if owned(t) {
			local = append(local, t)
		} else {
			remote = append(remote, t)
		}
	}
	var ranked []*target
	for i := 0; i < len(local) || i < len(remote); i++ {
		if i < len(local) {
			ranked = append(ranked, local[i])
		}
		if i < len(remote) {
			ranked = append(ranked, remote[i])
		}
	}
	w.newSequence = func(rng *rand.Rand) *sequence {
		var deck []*op
		for r, c := range zipfCounts(len(ranked), fleetDeck-fleetBatches, fleetZipf) {
			for ; c > 0; c-- {
				deck = append(deck, solveOp(ranked[r]))
			}
		}
		// A few fixed batch compositions per run, each fleetBatchSize
		// distinct keys drawn from the same skew.
		weights := zipfCounts(len(ranked), 1000, fleetZipf)
		batches := make([]*op, fleetBatchKinds)
		for i := range batches {
			batches[i] = batchOp(drawDistinct(rng, ranked, weights, fleetBatchSize))
		}
		for b := 0; b < fleetBatches; b++ {
			deck = append(deck, batches[b%len(batches)])
		}
		return &sequence{deck: deck, rng: rng}
	}
}

func drawDistinct(rng *rand.Rand, ts []*target, weights []int, n int) []*target {
	total := 0
	for _, w := range weights {
		total += w
	}
	seen := map[int]bool{}
	var out []*target
	for len(out) < n {
		x := rng.Intn(total)
		for i, w := range weights {
			if x < w {
				if !seen[i] {
					seen[i] = true
					out = append(out, ts[i])
				}
				break
			}
			x -= w
		}
	}
	return out
}

// specPermutedPct is the percentage of each spec kind's sends that carry the
// node-order-permuted re-encoding instead of the original document.
const specPermutedPct = 30

// specShares is each latency kind's op count per deck of 100: small
// documents (rnnlm, alexnet), GPTDeep, and large ones (inceptionv3,
// transformer). Chosen so p50 sits inside the GPTDeep band and p90/p99
// inside the large band.
var specShares = map[string]int{"small": 40, "medium": 25, "large": 35}

// hitSpec is the inline-spec working set: the golden specs in
// examples/specs plus pase.ExportSpec of every registry model at p ∈ {4, 16}.
func hitSpec(root string) (*workload, error) {
	type doc struct {
		key, kind string
		data      []byte
	}
	kindOf := func(name string) string {
		switch {
		case strings.Contains(name, "alexnet"), strings.Contains(name, "rnnlm"):
			return "small"
		case strings.Contains(name, "gptdeep"):
			return "medium"
		}
		return "large"
	}
	var docs []doc
	for _, f := range []string{"alexnet", "rnnlm", "inceptionv3", "transformer", "gptdeep3"} {
		data, err := os.ReadFile(filepath.Join(root, "examples", "specs", f+".json"))
		if err != nil {
			return nil, err
		}
		docs = append(docs, doc{"spec/golden/" + f, kindOf(f), data})
	}
	for _, m := range models {
		bm, err := pase.BenchmarkByName(m)
		if err != nil {
			return nil, err
		}
		for _, p := range []int{4, 16} {
			sf, err := pase.ExportSpec(bm.Name, bm.Build(bm.Batch), "1080ti", p, bm.Policy(p), bm.Batch)
			if err != nil {
				return nil, err
			}
			data, err := json.MarshalIndent(sf, "", "  ")
			if err != nil {
				return nil, err
			}
			docs = append(docs, doc{fmt.Sprintf("spec/export/%s/p%d", m, p), kindOf(m), data})
		}
	}
	w := &workload{name: "hit-spec", clients: 2, setupReps: 3}
	byKind := map[string][]*target{}
	var plain []*target
	for _, d := range docs {
		t, err := specTarget(d.key, d.kind, d.data)
		if err != nil {
			return nil, err
		}
		plain = append(plain, t)
		byKind[d.kind] = append(byKind[d.kind], t)
	}
	w.prewarm, w.all = plain, plain
	w.newSequence = func(rng *rand.Rand) *sequence {
		var deck []*op
		for _, kind := range []string{"small", "medium", "large"} {
			ts := byKind[kind]
			perm := make([]*target, len(ts))
			for i, t := range ts {
				pt, err := permutedTarget(rng, t)
				if err != nil {
					panic(err) // t's document parsed when the working set was built
				}
				perm[i] = pt
			}
			n := specShares[kind]
			nperm := n * specPermutedPct / 100
			for i := 0; i < n; i++ {
				if i < nperm {
					deck = append(deck, solveOp(perm[i%len(ts)]))
				} else {
					deck = append(deck, solveOp(ts[i%len(ts)]))
				}
			}
		}
		return &sequence{deck: deck, rng: rng}
	}
	return w, nil
}

// permutedTarget re-encodes t's spec with its node array shuffled. Node ids
// are pinned, so the document means the same graph and fingerprints the same
// as the original, but its bytes differ.
func permutedTarget(rng *rand.Rand, t *target) (*target, error) {
	sf, err := pase.ParseSpec(t.spec)
	if err != nil {
		return nil, err
	}
	rng.Shuffle(len(sf.Nodes), func(i, j int) { sf.Nodes[i], sf.Nodes[j] = sf.Nodes[j], sf.Nodes[i] })
	data, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return nil, err
	}
	return specTarget(t.key, t.kind+"/permuted", data)
}
