package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"

	"pase"
)

// costTolerance is the relative difference allowed between two costs of the
// same strategy: the cost model is deterministic, so anything beyond float
// noise is a wrong answer.
const costTolerance = 1e-9

// wireAnswer is the part of a pased solve response the checker reads.
type wireAnswer struct {
	Strategy    json.RawMessage `json:"strategy"`
	CostSeconds float64         `json:"cost_seconds"`
}

// instance is a target lowered to a graph, machine and policy, built by the
// benchmark itself rather than taken from the daemon.
type instance struct {
	g     *pase.Graph
	mach  pase.Machine
	pol   pase.EnumPolicy
	p     int
	model *pase.Model
}

func lowerTarget(t *target) (*instance, error) {
	if t.spec != nil {
		ir, err := pase.LoadSpec(t.spec)
		if err != nil {
			return nil, err
		}
		return &instance{g: ir.G, mach: ir.Machine, pol: ir.Policy, p: ir.Machine.Devices}, nil
	}
	bm, err := pase.BenchmarkByName(t.model)
	if err != nil {
		return nil, err
	}
	mach, err := pase.ParseMachine(t.machine, t.gpus)
	if err != nil {
		return nil, err
	}
	return &instance{g: bm.Build(t.batch), mach: mach, pol: bm.Policy(t.gpus), p: t.gpus}, nil
}

// checker verifies answers against independently built models and the
// stored reference optima.
type checker struct {
	refs      map[string]float64
	instances map[string]*instance // by target key
}

func newChecker(refs map[string]float64) *checker {
	return &checker{refs: refs, instances: map[string]*instance{}}
}

func (c *checker) instance(t *target) (*instance, error) {
	if in, ok := c.instances[t.key]; ok {
		return in, nil
	}
	in, err := lowerTarget(t)
	if err != nil {
		return nil, err
	}
	if in.model, err = pase.NewModel(in.g, in.mach, in.pol); err != nil {
		return nil, err
	}
	c.instances[t.key] = in
	return in, nil
}

// checkSolve verifies one solve answer for t:
//   - the strategy imports against the graph and is valid at p;
//   - pase.StrategyCost on an independently built model equals cost_seconds;
//   - the cost equals the reference optimum where one is stored;
//   - the cost is no worse than data parallelism wherever that is valid.
func (c *checker) checkSolve(t *target, body []byte) error {
	var a wireAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("%s: decode answer: %w", t.key, err)
	}
	if len(a.Strategy) == 0 {
		return fmt.Errorf("%s: answer has no strategy", t.key)
	}
	in, err := c.instance(t)
	if err != nil {
		return fmt.Errorf("%s: %w", t.key, err)
	}
	s, err := pase.ImportStrategy(bytes.NewReader(a.Strategy), in.g)
	if err != nil {
		return fmt.Errorf("%s: strategy does not import: %w", t.key, err)
	}
	if err := s.Validate(in.g, in.p); err != nil {
		return fmt.Errorf("%s: strategy invalid at p=%d: %w", t.key, in.p, err)
	}
	cost, err := pase.StrategyCost(in.model, s)
	if err != nil {
		return fmt.Errorf("%s: strategy cost: %w", t.key, err)
	}
	if !sameCost(cost, a.CostSeconds) {
		return fmt.Errorf("%s: cost_seconds %g, but the strategy costs %g", t.key, a.CostSeconds, cost)
	}
	if ref, ok := c.refs[t.key]; ok && !sameCost(ref, a.CostSeconds) {
		return fmt.Errorf("%s: cost_seconds %g, reference optimum %g", t.key, a.CostSeconds, ref)
	}
	dp := pase.DataParallelStrategy(in.g, in.p)
	if dp.Validate(in.g, in.p) == nil {
		if dpCost, err := pase.StrategyCost(in.model, dp); err == nil && a.CostSeconds > dpCost*(1+costTolerance) {
			return fmt.Errorf("%s: cost_seconds %g exceeds data parallelism's %g", t.key, a.CostSeconds, dpCost)
		}
	}
	return nil
}

// check sets a.err for one distinct answer of an op.
func (c *checker) check(a *answer) {
	if a.status != http.StatusOK {
		a.err = fmt.Errorf("%s %s: status %d: %s", a.op.path, a.op.kind, a.status, firstLine(a.body))
		return
	}
	if a.op.path != "/v1/batch" {
		a.err = c.checkSolve(a.op.items[0], a.body)
		return
	}
	var br struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(a.body, &br); err != nil {
		a.err = fmt.Errorf("batch: decode answer: %w", err)
		return
	}
	if len(br.Results) != len(a.op.items) {
		a.err = fmt.Errorf("batch: %d results for %d requests", len(br.Results), len(a.op.items))
		return
	}
	for i, r := range br.Results {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(r, &e) == nil && e.Error != "" {
			a.err = fmt.Errorf("batch entry %s: %s", a.op.items[i].key, e.Error)
			return
		}
		if err := c.checkSolve(a.op.items[i], r); err != nil {
			a.err = fmt.Errorf("batch entry: %w", err)
			return
		}
	}
}

func sameCost(a, b float64) bool {
	return math.Abs(a-b) <= costTolerance*math.Max(math.Abs(a), math.Abs(b))
}

func firstLine(b []byte) string {
	b = bytes.TrimSpace(b)
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// referenceFile is reference.json: the optimal cost of every request the
// workloads send whose device count the planner can serve, computed by the
// oracle solve.
type referenceFile struct {
	About string             `json:"about"`
	Costs map[string]float64 `json:"costs"`
}

func loadReference(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf referenceFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rf.Costs) == 0 {
		return nil, fmt.Errorf("%s: no reference costs", path)
	}
	return rf.Costs, nil
}

// oracleCost solves t with every config-space reduction off: no pruning, no
// structural interning, no class store, no caches — the slowest and most
// literal form of the paper's DP.
func oracleCost(ctx context.Context, t *target) (float64, error) {
	in, err := lowerTarget(t)
	if err != nil {
		return 0, err
	}
	m, err := pase.NewModelWithOptions(ctx, in.g, in.mach, in.pol, pase.ModelBuildOptions{DisablePruning: true, DisableInterning: true})
	if err != nil {
		return 0, err
	}
	res, err := pase.Solve(ctx, pase.SolveRequest{G: in.g, Spec: in.mach, Model: m, Opts: pase.Options{Policy: in.pol}})
	if err != nil {
		return 0, err
	}
	if err := res.Strategy.Validate(in.g, in.p); err != nil {
		return 0, err
	}
	return res.Cost, nil
}

// writeReference computes the oracle optimum of every non-composite target of
// every workload and writes reference.json.
func writeReference(ctx context.Context, root, path string) error {
	costs := map[string]float64{}
	for _, name := range workloadNames {
		w, err := newWorkload(name, root)
		if err != nil {
			return err
		}
		for _, t := range w.all {
			if _, done := costs[t.key]; done || (t.spec == nil && composite(t.gpus)) {
				continue
			}
			c, err := oracleCost(ctx, t)
			if err != nil {
				return fmt.Errorf("%s: %w", t.key, err)
			}
			costs[t.key] = c
			fmt.Fprintf(os.Stderr, "reference %-40s %.12g\n", t.key, c)
		}
	}
	if len(costs) == 0 {
		return errors.New("no reference targets")
	}
	data, err := json.MarshalIndent(referenceFile{
		About: "Optimal cost_seconds per request, from the oracle solve (DisablePruning + DisableInterning, no class store). Regenerate with: bash perfbench/run.sh -mkref",
		Costs: costs,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
