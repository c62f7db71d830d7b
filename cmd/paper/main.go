// Command paper regenerates every table and figure of the PaSE paper's
// evaluation (Section IV) on the simulated substrate:
//
//	paper -table1          Table I: strategy-search time (BF vs MCMC vs PaSE)
//	paper -table2          Table II: best strategies at p=32
//	paper -fig5            Fig. 5: graph structure & ordering statistics
//	paper -fig6            Fig. 6: speedup over data parallelism (both GPUs)
//	paper -all             everything
//	paper -fast            restrict sweeps to p ≤ 16 (quick smoke run)
//	paper -csv DIR         additionally write CSV series into DIR
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pase"
	"pase/internal/report"
	"pase/internal/seq"
)

type opts struct {
	fast   bool
	csvDir string
}

func main() {
	var (
		t1   = flag.Bool("table1", false, "regenerate Table I (search times)")
		t2   = flag.Bool("table2", false, "regenerate Table II (best strategies at p=32)")
		f5   = flag.Bool("fig5", false, "regenerate Fig. 5 statistics (graph structure, ordering quality)")
		f6   = flag.Bool("fig6", false, "regenerate Fig. 6 (speedups over data parallelism)")
		all  = flag.Bool("all", false, "regenerate everything")
		fast = flag.Bool("fast", false, "restrict device sweeps to p ≤ 16")
		csv  = flag.String("csv", "", "directory to write CSV copies into")
	)
	flag.Parse()
	o := opts{fast: *fast, csvDir: *csv}
	if *all {
		*t1, *t2, *f5, *f6 = true, true, true, true
	}
	if !*t1 && !*t2 && !*f5 && !*f6 {
		flag.Usage()
		os.Exit(2)
	}
	steps := []struct {
		on  bool
		fn  func(opts) error
		tag string
	}{
		{*t1, table1, "table1"},
		{*t2, table2, "table2"},
		{*f5, fig5, "fig5"},
		{*f6, fig6, "fig6"},
	}
	for _, s := range steps {
		if !s.on {
			continue
		}
		if err := s.fn(o); err != nil {
			fmt.Fprintf(os.Stderr, "paper: %s: %v\n", s.tag, err)
			os.Exit(1)
		}
	}
}

func (o opts) devices() []int {
	if o.fast {
		return []int{4, 8, 16}
	}
	return []int{4, 8, 16, 32, 64}
}

func (o opts) emit(name string, tb *report.Table) error {
	if err := tb.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if o.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.csvDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tb.CSV(f)
}

// solveModel runs one solve method over a prebuilt model, so every method in
// a row prices the same cost tables.
func solveModel(m *pase.Model, o pase.Options) (*pase.Result, error) {
	return pase.Solve(context.Background(), pase.SolveRequest{Model: m, Opts: o})
}

// mcmcOpts is the paper's FlexFlow protocol: the MCMC chain seeded with the
// model family's expert strategy.
func mcmcOpts(bm pase.Benchmark) pase.Options {
	return pase.Options{
		Method:   "mcmc",
		MCMC:     pase.MCMCOptions{Seed: 1, MinIters: 25000},
		MCMCInit: "expert:" + bm.Family,
	}
}

// table1 measures strategy-search time for breadth-first ordering, the MCMC
// (FlexFlow-substitute) search, and PaSE, per model and device count.
func table1(o opts) error {
	tb := &report.Table{
		Title:  "Table I: time to find parallelization strategies (mins:secs.msecs)",
		Header: []string{"Model", "p", "BF", "FlexFlow(MCMC)", "PaSE (ours)"},
	}
	for _, bm := range pase.Benchmarks() {
		g := bm.Build(bm.Batch)
		for _, p := range o.devices() {
			m, err := pase.NewModel(g, pase.GTX1080Ti(p), bm.Policy(p))
			if err != nil {
				return err
			}

			// Breadth-first ordering (naive recurrence 2).
			bfCell := ""
			start := time.Now()
			if _, err := solveModel(m, pase.Options{BreadthFirst: true}); err != nil {
				if errors.Is(err, pase.ErrOOM) {
					bfCell = "OOM"
				} else {
					return err
				}
			} else {
				bfCell = report.Duration(time.Since(start))
			}

			// MCMC seeded with the expert strategy (paper's protocol).
			mc, err := solveModel(m, mcmcOpts(bm))
			if err != nil {
				return err
			}

			// PaSE. Use a fresh model so memoized costs from the runs above
			// do not flatter the measurement.
			m2, err := pase.NewModel(g, pase.GTX1080Ti(p), bm.Policy(p))
			if err != nil {
				return err
			}
			res, err := solveModel(m2, pase.Options{})
			if err != nil {
				return err
			}

			tb.Add(bm.Name, p, bfCell,
				report.Duration(mc.SearchTime), report.Duration(res.SearchTime))
		}
	}
	return o.emit("table1", tb)
}

// table2 prints the best strategies at p=32 in the paper's layout.
func table2(o opts) error {
	const p = 32
	for _, bm := range pase.Benchmarks() {
		g := bm.Build(bm.Batch)
		m, err := pase.NewModel(g, pase.GTX1080Ti(p), bm.Policy(p))
		if err != nil {
			return err
		}
		res, err := solveModel(m, pase.Options{})
		if err != nil {
			return err
		}
		tb := &report.Table{
			Title:  fmt.Sprintf("Table II (%s): best strategy on 4 nodes × 8 1080Ti (p=32)", bm.Name),
			Header: []string{"Layer", "Dimensions", "Configuration"},
		}
		for _, n := range g.Nodes {
			tb.Add(n.Name, n.Space.Names(), res.Strategy[n.ID].String())
		}
		if err := o.emit("table2_"+strings.ToLower(bm.Name), tb); err != nil {
			return err
		}
	}
	return nil
}

// fig5 reports the graph-structure and ordering statistics behind the
// paper's Fig. 5 discussion, including the DenseNet worst case of §V.
func fig5(o opts) error {
	tb := &report.Table{
		Title: "Fig. 5 statistics: graph sparsity and ordering quality",
		Header: []string{"Model", "|V|", "deg<5", "deg≥5",
			"M (GENERATESEQ)", "M (BF)", "K (p=8)", "K (p=64)"},
	}
	type entry struct {
		name  string
		build func() *pase.Graph
		pol   func(p int) pase.EnumPolicy
	}
	entries := []entry{}
	for _, bm := range pase.Benchmarks() {
		bm := bm
		entries = append(entries, entry{bm.Name, func() *pase.Graph { return bm.Build(bm.Batch) }, bm.Policy})
	}
	entries = append(entries, entry{
		"DenseNet (§V)",
		func() *pase.Graph { return pase.DenseNet(128, 8) },
		func(int) pase.EnumPolicy { return pase.EnumPolicy{} },
	})
	for _, e := range entries {
		g := e.build()
		low, high := 0, 0
		for d, c := range g.DegreeHistogram() {
			if d < 5 {
				low += c
			} else {
				high += c
			}
		}
		genM, bfM, k8, err := pase.OrderingStats(g, pase.GTX1080Ti(8), e.pol(8))
		if err != nil {
			return err
		}
		_, _, k64, err := pase.OrderingStats(g, pase.GTX1080Ti(64), e.pol(64))
		if err != nil {
			return err
		}
		tb.Add(e.name, g.Len(), low, high, genM, bfM, k8, k64)
	}
	if err := o.emit("fig5", tb); err != nil {
		return err
	}

	// Dependent-set histogram for InceptionV3, the paper's worked example.
	g := pase.InceptionV3(128)
	st := seq.Summarize(seq.Generate(g))
	fmt.Printf("InceptionV3 GENERATESEQ dependent-set sizes: %v (max |D∪{v}| = %d, paper: ≤ 3)\n\n",
		st.DepHistogram, st.MaxState)
	return nil
}

// fig6 regenerates the speedup-over-data-parallelism comparison on the
// simulated 1080Ti and 2080Ti clusters.
func fig6(o opts) error {
	for _, gpu := range []string{"1080Ti", "2080Ti"} {
		tb := &report.Table{
			Title:  fmt.Sprintf("Fig. 6 (%s): simulated speedup over data parallelism", gpu),
			Header: []string{"Model", "p", "Expert", "FlexFlow(MCMC)", "PaSE (ours)"},
		}
		for _, bm := range pase.Benchmarks() {
			g := bm.Build(bm.Batch)
			for _, p := range o.devices() {
				spec := pase.GTX1080Ti(p)
				if gpu == "2080Ti" {
					spec = pase.RTX2080Ti(p)
				}
				m, err := pase.NewModel(g, spec, bm.Policy(p))
				if err != nil {
					return err
				}
				dp := pase.DataParallelStrategy(g, p)
				exp, err := solveModel(m, pase.Options{Method: "expert:" + bm.Family})
				if err != nil {
					return err
				}
				mc, err := solveModel(m, mcmcOpts(bm))
				if err != nil {
					return err
				}
				res, err := solveModel(m, pase.Options{})
				if err != nil {
					return err
				}
				se, err := pase.SimulatedSpeedup(g, exp.Strategy, dp, spec, bm.Batch)
				if err != nil {
					return err
				}
				sm, err := pase.SimulatedSpeedup(g, mc.Strategy, dp, spec, bm.Batch)
				if err != nil {
					return err
				}
				sp, err := pase.SimulatedSpeedup(g, res.Strategy, dp, spec, bm.Batch)
				if err != nil {
					return err
				}
				tb.Add(bm.Name, p,
					fmt.Sprintf("%.2f", se), fmt.Sprintf("%.2f", sm), fmt.Sprintf("%.2f", sp))
			}
		}
		if err := o.emit("fig6_"+strings.ToLower(gpu), tb); err != nil {
			return err
		}
	}
	return nil
}
