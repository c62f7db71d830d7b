package pase

// Benchmark harness: one benchmark family per table/figure of the paper's
// evaluation (Section IV). `go test -bench=. -benchmem` regenerates the
// measurements; `go run ./cmd/paper -all` prints the full tables in the
// paper's layouts.
//
//   - BenchmarkTableI_PaSE/BF/MCMC: strategy-search time per model and p
//     (Table I). BF entries that OOM in the paper are skipped here the same
//     way (the solver returns ErrOOM in milliseconds).
//   - BenchmarkTableII: the p=32 solve whose output is the paper's Table II.
//   - BenchmarkFig5: GENERATESEQ ordering time on the structurally
//     interesting graphs.
//   - BenchmarkFig6: end-to-end strategy search + step simulation; the
//     speedup over data parallelism is reported as the custom metric
//     "speedup" (the paper's Fig. 6 y-axis).

import (
	"errors"
	"fmt"
	"testing"

	"pase/internal/seq"
)

var tableIDevices = []int{4, 8, 16, 32, 64}

func benchName(model string, p int) string { return fmt.Sprintf("%s/p=%d", model, p) }

func BenchmarkTableI_PaSE(b *testing.B) {
	for _, bm := range Benchmarks() {
		g := bm.Build(bm.Batch)
		for _, p := range tableIDevices {
			b.Run(benchName(bm.Name, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m, err := NewModel(g, GTX1080Ti(p), bm.Policy(p))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := solveModel(m, Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkTableI_BF(b *testing.B) {
	for _, bm := range Benchmarks() {
		g := bm.Build(bm.Batch)
		for _, p := range []int{8, 32} {
			b.Run(benchName(bm.Name, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m, err := NewModel(g, GTX1080Ti(p), bm.Policy(p))
					if err != nil {
						b.Fatal(err)
					}
					_, err = solveModel(m, Options{BreadthFirst: true})
					if errors.Is(err, ErrOOM) {
						b.Skip("OOM (paper Table I reports the same)")
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkTableI_MCMC(b *testing.B) {
	for _, bm := range Benchmarks() {
		g := bm.Build(bm.Batch)
		for _, p := range []int{8, 32} {
			b.Run(benchName(bm.Name, p), func(b *testing.B) {
				m, err := NewModel(g, GTX1080Ti(p), bm.Policy(p))
				if err != nil {
					b.Fatal(err)
				}
				opts := Options{Method: "mcmc", MCMC: MCMCOptions{Seed: 1, MinIters: 25000}, MCMCInit: "expert:" + bm.Family}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := solveModel(m, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	const p = 32
	for _, bm := range Benchmarks() {
		g := bm.Build(bm.Batch)
		b.Run(bm.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := NewModel(g, GTX1080Ti(p), bm.Policy(p))
				if err != nil {
					b.Fatal(err)
				}
				res, err := solveModel(m, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Strategy) != g.Len() {
					b.Fatal("incomplete strategy")
				}
			}
		})
	}
}

func BenchmarkFig5_GenerateSeq(b *testing.B) {
	entries := []struct {
		name  string
		build func() *Graph
	}{
		{"InceptionV3", func() *Graph { return InceptionV3(128) }},
		{"Transformer", func() *Graph { return Transformer(BaseTransformer(64)) }},
		{"DenseNet", func() *Graph { return DenseNet(128, 8) }},
	}
	for _, e := range entries {
		g := e.build()
		b.Run(e.name, func(b *testing.B) {
			m := 0
			for i := 0; i < b.N; i++ {
				m = seq.Generate(g).MaxDepSize()
			}
			b.ReportMetric(float64(m), "maxDepSize")
		})
	}
}

// BenchmarkSolveWorkers scales the DP fill across worker counts on the
// largest paper solve (Transformer, p=32). The model is prebuilt so only the
// solve is timed; results are byte-identical at every worker count.
func BenchmarkSolveWorkers(b *testing.B) {
	bm, err := BenchmarkByName("transformer")
	if err != nil {
		b.Fatal(err)
	}
	const p = 32
	g := bm.Build(bm.Batch)
	m, err := NewModel(g, GTX1080Ti(p), bm.Policy(p))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := solveModel(m, Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig6(b *testing.B) {
	gpus := []struct {
		name string
		mk   func(int) Machine
	}{
		{"1080Ti", GTX1080Ti},
		{"2080Ti", RTX2080Ti},
	}
	for _, gpu := range gpus {
		for _, bm := range Benchmarks() {
			g := bm.Build(bm.Batch)
			for _, p := range []int{8, 32} {
				b.Run(fmt.Sprintf("%s/%s/p=%d", gpu.name, bm.Name, p), func(b *testing.B) {
					spec := gpu.mk(p)
					speedup := 0.0
					for i := 0; i < b.N; i++ {
						m, err := NewModel(g, spec, bm.Policy(p))
						if err != nil {
							b.Fatal(err)
						}
						res, err := solveModel(m, Options{})
						if err != nil {
							b.Fatal(err)
						}
						dp := DataParallelStrategy(g, p)
						speedup, err = SimulatedSpeedup(g, res.Strategy, dp, spec, bm.Batch)
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(speedup, "speedup")
				})
			}
		}
	}
}
