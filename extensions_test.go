package pase

import (
	"bytes"
	"testing"
)

func TestMemoryFootprintAPI(t *testing.T) {
	g := RNNLM(64)
	p := 16
	dp := DataParallelStrategy(g, p)
	fDP, err := MemoryFootprint(g, dp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solve(g, GTX1080Ti(p), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fBest, err := MemoryFootprint(g, res.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	// Paper §II: minimizing time indirectly minimizes space. On the
	// parameter-dominated RNNLM, the found strategy must need less memory
	// than replicating everything.
	if fBest.Total() >= fDP.Total() {
		t.Fatalf("best strategy memory %.3g not below DP %.3g", fBest.Total(), fDP.Total())
	}
}

func TestAssignDevicesAPI(t *testing.T) {
	g := AlexNet(128)
	res, err := solve(g, GTX1080Ti(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := AssignDevices(g, res.Strategy, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.P != 8 || len(a.Layouts) != g.Len() {
		t.Fatalf("bad assignment: p=%d layouts=%d", a.P, len(a.Layouts))
	}
}

func TestExportImportRoundTripAPI(t *testing.T) {
	g := AlexNet(128)
	res, err := solve(g, GTX1080Ti(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ExportStrategy("AlexNet", g, res.Strategy, 8, res.Cost)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ImportStrategy(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	for v := range back {
		if !back[v].Equal(res.Strategy[v]) {
			t.Fatalf("node %d differs after round trip", v)
		}
	}
}

func TestHeterogeneousMachineAPI(t *testing.T) {
	h, err := HeterogeneousMachine(GTX1080Ti(8), RTX2080Ti(8))
	if err != nil {
		t.Fatal(err)
	}
	if h.Devices != 16 {
		t.Fatalf("devices = %d", h.Devices)
	}
	// The combined cluster must be solvable like any other.
	g := AlexNet(128)
	res, err := solve(g, h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Strategy.Validate(g, 16); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPublicAPI(t *testing.T) {
	b := NewBuilder()
	x := b.FC("in", nil, 64, 256, 128)
	x = b.FC("mid", x, 64, 256, 256)
	b.Softmax("out", x, 64, 256)
	if err := b.G.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := solve(b.G, UniformMachine(4, 1e12, 1e10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strategy) != 3 {
		t.Fatalf("strategy covers %d nodes", len(res.Strategy))
	}
}

// PaperEval (the original Eq. 1 FLOP-unit cost) must rank strategies
// consistently with the calibrated seconds pricing on clean comparisons: the
// found optimum does not lose to data parallelism under either metric.
func TestPaperCostRanksConsistently(t *testing.T) {
	for _, bm := range Benchmarks() {
		g := bm.Build(bm.Batch)
		p := 8
		m, err := NewModel(g, GTX1080Ti(p), bm.Policy(p))
		if err != nil {
			t.Fatal(err)
		}
		res, err := solveModel(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		dp := DataParallelStrategy(g, p)
		paperBest, err := m.PaperEval(res.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		paperDP, err := m.PaperEval(dp)
		if err != nil {
			t.Fatal(err)
		}
		if paperBest > paperDP {
			t.Fatalf("%s: paper-cost ranking inverted: best %.4g > DP %.4g",
				bm.Name, paperBest, paperDP)
		}
	}
}
