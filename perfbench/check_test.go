package main

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"pase"
)

// solvedAnswer solves t in-process and encodes the answer as pased would.
func solvedAnswer(t *testing.T, tg *target, devices int) []byte {
	t.Helper()
	in, err := lowerTarget(tg)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := pase.ParseMachine(tg.machine, devices)
	if err != nil {
		t.Fatal(err)
	}
	bm, _ := pase.BenchmarkByName(tg.model)
	res, err := pase.Solve(context.Background(), pase.SolveRequest{G: in.g, Spec: mach, Opts: pase.Options{Policy: bm.Policy(devices)}})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := pase.ExportStrategy(bm.Name, in.g, res.Strategy, devices, res.Cost)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(wireResponse{Strategy: doc, CostSeconds: res.Cost})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func mustTarget(t *testing.T, model string, p int) *target {
	t.Helper()
	tg, err := registryTarget(model, p, "1080ti", 1)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func TestCheckerAcceptsOptimalAnswer(t *testing.T) {
	tg := mustTarget(t, "alexnet", 8)
	body := solvedAnswer(t, tg, 8)
	ref, err := oracleCost(context.Background(), tg)
	if err != nil {
		t.Fatal(err)
	}
	c := newChecker(map[string]float64{tg.key: ref})
	if err := c.checkSolve(tg, body); err != nil {
		t.Fatalf("optimal answer rejected: %v", err)
	}
}

func TestCheckerRejectsTamperedCost(t *testing.T) {
	tg := mustTarget(t, "alexnet", 8)
	var a map[string]any
	if err := json.Unmarshal(solvedAnswer(t, tg, 8), &a); err != nil {
		t.Fatal(err)
	}
	a["cost_seconds"] = a["cost_seconds"].(float64) * 0.999
	body, _ := json.Marshal(a)
	err := newChecker(nil).checkSolve(tg, body)
	if err == nil || !strings.Contains(err.Error(), "but the strategy costs") {
		t.Fatalf("tampered cost_seconds: got %v, want a cost mismatch", err)
	}
}

func TestCheckerRejectsWrongReference(t *testing.T) {
	tg := mustTarget(t, "rnnlm", 4)
	body := solvedAnswer(t, tg, 4)
	var a wireAnswer
	json.Unmarshal(body, &a)
	err := newChecker(map[string]float64{tg.key: a.CostSeconds * 0.9}).checkSolve(tg, body)
	if err == nil || !strings.Contains(err.Error(), "reference optimum") {
		t.Fatalf("answer above the reference optimum: got %v", err)
	}
}

func TestCheckerRejectsStrategyInvalidAtP(t *testing.T) {
	// A strategy solved for 16 devices imports against the graph (its own
	// document says 16) but does not divide the 8 devices the request asked
	// for.
	tg := mustTarget(t, "alexnet", 8)
	body := solvedAnswer(t, tg, 16)
	err := newChecker(nil).checkSolve(tg, body)
	if err == nil || !strings.Contains(err.Error(), "invalid at p=8") {
		t.Fatalf("strategy for p=16 answering p=8: got %v", err)
	}

	// A split factor that divides no device count fails on import.
	var a map[string]any
	json.Unmarshal(solvedAnswer(t, tg, 8), &a)
	layers := a["strategy"].(map[string]any)["layers"].([]any)
	layers[0].(map[string]any)["config"].([]any)[0] = 3
	tampered, _ := json.Marshal(a)
	if err := newChecker(nil).checkSolve(tg, tampered); err == nil {
		t.Fatal("strategy with a split of 3 at p=8 accepted")
	}
}

func TestCheckerCountsNon200AsFailure(t *testing.T) {
	tg := mustTarget(t, "alexnet", 6)
	a := &answer{op: solveOp(tg), status: 500, body: []byte(`{"error":"x","code":"internal"}`)}
	newChecker(nil).check(a)
	if a.err == nil {
		t.Fatal("500 answer passed the check")
	}
	if !knownDefect(a) {
		t.Fatal("500 at composite p not recognised as the known defect")
	}
}

func TestStripTiming(t *testing.T) {
	in := "{\n  \"cost_seconds\": 1,\n  \"search_ms\": 0.123,\n  \"model_ms\": 0\n}\n"
	want := "{\n  \"cost_seconds\": 1,\n  \"model_ms\": 0\n}\n"
	if got := string(stripTiming(nil, []byte(in))); got != want {
		t.Fatalf("stripTiming = %q, want %q", got, want)
	}
}

func TestZipfCountsSumExactly(t *testing.T) {
	c := zipfCounts(40, 190, fleetZipf)
	sum := 0
	for i, n := range c {
		sum += n
		if i > 0 && n > c[i-1] {
			t.Fatalf("rank %d drawn more often than rank %d", i+1, i)
		}
	}
	if sum != 190 {
		t.Fatalf("counts sum to %d, want 190", sum)
	}
}
