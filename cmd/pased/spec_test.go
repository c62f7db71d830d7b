package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// getStats fetches /v1/stats and decodes the body.
func getStats(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

// tinySpec is a small hand-written pase-graph/v1 chain used by the inline
// spec wire tests: cheap to solve, carries its own machine.
const tinySpec = `{
  "version": "pase-graph/v1",
  "name": "tinychain",
  "batch": 8,
  "machine": {"gpus": 2, "gpus_per_node": 2, "peak_flops": "11.3TF", "intra_bw": "12GB/s", "inter_bw": "10GB/s"},
  "nodes": [
    {"name": "in", "op": "generic", "dims": [{"name": "b", "size": 8}, {"name": "n", "size": 32}],
     "output": {"map": [0, 1]}},
    {"name": "fc1", "op": "dense", "dims": [{"name": "b", "size": 8}, {"name": "n", "size": 16}, {"name": "k", "size": 32}],
     "flops_per_point": 2, "inputs": [{"map": [0, 2]}], "params": [{"map": [1, 2]}], "output": {"map": [0, 1]}},
    {"name": "out", "op": "softmax", "dims": [{"name": "b", "size": 8}, {"name": "n", "size": 16}],
     "norm_dims": [1], "inputs": [{"map": [0, 1]}], "output": {"map": [0, 1]}}
  ],
  "edges": [
    {"from": "in", "to": "fc1"},
    {"from": "fc1", "to": "out"}
  ]
}`

func specBody(spec string) string {
	return fmt.Sprintf(`{"spec": %s}`, spec)
}

func TestSolveInlineSpec(t *testing.T) {
	ts := newTestServer(t)

	status, first := postJSON(t, ts.URL+"/v1/solve", specBody(tinySpec))
	if status != http.StatusOK {
		t.Fatalf("spec solve status %d: %v", status, first)
	}
	if first["cached"] != false {
		t.Fatalf("first spec solve cached: %v", first["cached"])
	}
	fp, _ := first["fingerprint"].(string)
	if fp == "" {
		t.Fatalf("no fingerprint: %v", first)
	}
	doc, ok := first["strategy"].(map[string]any)
	if !ok {
		t.Fatalf("no strategy document: %v", first)
	}
	if doc["model"] != "tinychain" || doc["devices"] != float64(2) {
		t.Fatalf("bad document header: %v", doc)
	}

	// The same document again — and a permuted copy — are cache hits on the
	// same fingerprint: normalization, not textual identity, keys the cache.
	permuted := strings.Replace(tinySpec,
		`{"from": "in", "to": "fc1"},
    {"from": "fc1", "to": "out"}`,
		`{"from": "fc1", "to": "out"},
    {"from": "in", "to": "fc1"}`, 1)
	if permuted == tinySpec {
		t.Fatal("permutation did not apply")
	}
	status, second := postJSON(t, ts.URL+"/v1/solve", specBody(permuted))
	if status != http.StatusOK {
		t.Fatalf("permuted spec solve status %d: %v", status, second)
	}
	if second["cached"] != true {
		t.Fatalf("permuted spec solve not cached: %v", second["cached"])
	}
	if second["fingerprint"] != fp {
		t.Fatalf("permuted fingerprint %v != %v", second["fingerprint"], fp)
	}

	// Stats count the spec traffic.
	stats := getStats(t, ts)
	if stats["spec_solves"] != float64(2) {
		t.Fatalf("spec_solves = %v, want 2", stats["spec_solves"])
	}
	if stats["spec_errors"] != float64(0) {
		t.Fatalf("spec_errors = %v, want 0", stats["spec_errors"])
	}
}

func TestSolveInlineSpecErrors(t *testing.T) {
	ts := newTestServer(t)

	// spec + model are mutually exclusive.
	status, body := postJSON(t, ts.URL+"/v1/solve",
		fmt.Sprintf(`{"model": "alexnet", "gpus": 8, "spec": %s}`, tinySpec))
	if status != http.StatusBadRequest || body["code"] != "bad_request" {
		t.Fatalf("conflict: status %d body %v", status, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "mutually exclusive") {
		t.Fatalf("conflict error %q", msg)
	}

	// An invalid spec fails with structured path-addressed details.
	broken := strings.Replace(tinySpec, `"flops_per_point": 2`, `"flops_per_point": -2`, 1)
	status, body = postJSON(t, ts.URL+"/v1/solve", specBody(broken))
	if status != http.StatusBadRequest || body["code"] != "bad_request" {
		t.Fatalf("broken spec: status %d body %v", status, body)
	}
	details, ok := body["details"].([]any)
	if !ok || len(details) == 0 {
		t.Fatalf("broken spec carries no details: %v", body)
	}
	d0, _ := details[0].(map[string]any)
	if d0["path"] != "nodes[1].flops_per_point" {
		t.Fatalf("detail path %v", d0)
	}
	if msg, _ := d0["msg"].(string); !strings.Contains(msg, ">= 0") {
		t.Fatalf("detail msg %v", d0)
	}

	// Both rejections counted.
	stats := getStats(t, ts)
	if stats["spec_errors"] != float64(2) {
		t.Fatalf("spec_errors = %v, want 2", stats["spec_errors"])
	}
}

func TestBatchInlineSpec(t *testing.T) {
	ts := newTestServer(t)
	broken := strings.Replace(tinySpec, `"op": "dense"`, `"op": "perceptron"`, 1)
	body := fmt.Sprintf(`{"requests": [
		{"spec": %s},
		{"model": "alexnet", "gpus": 4},
		{"spec": %s}
	]}`, tinySpec, broken)
	status, out := postJSON(t, ts.URL+"/v1/batch", body)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %v", status, out)
	}
	results, ok := out["results"].([]any)
	if !ok || len(results) != 3 {
		t.Fatalf("batch results: %v", out)
	}
	first, _ := results[0].(map[string]any)
	if fp, _ := first["fingerprint"].(string); first["error"] != nil || fp == "" {
		t.Fatalf("spec item failed: %v", first)
	}
	second, _ := results[1].(map[string]any)
	if second["error"] != nil {
		t.Fatalf("model item failed: %v", second)
	}
	third, _ := results[2].(map[string]any)
	if errMsg, _ := third["error"].(string); !strings.Contains(errMsg, "unknown op") {
		t.Fatalf("broken item error: %v", third)
	}
	details, ok := third["details"].([]any)
	if !ok || len(details) == 0 {
		t.Fatalf("broken batch item carries no details: %v", third)
	}
	if third["code"] != "bad_request" {
		t.Fatalf("broken item code %v, want %q", third["code"], "bad_request")
	}

	// An item whose JSON types are wrong fails alone; its siblings solve.
	status, out = postJSON(t, ts.URL+"/v1/batch", fmt.Sprintf(`{"requests": [
		{"spec": %s},
		{"model": "alexnet", "gpus": "x"},
		{"model": "alexnet", "gpus": 4}
	]}`, tinySpec))
	if status != http.StatusOK {
		t.Fatalf("batch with a mistyped item: status %d: %v", status, out)
	}
	results, ok = out["results"].([]any)
	if !ok || len(results) != 3 {
		t.Fatalf("batch results: %v", out)
	}
	for _, i := range []int{0, 2} {
		if e := results[i].(map[string]any); e["error"] != nil || e["strategy"] == nil {
			t.Fatalf("sibling %d of a mistyped item failed: %v", i, e)
		}
	}
	mistyped := results[1].(map[string]any)
	if mistyped["code"] != "bad_request" || mistyped["error"] == nil || mistyped["strategy"] != nil {
		t.Fatalf("mistyped item %v, want its own bad_request entry", mistyped)
	}
}

func TestCompareRejectsInlineSpec(t *testing.T) {
	ts := newTestServer(t)
	status, body := postJSON(t, ts.URL+"/v1/compare", specBody(tinySpec))
	if status != http.StatusBadRequest || body["code"] != "bad_request" {
		t.Fatalf("compare spec: status %d body %v", status, body)
	}
}
