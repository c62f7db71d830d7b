package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pase"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := newServer(pase.NewPlanner(pase.PlannerConfig{}), 64, 0)
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Fatalf("healthz body %v", body)
	}
}

func TestSolveRoundTripAndCache(t *testing.T) {
	ts := newTestServer(t)
	const req = `{"model":"alexnet","gpus":8,"machine":"1080ti"}`

	status, first := postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("solve status %d: %v", status, first)
	}
	if first["cached"] != false {
		t.Fatalf("first solve cached: %v", first["cached"])
	}
	doc, ok := first["strategy"].(map[string]any)
	if !ok {
		t.Fatalf("no strategy document: %v", first)
	}
	if doc["model"] != "AlexNet" || doc["devices"] != float64(8) {
		t.Fatalf("bad document header: %v", doc)
	}
	layers, ok := doc["layers"].([]any)
	if !ok || len(layers) == 0 {
		t.Fatalf("document has no layers: %v", doc)
	}
	if doc["fingerprint"] == "" || doc["fingerprint"] != first["fingerprint"] {
		t.Fatalf("fingerprint missing or inconsistent: %v vs %v", doc["fingerprint"], first["fingerprint"])
	}
	// Config-space reduction stats ride along on the wire (AlexNet p=8 is a
	// shape where exact dedup fires).
	if ke, ok := first["k_effective"].(float64); !ok || ke <= 0 {
		t.Fatalf("k_effective missing or non-positive: %v", first["k_effective"])
	}
	if pc, ok := first["pruned_configs"].(float64); !ok || pc <= 0 {
		t.Fatalf("pruned_configs missing or non-positive: %v", first["pruned_configs"])
	}
	// Structural-sharing stats ride along too: class counts are positive and
	// the resident table footprint is non-zero for any model-building solve.
	if vc, ok := first["vertex_classes"].(float64); !ok || vc <= 0 {
		t.Fatalf("vertex_classes missing or non-positive: %v", first["vertex_classes"])
	}
	if tb, ok := first["table_bytes"].(float64); !ok || tb <= 0 {
		t.Fatalf("table_bytes missing or non-positive: %v", first["table_bytes"])
	}

	status, second := postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusOK || second["cached"] != true {
		t.Fatalf("second identical solve not cached: %d %v", status, second["cached"])
	}
	a, _ := json.Marshal(first["strategy"])
	b, _ := json.Marshal(second["strategy"])
	if !bytes.Equal(a, b) {
		t.Fatal("cached strategy differs from original")
	}
}

func TestSolveValidation(t *testing.T) {
	ts := newTestServer(t)
	for body, wantStatus := range map[string]int{
		`{"model":"nope","gpus":8}`:                     http.StatusBadRequest,
		`{"model":"alexnet","gpus":0}`:                  http.StatusBadRequest,
		`{"model":"alexnet","gpus":4096}`:               http.StatusBadRequest,
		`{"model":"alexnet","gpus":8,"machine":"v100"}`: http.StatusBadRequest,
		`not json`: http.StatusBadRequest,
		`{"model":"alexnet","gpus":8,"options":{"prune_epsilon":-0.1}}`:    http.StatusBadRequest,
		`{"model":"alexnet","gpus":8,"options":{"prune_epsilon":2}}`:       http.StatusBadRequest,
		`{"model":"alexnet","gpus":8,"options":{"prune_epsilon":0.05}}`:    http.StatusOK,
		`{"model":"alexnet","gpus":8,"machine":"uniform:4:1e12:1e10:5e9"}`: http.StatusOK,
	} {
		status, out := postJSON(t, ts.URL+"/v1/solve", body)
		if status != wantStatus {
			t.Errorf("solve(%s) status %d, want %d (%v)", body, status, wantStatus, out)
		}
	}
	// The OOM outcome maps to 503 with the stable code "oom" (degradation is
	// off in this zero-config server, so the error surfaces).
	status, out := postJSON(t, ts.URL+"/v1/solve",
		`{"model":"inceptionv3","gpus":8,"options":{"breadth_first":true}}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("BF InceptionV3 status %d, want 503 (%v)", status, out)
	}
	if out["code"] != "oom" {
		t.Fatalf("BF InceptionV3 code %v, want %q", out["code"], "oom")
	}
	// Priority is bounded in both directions.
	for _, body := range []string{
		`{"model":"alexnet","gpus":8,"priority":101}`,
		`{"model":"alexnet","gpus":8,"priority":-101}`,
	} {
		if status, out := postJSON(t, ts.URL+"/v1/solve", body); status != http.StatusBadRequest {
			t.Errorf("solve(%s) status %d, want 400 (%v)", body, status, out)
		}
	}
}

func TestBatchMixedValidAndInvalid(t *testing.T) {
	ts := newTestServer(t)
	status, out := postJSON(t, ts.URL+"/v1/batch", `{"requests":[
		{"model":"alexnet","gpus":8},
		{"model":"nope","gpus":8},
		{"model":"rnnlm","gpus":16}
	]}`)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %v", status, out)
	}
	results, ok := out["results"].([]any)
	if !ok || len(results) != 3 {
		t.Fatalf("batch results: %v", out)
	}
	first := results[0].(map[string]any)
	if first["strategy"] == nil || first["error"] != nil {
		t.Fatalf("entry 0 should have solved: %v", first)
	}
	bad := results[1].(map[string]any)
	if bad["error"] == nil || !strings.Contains(bad["error"].(string), "nope") {
		t.Fatalf("entry 1 should carry its own error: %v", bad)
	}
	if bad["code"] != "bad_request" {
		t.Fatalf("entry 1 code %v, want %q", bad["code"], "bad_request")
	}
	third := results[2].(map[string]any)
	if third["strategy"] == nil {
		t.Fatalf("entry 2 should have solved: %v", third)
	}
	if first["code"] != nil || third["code"] != nil {
		t.Fatalf("solved entries carry a code: %v / %v", first["code"], third["code"])
	}

	// Solve failures carry the single route's stable code too.
	status, out = postJSON(t, ts.URL+"/v1/batch",
		`{"requests":[{"model":"inceptionv3","gpus":8,"options":{"breadth_first":true}}]}`)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %v", status, out)
	}
	oom := out["results"].([]any)[0].(map[string]any)
	if oom["code"] != "oom" || oom["error"] == nil {
		t.Fatalf("BF InceptionV3 entry %v, want code %q", oom, "oom")
	}
}

// TestTrailingBytesRejected: every POST route decodes its body the same way,
// so a valid body followed by stray bytes is a 400 everywhere.
func TestTrailingBytesRejected(t *testing.T) {
	ts := newTestServer(t)
	for route, body := range map[string]string{
		"/v1/solve":   `{"model":"alexnet","gpus":8}`,
		"/v1/batch":   `{"requests":[{"model":"alexnet","gpus":8}]}`,
		"/v1/compare": `{"model":"alexnet","gpus":8,"methods":["dataparallel"]}`,
	} {
		status, out := postJSON(t, ts.URL+route, body+" x")
		if status != http.StatusBadRequest || out["code"] != "bad_request" {
			t.Errorf("%s with trailing bytes: status %d body %v, want 400 bad_request", route, status, out)
		}
	}
}

func TestConcurrentMixedSolveAndBatch(t *testing.T) {
	// The acceptance criterion: pased serves concurrent mixed solve/batch
	// traffic correctly under -race. Identical requests across goroutines
	// must come back byte-identical.
	ts := newTestServer(t)
	const solveReq = `{"model":"alexnet","gpus":8}`
	const batchReq = `{"requests":[{"model":"alexnet","gpus":8},{"model":"rnnlm","gpus":8}]}`

	var wg sync.WaitGroup
	strategies := make([][]byte, 24)
	errs := make([]error, 24)
	for i := range strategies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var doc any
			if i%2 == 0 {
				status, out := postJSONNoFatal(ts.URL+"/v1/solve", solveReq)
				if status != http.StatusOK {
					errs[i] = fmt.Errorf("solve status %d: %v", status, out)
					return
				}
				doc = out["strategy"]
			} else {
				status, out := postJSONNoFatal(ts.URL+"/v1/batch", batchReq)
				if status != http.StatusOK {
					errs[i] = fmt.Errorf("batch status %d: %v", status, out)
					return
				}
				results := out["results"].([]any)
				entry := results[0].(map[string]any)
				if entry["error"] != nil {
					errs[i] = fmt.Errorf("batch entry error: %v", entry["error"])
					return
				}
				doc = entry["strategy"]
			}
			strategies[i], errs[i] = json.Marshal(doc)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < len(strategies); i++ {
		if !bytes.Equal(strategies[i], strategies[0]) {
			t.Fatalf("request %d returned a different AlexNet p=8 strategy", i)
		}
	}
}

func postJSONNoFatal(url, body string) (int, map[string]any) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, map[string]any{"transport_error": err.Error()}
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, map[string]any{"decode_error": err.Error()}
	}
	return resp.StatusCode, out
}

func TestStats(t *testing.T) {
	ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/solve", `{"model":"alexnet","gpus":8}`)
	postJSON(t, ts.URL+"/v1/solve", `{"model":"alexnet","gpus":8}`)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	pl, ok := out["planner"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing planner block: %v", out)
	}
	if pl["solves"] != float64(1) || pl["result_hits"] != float64(1) {
		t.Fatalf("planner stats: %v", pl)
	}
	if out["requests"] != float64(2) {
		t.Fatalf("requests = %v, want 2", out["requests"])
	}
	// Structural-sharing counters: one model build happened, so class counts
	// are positive and bounded by the graph size.
	if vc, ok := pl["vertex_classes"].(float64); !ok || vc <= 0 {
		t.Fatalf("vertex_classes missing or non-positive: %v", pl["vertex_classes"])
	}
	if ec, ok := pl["edge_classes"].(float64); !ok || ec <= 0 {
		t.Fatalf("edge_classes missing or non-positive: %v", pl["edge_classes"])
	}
	if _, ok := pl["shared_table_bytes"].(float64); !ok {
		t.Fatalf("shared_table_bytes missing: %v", pl["shared_table_bytes"])
	}
}

func TestSolveOptionBounds(t *testing.T) {
	ts := newTestServer(t)
	for _, body := range []string{
		`{"model":"alexnet","gpus":8,"options":{"workers":1000000000}}`,
		`{"model":"alexnet","gpus":8,"options":{"workers":-1}}`,
		`{"model":"alexnet","gpus":8,"options":{"max_table_entries":9223372036854775807}}`,
		`{"model":"alexnet","gpus":8,"options":{"max_table_entries":-5}}`,
		`{"model":"alexnet","gpus":8,"options":{"max_split_dims":-1}}`,
	} {
		if status, out := postJSON(t, ts.URL+"/v1/solve", body); status != http.StatusBadRequest {
			t.Errorf("solve(%s) status %d, want 400 (%v)", body, status, out)
		}
	}
	// In-range options still work.
	status, out := postJSON(t, ts.URL+"/v1/solve",
		`{"model":"alexnet","gpus":8,"options":{"workers":2,"max_table_entries":1048576}}`)
	if status != http.StatusOK {
		t.Fatalf("bounded options rejected: %d %v", status, out)
	}
}

func TestExplicitZeroEpsilonOverridesDaemonDefault(t *testing.T) {
	aggr := httptest.NewServer(newServer(pase.NewPlanner(pase.PlannerConfig{DefaultPruneEpsilon: 0.2}), 64, 0).mux())
	defer aggr.Close()
	exact := httptest.NewServer(newServer(pase.NewPlanner(pase.PlannerConfig{}), 64, 0).mux())
	defer exact.Close()

	_, def := postJSON(t, aggr.URL+"/v1/solve", `{"model":"alexnet","gpus":8}`)
	_, forced := postJSON(t, aggr.URL+"/v1/solve", `{"model":"alexnet","gpus":8,"options":{"prune_epsilon":0}}`)
	_, ref := postJSON(t, exact.URL+"/v1/solve", `{"model":"alexnet","gpus":8}`)

	if def["fingerprint"] == forced["fingerprint"] {
		t.Fatal("explicit prune_epsilon:0 did not override the daemon default")
	}
	if forced["fingerprint"] != ref["fingerprint"] {
		t.Fatalf("forced-exact fingerprint %v differs from an exact daemon's %v",
			forced["fingerprint"], ref["fingerprint"])
	}
}

func TestCompareEndpoint(t *testing.T) {
	ts := newTestServer(t)
	status, out := postJSON(t, ts.URL+"/v1/compare", `{"model":"alexnet","gpus":8}`)
	if status != http.StatusOK {
		t.Fatalf("compare status %d: %v", status, out)
	}
	if out["baseline"] != "dataparallel" || out["model"] != "AlexNet" {
		t.Fatalf("compare header: %v", out)
	}
	entries, ok := out["entries"].([]any)
	if !ok || len(entries) != 4 {
		t.Fatalf("compare entries: %v", out["entries"])
	}
	wantMethods := []string{"dataparallel", "expert:cnn", "mcmc", "dp"}
	var dpSpeedup, baseSpeedup float64
	for i, raw := range entries {
		e := raw.(map[string]any)
		if e["method"] != wantMethods[i] {
			t.Fatalf("entry %d method %v, want %s", i, e["method"], wantMethods[i])
		}
		if e["error"] != nil {
			t.Fatalf("entry %s: %v", wantMethods[i], e["error"])
		}
		sp, _ := e["speedup_vs_dp"].(float64)
		switch wantMethods[i] {
		case "dataparallel":
			baseSpeedup = sp
		case "dp":
			dpSpeedup = sp
		}
		if cs, _ := e["cost_seconds"].(float64); cs <= 0 {
			t.Fatalf("entry %s cost_seconds: %v", wantMethods[i], e["cost_seconds"])
		}
	}
	if baseSpeedup != 1 {
		t.Fatalf("baseline speedup = %v, want 1", baseSpeedup)
	}
	if dpSpeedup <= 1 {
		t.Fatalf("dp speedup over data parallelism = %v, want > 1", dpSpeedup)
	}

	// An explicit method list is honored; a bad one is a 400.
	status, out = postJSON(t, ts.URL+"/v1/compare",
		`{"model":"alexnet","gpus":8,"methods":["dataparallel","dp"]}`)
	if status != http.StatusOK {
		t.Fatalf("explicit methods status %d: %v", status, out)
	}
	if entries := out["entries"].([]any); len(entries) != 2 {
		t.Fatalf("explicit methods entries: %v", out["entries"])
	}
	if status, out = postJSON(t, ts.URL+"/v1/compare",
		`{"model":"alexnet","gpus":8,"methods":["genetic"]}`); status != http.StatusBadRequest {
		t.Fatalf("bad method list status %d: %v", status, out)
	}
}

func TestSolveMethodOverWire(t *testing.T) {
	ts := newTestServer(t)
	status, out := postJSON(t, ts.URL+"/v1/solve",
		`{"model":"rnnlm","gpus":8,"options":{"method":"expert:rnn"}}`)
	if status != http.StatusOK {
		t.Fatalf("expert solve status %d: %v", status, out)
	}
	if out["method"] != "expert:rnn" {
		t.Fatalf("method = %v", out["method"])
	}
	doc := out["strategy"].(map[string]any)
	if doc["method"] != "expert:rnn" {
		t.Fatalf("document method = %v", doc["method"])
	}
	// Distinct methods have distinct fingerprints on the same model/machine.
	_, dp := postJSON(t, ts.URL+"/v1/solve", `{"model":"rnnlm","gpus":8}`)
	if dp["fingerprint"] == out["fingerprint"] {
		t.Fatal("dp and expert:rnn share a fingerprint")
	}
	// Unknown methods are rejected at validation time.
	for _, body := range []string{
		`{"model":"rnnlm","gpus":8,"options":{"method":"genetic"}}`,
		`{"model":"rnnlm","gpus":8,"options":{"method":"expert:gnn"}}`,
	} {
		if status, out := postJSON(t, ts.URL+"/v1/solve", body); status != http.StatusBadRequest {
			t.Fatalf("solve(%s) status %d, want 400 (%v)", body, status, out)
		}
	}
}

func TestClientDisconnectAbortsSolve(t *testing.T) {
	// The ROADMAP scenario: a client requests a heavy solve and goes away.
	// The daemon must abort the underlying DP instead of finishing it for
	// nobody — observable as the planner recording no completed solve and a
	// follow-up identical request starting cold.
	pl := pase.NewPlanner(pase.PlannerConfig{})
	ts := httptest.NewServer(newServer(pl, 64, 0).mux())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve",
		strings.NewReader(`{"model":"inceptionv3","gpus":32}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Wait for the solve to actually start server-side, then hang up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := pl.Stats(); st.ResultMisses >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("solve never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("client request succeeded despite disconnect")
	}
	// The aborted solve never completes: Cancelled ticks up, Solves stays 0.
	for {
		st := pl.Stats()
		if st.Cancelled >= 1 {
			if st.Solves != 0 {
				t.Fatalf("solve completed despite disconnect: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never recorded the cancellation: %+v", pl.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	// A later identical request is cold (nothing was cached)...
	status, out := postJSON(t, ts.URL+"/v1/solve", `{"model":"inceptionv3","gpus":32}`)
	if status != http.StatusOK {
		t.Fatalf("follow-up solve status %d: %v", status, out)
	}
	if out["cached"] != false {
		t.Fatal("follow-up solve was served from a cache the aborted solve should not have filled")
	}
}

func TestSolveTimeoutMapsToGatewayTimeout(t *testing.T) {
	// A daemon-side -solve-timeout aborts the solve mid-flight and reports
	// 504, distinguishing "the solve was too slow" from client hangups.
	ts := httptest.NewServer(newServer(pase.NewPlanner(pase.PlannerConfig{}), 64, 20*time.Millisecond).mux())
	defer ts.Close()
	status, out := postJSON(t, ts.URL+"/v1/solve", `{"model":"inceptionv3","gpus":32}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%v)", status, out)
	}
	if out["code"] != "timeout" {
		t.Fatalf("code %v, want %q", out["code"], "timeout")
	}
}

// A composite device count is valid input: the solve must succeed and its
// strategy must map onto exactly that many devices (every configuration's
// degree divides p), never a 500.
func TestSolveCompositeDeviceCount(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"model":"alexnet","gpus":6,"machine":"1080ti"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Strategy json.RawMessage `json:"strategy"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gpus=6 solve status %d", resp.StatusCode)
	}
	bm, err := pase.BenchmarkByName("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	g := bm.Build(bm.Batch)
	s, err := pase.ImportStrategy(bytes.NewReader(out.Strategy), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g, 6); err != nil {
		t.Fatalf("gpus=6 strategy does not validate: %v", err)
	}
}
