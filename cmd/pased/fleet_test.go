package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pase"
	"pase/internal/fleet"
)

// fleetNode is one daemon of an in-process test fleet.
type fleetNode struct {
	pl  *pase.Planner
	srv *server
	ts  *httptest.Server
	url string
}

// startFleetNodes boots n daemons that know each other (plus any
// extraMembers — dead URLs for outage tests). Listeners are bound before any
// fleet client exists so every member URL is known up front, and each
// server's fleet field is set before its listener serves — no post-start
// mutation, no race. Probing is off and backoffs are millisecond-scale for
// deterministic, fast tests.
func startFleetNodes(t *testing.T, n int, extraMembers ...string) []*fleetNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	nodes := make([]*fleetNode, n)
	for i := range nodes {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		peers = append(peers, extraMembers...)
		pl := pase.NewPlanner(pase.PlannerConfig{})
		sv := newServer(pl, 64, 0)
		fc, err := fleet.New(fleet.Config{
			Self:           urls[i],
			Peers:          peers,
			ProbeInterval:  -1,
			BaseBackoff:    time.Millisecond,
			MaxBackoff:     2 * time.Millisecond,
			AttemptTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		sv.fleet = fc
		ts := &httptest.Server{Listener: listeners[i], Config: &http.Server{Handler: sv.mux()}}
		ts.Start()
		t.Cleanup(func() { ts.Close(); fc.Close() })
		nodes[i] = &fleetNode{pl: pl, srv: sv, ts: ts, url: urls[i]}
	}
	return nodes
}

// requestOwnedBy finds a wire request whose canonical fingerprint the given
// member owns on s's ring — a pure ownership computation (no solves), over a
// candidate family small enough to solve fast in tests.
func requestOwnedBy(t *testing.T, s *server, owner string) string {
	t.Helper()
	for _, g := range []int{2, 3, 4, 5, 6, 8, 12, 16} {
		for _, b := range []int64{0, 32, 64, 96, 160} {
			sr := solveRequest{Model: "alexnet", GPUs: g, Batch: b}
			req, _, err := s.toRequest(sr)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := s.pl.SolveFingerprint(req)
			if err != nil {
				t.Fatal(err)
			}
			if s.fleet.Owner(fp) == owner {
				if b == 0 {
					return fmt.Sprintf(`{"model":"alexnet","gpus":%d}`, g)
				}
				return fmt.Sprintf(`{"model":"alexnet","gpus":%d,"batch":%d}`, g, b)
			}
		}
	}
	t.Fatalf("no candidate request owned by %s", owner)
	return ""
}

// TestFleetForwardedSolve is the tentpole's happy path over the wire: a
// request whose fingerprint another member owns is forwarded there, the
// owner's cache becomes the cluster's (a repeat from ANY member is a cache
// hit), and the routing is visible in the response, /v1/readyz, /v1/stats,
// and /metrics.
func TestFleetForwardedSolve(t *testing.T) {
	nodes := startFleetNodes(t, 3)
	a := nodes[0]
	body := requestOwnedBy(t, a.srv, nodes[1].url)
	owner := nodes[1]

	status, out := postJSON(t, a.ts.URL+"/v1/solve", body)
	if status != http.StatusOK {
		t.Fatalf("forwarded solve: %d %v", status, out)
	}
	if out["fleet_forwarded"] != true || out["fleet_owner"] != owner.url {
		t.Fatalf("response routing: forwarded=%v owner=%v, want true/%s",
			out["fleet_forwarded"], out["fleet_owner"], owner.url)
	}
	if out["cached"] == true {
		t.Fatalf("first solve cached: %v", out["cached"])
	}
	if s := owner.pl.Stats(); s.Solves != 1 {
		t.Fatalf("owner solves = %d, want 1", s.Solves)
	}
	if s := a.pl.Stats(); s.Solves != 0 {
		t.Fatalf("forwarder solves = %d, want 0 (the owner ran it)", s.Solves)
	}
	if fs := a.srv.fleet.Stats(); fs.Forwards != 1 {
		t.Fatalf("forwarder fleet stats %+v, want 1 forward", fs)
	}

	// Cluster-wide singleflight/cache: repeats from the forwarder AND from a
	// third member are cache hits served by the same owner.
	for _, from := range []*fleetNode{a, nodes[2]} {
		status, out = postJSON(t, from.ts.URL+"/v1/solve", body)
		if status != http.StatusOK || out["fleet_forwarded"] != true || out["cached"] != true {
			t.Fatalf("repeat via %s: %d forwarded=%v cached=%v, want a forwarded cache hit",
				from.url, status, out["fleet_forwarded"], out["cached"])
		}
	}
	if s := owner.pl.Stats(); s.Solves != 1 {
		t.Fatalf("owner solves = %d after repeats, want still 1", s.Solves)
	}

	// The owner itself serves the request locally — no self-forward.
	status, out = postJSON(t, owner.ts.URL+"/v1/solve", body)
	if status != http.StatusOK || out["fleet_forwarded"] == true || out["cached"] != true {
		t.Fatalf("owner-local solve: %d %v, want an unforwarded cache hit", status, out)
	}

	// Readiness carries the peer table.
	_, rz := getJSON(t, a.ts.URL+"/v1/readyz")
	peers, _ := rz["peers"].([]any)
	if len(peers) != 2 {
		t.Fatalf("readyz peers = %v, want 2 entries", rz["peers"])
	}
	for _, p := range peers {
		pm := p.(map[string]any)
		if pm["healthy"] != true || pm["breaker"] != "closed" {
			t.Fatalf("readyz peer %v, want healthy/closed", pm)
		}
	}

	// Stats and metrics surface the fleet counters.
	_, st := getJSON(t, a.ts.URL+"/v1/stats")
	fst, _ := st["fleet"].(map[string]any)
	if fst == nil || fst["forwards"].(float64) < 2 {
		t.Fatalf("stats fleet block %v, want >= 2 forwards", st["fleet"])
	}
	resp, err := http.Get(a.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"pase_fleet_forwards_total 2",
		fmt.Sprintf("pase_fleet_peer_healthy{peer=%q} 1", owner.url),
		fmt.Sprintf("pase_fleet_peer_breaker_state{peer=%q} 0", owner.url),
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestFleetInternalRouteNeverReforwards: a request arriving on the internal
// route is solved where it lands even when the local ring says another
// member owns it — the invariant that makes forwarding loop-free.
func TestFleetInternalRouteNeverReforwards(t *testing.T) {
	nodes := startFleetNodes(t, 3)
	a := nodes[0]
	// Owned by node 1, but delivered straight to node 0's internal route.
	body := requestOwnedBy(t, a.srv, nodes[1].url)

	status, out := postJSON(t, a.ts.URL+fleet.InternalSolvePath, body)
	if status != http.StatusOK {
		t.Fatalf("internal solve: %d %v", status, out)
	}
	if out["fleet_forwarded"] == true || out["fleet_fallback"] == true {
		t.Fatalf("internal route forwarded or fell back: %v", out)
	}
	if s := a.pl.Stats(); s.Solves != 1 {
		t.Fatalf("receiver solves = %d, want 1 (solved where it landed)", s.Solves)
	}
	if s := nodes[1].pl.Stats(); s.Solves != 0 {
		t.Fatalf("ring owner solves = %d, want 0 (no re-forward)", s.Solves)
	}
	if fs := a.srv.fleet.Stats(); fs.Forwards != 0 || fs.Fallbacks != 0 {
		t.Fatalf("receiver fleet stats %+v, want no routing at all", fs)
	}
}

// TestFleetFallbackWhenOwnerDead is the acceptance outage: the owner is a
// dead member (SIGKILL shape: connection refused), yet every request answers
// 200 — solved locally, marked fleet_fallback, and never cached, so the
// healed owner stays the fingerprint's home.
func TestFleetFallbackWhenOwnerDead(t *testing.T) {
	// Reserve then free a port: a member that refuses connections.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + l.Addr().String()
	l.Close()

	nodes := startFleetNodes(t, 1, dead)
	a := nodes[0]
	body := requestOwnedBy(t, a.srv, dead)

	status, out := postJSON(t, a.ts.URL+"/v1/solve", body)
	if status != http.StatusOK {
		t.Fatalf("fallback solve: %d %v (peer death must not be client-visible)", status, out)
	}
	if out["fleet_fallback"] != true || out["fleet_owner"] != dead {
		t.Fatalf("response: fallback=%v owner=%v, want true/%s", out["fleet_fallback"], out["fleet_owner"], dead)
	}
	if s := a.pl.Stats(); s.FleetFallbacks != 1 || s.Solves != 1 {
		t.Fatalf("planner stats %+v, want 1 fallback solve", s)
	}

	// Repeat: the open breaker short-circuits (no retry storm at a corpse),
	// still 200, and the fallback left no cache entry behind.
	status, out = postJSON(t, a.ts.URL+"/v1/solve", body)
	if status != http.StatusOK || out["fleet_fallback"] != true {
		t.Fatalf("repeat during outage: %d %v, want another marked fallback", status, out)
	}
	if out["cached"] == true {
		t.Fatal("fallback result was cached; the owner must stay the fingerprint's only home")
	}
	fs := a.srv.fleet.Stats()
	if fs.Fallbacks != 2 {
		t.Fatalf("fleet stats %+v, want 2 fallbacks", fs)
	}
	if fs.Peers[0].Breaker != "open" {
		t.Fatalf("dead peer breaker %q, want open", fs.Peers[0].Breaker)
	}
	_, rz := getJSON(t, a.ts.URL+"/v1/readyz")
	peers, _ := rz["peers"].([]any)
	if len(peers) != 1 || peers[0].(map[string]any)["breaker"] != "open" {
		t.Fatalf("readyz peers %v, want the dead member's open breaker visible", rz["peers"])
	}

	// A batch item the dead member owns takes the same fallback.
	status, out = postJSON(t, a.ts.URL+"/v1/batch", fmt.Sprintf(`{"requests":[%s]}`, body))
	if status != http.StatusOK {
		t.Fatalf("batch during outage: %d %v", status, out)
	}
	results, _ := out["results"].([]any)
	if len(results) != 1 {
		t.Fatalf("batch results %v, want 1 entry", out["results"])
	}
	entry := results[0].(map[string]any)
	if entry["fleet_fallback"] != true || entry["fleet_owner"] != dead || entry["strategy"] == nil {
		t.Fatalf("batch entry: fallback=%v owner=%v, want a solved true/%s", entry["fleet_fallback"], entry["fleet_owner"], dead)
	}
	if entry["cached"] == true {
		t.Fatal("batch fallback entry was served from a cache")
	}
	if s := a.pl.Stats(); s.FleetFallbacks != 3 {
		t.Fatalf("planner fleet fallbacks = %d, want 3 (two solves and one batch item)", s.FleetFallbacks)
	}
}

// TestFleetBatchForwarding: a mixed-ownership batch fans out — peer-owned
// items forward (and land in the owners' caches), locally-owned items solve
// here — and every entry comes back well-formed.
func TestFleetBatchForwarding(t *testing.T) {
	nodes := startFleetNodes(t, 3)
	a := nodes[0]
	local := requestOwnedBy(t, a.srv, a.url)
	remote := requestOwnedBy(t, a.srv, nodes[1].url)

	status, out := postJSON(t, a.ts.URL+"/v1/batch",
		fmt.Sprintf(`{"requests":[%s,%s,{"model":"nosuchmodel","gpus":4}]}`, local, remote))
	if status != http.StatusOK {
		t.Fatalf("batch: %d %v", status, out)
	}
	results, _ := out["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("batch results %v, want 3 entries", out["results"])
	}
	localEntry := results[0].(map[string]any)
	remoteEntry := results[1].(map[string]any)
	badEntry := results[2].(map[string]any)
	if localEntry["fleet_forwarded"] == true || localEntry["strategy"] == nil {
		t.Fatalf("locally-owned entry %v, want an unforwarded solve", localEntry)
	}
	if remoteEntry["fleet_forwarded"] != true || remoteEntry["fleet_owner"] != nodes[1].url {
		t.Fatalf("peer-owned entry: forwarded=%v owner=%v, want true/%s",
			remoteEntry["fleet_forwarded"], remoteEntry["fleet_owner"], nodes[1].url)
	}
	if badEntry["error"] == nil || badEntry["error"] == "" {
		t.Fatalf("invalid entry %v, want a per-item error", badEntry)
	}
	if s := a.pl.Stats(); s.Solves != 1 {
		t.Fatalf("batch caller solves = %d, want 1 (only its own item)", s.Solves)
	}
	if s := nodes[1].pl.Stats(); s.Solves != 1 {
		t.Fatalf("owner solves = %d, want 1 (the forwarded item)", s.Solves)
	}
	// The forwarded item now lives in the owner's cache: a direct repeat
	// there is a hit.
	status, rep := postJSON(t, nodes[1].ts.URL+"/v1/solve", remote)
	if status != http.StatusOK || rep["cached"] != true {
		t.Fatalf("owner repeat after batch: %d cached=%v, want a hit", status, rep["cached"])
	}
}
