// Command perfbench is the end-to-end benchmark of the pased serving path. It
// boots real pased processes on loopback, drives one of three closed-loop
// workloads against them for a fixed time, checks every distinct answer, and
// prints the end-to-end metrics; with -trace 1 it also replays the same
// request sequence in-process through the public calls pased makes and
// prints a per-layer breakdown instead. See README.md.
//
// Run it through run.sh from the repository root, which builds pased and this
// program first:
//
//	bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pase"
	"pase/internal/fleet"
)

var workloadNames = []string{"solve-cold", "hit-fleet", "hit-spec"}

// basePort is the first loopback port tried for the daemons. With members
// on basePort and basePort+1 every model has keys owned by each member.
const basePort = 39180

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type bench struct {
	root, pased, logDir string
	seed                int64
	dur                 time.Duration
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: solve-cold, hit-fleet or hit-spec")
		seed    = flag.Int64("seed", 1, "seed of the request order and mix")
		seconds = flag.Int("seconds", 20, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 prints the per-layer breakdown from a traced replay instead of the end-to-end metrics")
		root    = flag.String("root", ".", "repository root")
		pased   = flag.String("pased", "", "pased binary")
		mkref   = flag.Bool("mkref", false, "recompute reference.json with the oracle solver and exit")
		compare = flag.Bool("compare", false, "compare two run records given as arguments; refuses records from different environments")
	)
	flag.Parse()
	ctx := context.Background()
	if *compare {
		if err := compareRecords(flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *mkref {
		if err := writeReference(ctx, *root, filepath.Join(*root, "perfbench", "reference.json")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	b := &bench{root: *root, pased: *pased, seed: *seed, dur: time.Duration(*seconds) * time.Second}
	b.logDir = filepath.Join(*root, ".bench_build", "logs")
	res, rec, err := b.run(ctx, *name, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec.Result = res
	if line, err := json.Marshal(rec); err == nil {
		fmt.Println("# record", string(line))
		dir := filepath.Join(*root, ".bench_build", "records")
		err := os.MkdirAll(dir, 0o755)
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace)), append(line, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: run record not kept:", err)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// env is one started workload: its daemons, the member clients address, and
// how long starting it took.
type env struct {
	daemons []*daemon
	front   *daemon
	setup   time.Duration
}

func (b *bench) run(ctx context.Context, name string, traced bool) (*result, *runRecord, error) {
	w, err := newWorkload(name, b.root)
	if err != nil {
		return nil, nil, err
	}
	refs, err := loadReference(filepath.Join(b.root, "perfbench", "reference.json"))
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(b.logDir, 0o755); err != nil {
		return nil, nil, err
	}
	var fps map[*target]pase.Fingerprint
	if w.fleet {
		if fps, err = fingerprints(w.all); err != nil {
			return nil, nil, err
		}
	}
	reps := w.setupReps
	if traced {
		reps = 1 // a traced run reports no setup time
	}
	var e *env
	var setups []float64
	for i := 0; i < reps; i++ {
		if e != nil {
			stopAll(e.daemons)
		}
		if e, err = b.start(ctx, w, fps); err != nil {
			return nil, nil, err
		}
		setups = append(setups, e.setup.Seconds())
	}
	defer stopAll(e.daemons)
	if w.fleet {
		members := []string{e.daemons[0].url, e.daemons[1].url}
		rankFleetKeys(w, func(t *target) bool { return fleet.RendezvousOwner(members, fps[t]) == e.front.url })
	}
	seq := w.newSequence(rand.New(rand.NewSource(b.seed)))

	before, err := snapshot(ctx, e.daemons)
	if err != nil {
		return nil, nil, err
	}
	lr := runLoad(ctx, e.daemons, seq, w.clients, b.dur)
	after, err := snapshot(ctx, e.daemons)
	if err != nil {
		return nil, nil, err
	}
	var rss float64
	for _, d := range e.daemons {
		mb, err := d.peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		rss += mb
	}
	res := verify(w, refs, lr, before, after)
	st := measure(lr)
	if len(st.lat) == 0 {
		return nil, nil, errors.New("no successful requests in the timed phase")
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d ops in %.2fs, %d failed (fail_share %.4f); steal %.3f, kept intervals with steal <= %.2f (%.2f of the time, %d successful requests)\n%s",
		name, b.seed, res.Attempted, lr.elapsed.Seconds(), res.Failed, float64(res.Failed)/float64(res.Attempted),
		st.steal, st.threshold, st.kept, len(st.lat), kindBreakdown(lr.samples))
	rec := newRecord(b, w, st, setups)

	if !traced {
		res.Metrics = map[string]metric{
			"setup_s":       {median(setups), "s"},
			"cpu_ms_per_op": {st.cpu * 1e3 / float64(st.attempted), "ms"},
			"peak_rss_mb":   {rss, "MB"},
			"success_share": {float64(res.Attempted-res.Failed) / float64(res.Attempted), "share"},
		}
		rec.Ungated = map[string]metric{
			"latency_p50_ms": {quantile(st.lat, 0.50), "ms"},
			"latency_p90_ms": {quantile(st.lat, 0.90), "ms"},
			"latency_p99_ms": {quantile(st.lat, 0.99), "ms"},
			"throughput_rps": {float64(len(st.lat)) / st.seconds, "1/s"},
		}
		return res, rec, nil
	}
	layers, err := traceLayers(ctx, w, e, seq.sent(), fps, b.dur)
	if err != nil {
		return nil, nil, err
	}
	layers.counters(lr.samples, before, after)
	// The replay is not filtered for steal, so neither is this p50.
	var all []float64
	for _, s := range lr.samples {
		if s.ok() {
			all = append(all, ms(s.lat))
		}
	}
	sort.Float64s(all)
	layers.set("pased.unattributed_ms", quantile(all, 0.5)-layers.replayP50, "ms")
	res.Metrics = layers.metrics
	return res, rec, nil
}

// verify checks every distinct answer and the daemons' counters, off the
// clock, and counts the failed ops.
func verify(w *workload, refs map[string]float64, lr *loadResult, before, after []daemonStats) *result {
	res := &result{Correct: true, Attempted: len(lr.samples)}
	chk := newChecker(refs)
	for _, a := range lr.answers {
		chk.check(a)
		if a.err != nil && !knownDefect(a) {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "check failed:", a.err)
		}
	}
	for _, s := range lr.samples {
		if s.answer == nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "request %s failed in transport\n", s.op.kind)
		}
		if !s.ok() {
			res.Failed++
		}
	}
	if err := account(w, lr.samples, before, after); err != nil {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "accounting:", err)
	}
	return res
}

// knownDefect reports an answer that failed the way every composite device
// count fails at this commit (a 500 after a full solve). It still counts as a
// failed op — in success_share and "failed" — but does not mark the run
// incorrect, so the benchmark keeps measuring until the defect is fixed.
func knownDefect(a *answer) bool {
	return a.status == 500 && a.op.path == "/v1/solve" && a.op.items[0].spec == nil && composite(a.op.items[0].gpus)
}

// start boots the workload's daemons and solves its pre-warm set on each
// target's owner; the returned setup time covers both.
func (b *bench) start(ctx context.Context, w *workload, fps map[*target]pase.Fingerprint) (*env, error) {
	t0 := time.Now()
	n := 1
	if w.fleet {
		n = 2
	}
	ports := make([]int, n)
	urls := make([]string, n)
	for i := range ports {
		p, err := pickPort(basePort + i)
		if err != nil {
			return nil, err
		}
		ports[i], urls[i] = p, fmt.Sprintf("http://127.0.0.1:%d", p)
	}
	e := &env{}
	for i := range ports {
		var extra []string
		if w.fleet {
			extra = []string{"-advertise", urls[i], "-peers", urls[1-i]}
		}
		d, err := launchDaemon(b.pased, filepath.Join(b.logDir, fmt.Sprintf("%s-%d.log", w.name, i)), ports[i], extra...)
		if err != nil {
			stopAll(e.daemons)
			return nil, err
		}
		e.daemons = append(e.daemons, d)
	}
	for _, d := range e.daemons {
		if err := d.waitReady(30 * time.Second); err != nil {
			stopAll(e.daemons)
			return nil, err
		}
	}
	e.front = e.daemons[0]
	owner := func(t *target) *daemon { return e.front }
	if w.fleet {
		owner = func(t *target) *daemon {
			if fleet.RendezvousOwner(urls, fps[t]) == e.daemons[1].url {
				return e.daemons[1]
			}
			return e.daemons[0]
		}
	}
	if err := prewarm(ctx, w.prewarm, owner, w.clients); err != nil {
		stopAll(e.daemons)
		return nil, err
	}
	e.setup = time.Since(t0)
	return e, nil
}

// prewarm solves every target once on its owner, with the workload's number
// of concurrent clients. Sending each target straight to its owner keeps
// cold solves off the fleet forwarding path and its per-attempt timeout.
func prewarm(ctx context.Context, ts []*target, owner func(*target) *daemon, clients int) error {
	var mu sync.Mutex
	var firstErr error
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(ts) || firstErr != nil {
					mu.Unlock()
					return
				}
				t := ts[next]
				next++
				mu.Unlock()
				status, body, err := postOnce(ctx, owner(t).url+"/v1/solve", t.body)
				if err == nil && status != 200 {
					err = fmt.Errorf("pre-warm %s: status %d: %s", t.key, status, firstLine(body))
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// fingerprints computes each target's canonical solve fingerprint the way
// pased does, for fleet ownership.
func fingerprints(ts []*target) (map[*target]pase.Fingerprint, error) {
	pl := newReplayPlanner()
	out := map[*target]pase.Fingerprint{}
	for _, t := range ts {
		req, _, err := lowerWire(t.body)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.key, err)
		}
		if out[t], err = pl.SolveFingerprint(req); err != nil {
			return nil, fmt.Errorf("%s: %w", t.key, err)
		}
	}
	return out, nil
}

func snapshot(ctx context.Context, ds []*daemon) ([]daemonStats, error) {
	st := make([]daemonStats, len(ds))
	for i, d := range ds {
		var err error
		if st[i], err = d.stats(ctx); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// account checks that the daemons' counter deltas over the timed phase
// account for every op sent: every request reached the addressed member,
// and every solve entry in them was either forwarded to the owner or looked
// up in the addressed member's planner — and every forward in the owner's.
func account(w *workload, ss []sample, before, after []daemonStats) error {
	entries := 0
	for _, s := range ss {
		entries += len(s.op.items)
	}
	a0, a1 := before[0], after[0]
	if got := a1.Requests - a0.Requests; got != int64(len(ss)) {
		return fmt.Errorf("front member served %d requests, %d sent", got, len(ss))
	}
	fwd := a1.Fleet.Forwards - a0.Fleet.Forwards
	local := a1.lookups() - a0.lookups()
	if fwd+local != int64(entries) {
		return fmt.Errorf("front member forwarded %d and solved %d locally, %d solve entries sent", fwd, local, entries)
	}
	if w.fleet {
		owner := after[1].lookups() - before[1].lookups()
		if retries := a1.Fleet.Retries - a0.Fleet.Retries; retries == 0 && owner != fwd {
			return fmt.Errorf("peer solved %d forwarded entries, front member forwarded %d", owner, fwd)
		}
	}
	return nil
}
