package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// sample is one timed request.
type sample struct {
	op     *op
	done   time.Duration // completion, from the start of the timed phase
	lat    time.Duration
	status int // 0 when the request failed in transport
	answer *answer
}

// answer is one distinct response body an op received, with the per-request
// "search_ms" timing lines removed (every other byte of a cached answer
// repeats exactly, so a run holds few distinct answers per op).
type answer struct {
	op     *op
	status int
	body   []byte
	err    error // the checker's verdict
}

// answerSet dedups response bodies per op so each is checked once.
type answerSet struct {
	mu   sync.Mutex
	byOp map[*op][]*answer
	all  []*answer
}

func (s *answerSet) add(o *op, status int, norm []byte) *answer {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.byOp[o] {
		if a.status == status && bytes.Equal(a.body, norm) {
			return a
		}
	}
	a := &answer{op: o, status: status, body: bytes.Clone(norm)}
	s.byOp[o] = append(s.byOp[o], a)
	s.all = append(s.all, a)
	return a
}

// stripTiming appends b to dst without its `"search_ms": ...` lines.
func stripTiming(dst, b []byte) []byte {
	tag := []byte(`"search_ms":`)
	for {
		i := bytes.Index(b, tag)
		if i < 0 {
			return append(dst, b...)
		}
		dst = append(dst, b[:bytes.LastIndexByte(b[:i], '\n')+1]...)
		j := bytes.IndexByte(b[i:], '\n')
		if j < 0 {
			return dst
		}
		b = b[i+j+1:]
	}
}

type loadResult struct {
	samples   []sample
	answers   []*answer
	elapsed   time.Duration
	intervals []interval
}

// sampleEvery is the length of the intervals the timed phase is cut into
// to tell calm periods from periods when the hypervisor ran other guests.
const sampleEvery = 100 * time.Millisecond

// interval is one sampling period of the timed phase.
type interval struct {
	end   time.Duration // from the start of the timed phase
	len   time.Duration
	steal float64 // share of the machine's CPU time given to other guests
	cpu   float64 // CPU seconds the daemons used
}

// runLoad drives a closed loop: each of clients goroutines sends its next op
// only after the previous answer has been read in full, until dur has passed
// or the sequence is exhausted. A finite sequence (solve-cold's set) is sent
// whole, with 3×dur only as a safety cap: a set cut short by a slow machine
// would measure different work. Latency runs from sending the request to
// reading the last byte of the response. Meanwhile a sampler reads the
// machine's steal time and the daemons' CPU time every sampleEvery.
func runLoad(ctx context.Context, ds []*daemon, seq *sequence, clients int, dur time.Duration) *loadResult {
	if seq.deck == nil {
		dur *= 3
	}
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	url := ds[0].url
	answers := &answerSet{byOp: map[*op][]*answer{}}
	per := make([][]sample, clients)
	start := time.Now()
	deadline := start.Add(dur)

	type tick struct {
		at           time.Duration
		steal, total int64
		cpu          float64
	}
	var ticks []tick
	read := func() {
		t := tick{at: time.Since(start)}
		t.steal, t.total = cpuTimes()
		for _, d := range ds {
			// A daemon that died fails the run's checks; its CPU reads 0.
			c, _ := d.cpuSeconds()
			t.cpu += c
		}
		ticks = append(ticks, t)
	}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			read()
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf, norm bytes.Buffer
			for time.Now().Before(deadline) && ctx.Err() == nil {
				o := seq.take()
				if o == nil {
					return
				}
				t0 := time.Now()
				status, err := post(ctx, hc, url+o.path, o.body, &buf)
				now := time.Now()
				s := sample{op: o, done: now.Sub(start), lat: now.Sub(t0), status: status}
				if err == nil {
					norm.Reset()
					norm.Write(stripTiming(norm.AvailableBuffer(), buf.Bytes()))
					s.answer = answers.add(o, status, norm.Bytes())
				}
				per[c] = append(per[c], s)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled
	read()
	res := &loadResult{elapsed: time.Since(start), answers: answers.all}
	for _, ss := range per {
		res.samples = append(res.samples, ss...)
	}
	for i := 1; i < len(ticks); i++ {
		a, b := ticks[i-1], ticks[i]
		res.intervals = append(res.intervals, interval{
			end: b.at, len: b.at - a.at, steal: ratio(b.steal-a.steal, b.total-a.total), cpu: b.cpu - a.cpu,
		})
	}
	return res
}

func post(ctx context.Context, hc *http.Client, url string, body []byte, into *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	into.Reset()
	if _, err := into.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// ok reports whether a sample succeeded: a 200 whose answer passed the
// checker.
func (s sample) ok() bool {
	return s.status == http.StatusOK && s.answer != nil && s.answer.err == nil
}

// quantile is the q-quantile of sorted values, interpolating linearly
// between the closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	x := q * float64(len(sorted)-1)
	i := int(x)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (x-float64(i))*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// minCalmSamples is the fewest successful requests the end-to-end metrics
// are taken over.
const minCalmSamples = 1000

// phaseStats is what the end-to-end latency, throughput and CPU metrics are
// computed from: the calm intervals of the timed phase.
type phaseStats struct {
	lat       []float64 // sorted ms, successful requests
	seconds   float64   // the time they completed in
	attempted int       // requests that completed in that time
	cpu       float64   // daemon CPU seconds in that time
	threshold float64   // the largest steal share kept
	kept      float64   // share of the phase's time kept
	steal     float64   // steal share over the whole phase
}

// measure picks the requests the metrics are taken over. The machine this
// was tuned on is a shared VM: in some 100 ms intervals the hypervisor runs
// other guests on its cores (steal time), and every request then in flight
// slows down by an amount that has nothing to do with the code. So the
// metrics are taken over the requests that completed in the calmest
// intervals: every interval with no steal at all, or, when those hold fewer
// than minCalmSamples successful requests, every interval up to the lowest
// steal share that gets there. A workload with fewer successful requests
// than that (solve-cold) keeps the whole phase.
func measure(lr *loadResult) phaseStats {
	ivs := lr.intervals
	at := func(s sample) int {
		i := sort.Search(len(ivs), func(i int) bool { return ivs[i].end >= s.done })
		return min(i, len(ivs)-1)
	}
	okIn := make([]int, len(ivs))
	for _, s := range lr.samples {
		if s.ok() {
			okIn[at(s)]++
		}
	}
	order := make([]int, len(ivs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ivs[order[a]].steal < ivs[order[b]].steal })
	st := phaseStats{threshold: 1}
	n := 0
	for _, i := range order {
		if n += okIn[i]; n >= minCalmSamples {
			st.threshold = ivs[i].steal
			break
		}
	}
	var stolen, total float64
	keep := make([]bool, len(ivs))
	for i, iv := range ivs {
		stolen += iv.steal * iv.len.Seconds()
		total += iv.len.Seconds()
		if keep[i] = iv.steal <= st.threshold; keep[i] {
			st.seconds += iv.len.Seconds()
			st.cpu += iv.cpu
		}
	}
	for _, s := range lr.samples {
		if !keep[at(s)] {
			continue
		}
		st.attempted++
		if s.ok() {
			st.lat = append(st.lat, float64(s.lat.Nanoseconds())/1e6)
		}
	}
	sort.Float64s(st.lat)
	st.kept, st.steal = st.seconds/total, stolen/total
	return st
}

// kindBreakdown summarizes latency per request kind, for the log.
func kindBreakdown(ss []sample) string {
	by := map[string][]float64{}
	fails := map[string]int{}
	for _, s := range ss {
		if s.ok() {
			by[s.op.kind] = append(by[s.op.kind], float64(s.lat.Nanoseconds())/1e6)
		} else {
			fails[s.op.kind]++
		}
	}
	var kinds []string
	for k := range by {
		kinds = append(kinds, k)
	}
	for k := range fails {
		if by[k] == nil {
			kinds = append(kinds, k)
		}
	}
	sort.Strings(kinds)
	var b bytes.Buffer
	for _, k := range kinds {
		l := by[k]
		sort.Float64s(l)
		fmt.Fprintf(&b, "  %-24s ok %5d  failed %4d  p50 %8.3f ms  p90 %8.3f ms\n", k, len(l), fails[k], quantile(l, 0.5), quantile(l, 0.9))
	}
	return b.String()
}
