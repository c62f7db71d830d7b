package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// environment is what must match for two runs to be compared.
type environment struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// runRecord is one run's provenance and result, printed before the result
// line and kept under .bench_build/records.
type runRecord struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Clients  int         `json:"clients"`
	Env      environment `json:"env"`
	// Commit is the git commit when the checkout is a repository; Source is
	// a digest of the Go sources, go.mod files and spec documents, which
	// identifies the code either way.
	Commit string `json:"commit,omitempty"`
	Source string `json:"source"`
	// Samples is the count of successful requests the latency percentiles
	// are taken over: those of the intervals whose steal share was at most
	// StealKept (see measure in load.go), which covered KeptShare of the
	// timed phase.
	Samples   int     `json:"samples"`
	StealKept float64 `json:"steal_kept"`
	KeptShare float64 `json:"kept_share"`
	// StealShare is the share of the machine's CPU time the hypervisor gave
	// to other guests during the timed phase.
	StealShare float64 `json:"steal_share"`
	// Ungated holds the end-to-end metrics that are measured and recorded
	// but left out of BENCHMARK.json: on a shared 2-core VM they move with
	// the hypervisor's steal time by more than any usable bound (README).
	Ungated map[string]metric `json:"ungated,omitempty"`
	SetupS  []float64         `json:"setup_s_each"`
	Result  *result           `json:"result"`
}

func newRecord(b *bench, w *workload, st phaseStats, setups []float64) *runRecord {
	rec := &runRecord{
		Workload: w.name, Seed: b.seed, Seconds: b.dur.Seconds(), Clients: w.clients,
		Env: environment{
			CPUModel: cpuModel(), NProc: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		},
		Source:  sourceDigest(b.root),
		Samples: len(st.lat), StealKept: st.threshold, KeptShare: st.kept, StealShare: st.steal,
		SetupS: setups,
	}
	if out, err := exec.Command("git", "-C", b.root, "rev-parse", "HEAD").Output(); err == nil {
		rec.Commit = strings.TrimSpace(string(out))
	}
	return rec
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go, go.mod and .json file under root, outside
// build output and version control, in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if ext := filepath.Ext(p); !d.IsDir() && (ext == ".go" || ext == ".json" || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// compareRecords prints the metrics of two run records side by side. Records
// from different environments or workloads are refused, not compared.
func compareRecords(paths []string) error {
	if len(paths) != 2 {
		return errors.New("-compare takes two record files")
	}
	var recs [2]runRecord
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if recs[i].Result == nil {
			return fmt.Errorf("%s: no result", p)
		}
	}
	a, b := recs[0], recs[1]
	if a.Env != b.Env {
		return fmt.Errorf("refusing to compare runs from different environments: %+v vs %+v", a.Env, b.Env)
	}
	if a.Workload != b.Workload || a.Seconds != b.Seconds || a.Clients != b.Clients {
		return fmt.Errorf("refusing to compare %s (%gs, %d clients) with %s (%gs, %d clients)",
			a.Workload, a.Seconds, a.Clients, b.Workload, b.Seconds, b.Clients)
	}
	var names []string
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-28s %14s %14s %9s\n", "metric", a.Source, b.Source, "b/a")
	for _, n := range names {
		ma, mb := a.Result.Metrics[n], b.Result.Metrics[n]
		r := 0.0
		if ma.Value != 0 {
			r = mb.Value / ma.Value
		}
		fmt.Printf("%-28s %14.4f %14.4f %9.3f %s\n", n, ma.Value, mb.Value, r, ma.Unit)
	}
	return nil
}

// cpuTimes reads the aggregate steal and total CPU ticks from /proc/stat.
func cpuTimes() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
