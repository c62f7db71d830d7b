package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux configuration Go supports.
const clockTicks = 100

// daemon is one pased process the benchmark started.
type daemon struct {
	url string
	cmd *exec.Cmd
	log *os.File
}

// launchDaemon starts pased on 127.0.0.1:port with the given extra flags,
// its output going to logPath. Call waitReady before sending requests.
func launchDaemon(bin, logPath string, port int, extra ...string) (*daemon, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start pased: %w", err)
	}
	return &daemon{url: "http://" + addr, cmd: cmd, log: lf}, nil
}

func (d *daemon) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := http.Get(d.url + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pased at %s not ready after %s (log %s)", d.url, limit, d.log.Name())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop terminates the daemon and waits for it to exit: SIGTERM first (pased
// drains), SIGKILL if it has not exited within ten seconds.
func (d *daemon) stop() {
	defer d.log.Close()
	done := make(chan struct{})
	go func() {
		d.cmd.Wait()
		close(done)
	}()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
}

func stopAll(ds []*daemon) {
	for _, d := range ds {
		d.stop()
	}
}

// pickPort returns preferred when it is free on loopback, else any free port.
// Fleet ownership hashes the member URLs, so a fixed port keeps which member
// owns which key — and with it the forwarded share — the same on every run.
func pickPort(preferred int) (int, error) {
	if l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", preferred)); err == nil {
		l.Close()
		return preferred, nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// daemonStats is the part of GET /v1/stats the benchmark reads.
type daemonStats struct {
	Planner struct {
		Solves           int64 `json:"solves"`
		ResultHits       int64 `json:"result_hits"`
		ResultMisses     int64 `json:"result_misses"`
		ModelHits        int64 `json:"model_hits"`
		ModelMisses      int64 `json:"model_misses"`
		DedupWaits       int64 `json:"dedup_waits"`
		ResultEvictions  int64 `json:"result_evictions"`
		ModelEvictions   int64 `json:"model_evictions"`
		ClassStoreHits   int64 `json:"class_store_hits"`
		ClassStoreMisses int64 `json:"class_store_misses"`
		DeltaResolves    int64 `json:"delta_resolves"`
	} `json:"planner"`
	Requests int64 `json:"requests"`
	Fleet    struct {
		Forwards  int64 `json:"forwards"`
		Fallbacks int64 `json:"fallbacks"`
		Retries   int64 `json:"retries"`
	} `json:"fleet"`
}

// lookups is every planner.Solve call the daemon served, whatever its
// outcome: a cache hit, a miss that started a solve, or a ride-along.
func (s daemonStats) lookups() int64 {
	return s.Planner.ResultHits + s.Planner.ResultMisses + s.Planner.DedupWaits
}

// postOnce sends one POST outside any timed phase.
func postOnce(ctx context.Context, url string, body []byte) (int, []byte, error) {
	var buf bytes.Buffer
	status, err := post(ctx, http.DefaultClient, url, body, &buf)
	return status, buf.Bytes(), err
}

func (d *daemon) stats(ctx context.Context) (daemonStats, error) {
	var st daemonStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats %s: status %d", d.url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("stats %s: %w", d.url, err)
	}
	return st, nil
}

// cpuSeconds is the user plus system CPU time the process has used so far,
// all threads included.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// space-separated, starting with the state (field 3). utime and stime
	// are fields 14 and 15.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB is the process's high-water resident set size (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
