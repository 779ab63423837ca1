package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the unit of the CPU times in /proc/<pid>/stat on Linux.
const userHZ = 100

// serveProc is one running cmd/serve process on a loopback port.
type serveProc struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
	err  error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServe execs bin with args on a fresh loopback address. Its logs go
// to /dev/null: at the default level it logs every request.
func startServe(bin string, args []string) (*serveProc, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	// serve must not outlive the benchmark, even one killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting serve: %w", err)
	}
	p := &serveProc{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// waitReady polls /readyz until it answers 200.
func (p *serveProc) waitReady(ctx context.Context, c *client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("serve exited before it was ready: %v", p.err)
		default:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := c.hc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("serve not ready after 30s")
}

// stop sends SIGTERM (serve's graceful shutdown) and waits for the exit,
// killing the process if it outlives the drain budget.
func (p *serveProc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exited process is handled below
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill() // the wait below reaps it either way
		<-p.done
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func (p *serveProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name in parentheses may contain spaces; the fields
	// after it start with field 3 (state), so utime and stime (fields 14
	// and 15) are at 11 and 12.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) / userHZ, nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func (p *serveProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// client is the benchmark's HTTP client: at most maxConns connections,
// kept alive between requests.
type client struct {
	hc   *http.Client
	base string
}

func newClient(maxConns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}}
}

// do sends one request and decodes a 2xx JSON answer into dst; any other
// status is an error carrying the body.
func (c *client) do(ctx context.Context, method, path string, body, dst any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if dst == nil {
		return nil
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		return fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
	}
	return nil
}

// drain reads a streaming answer (an SSE job event stream) to its end.
func (c *client) drain(ctx context.Context, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// serviceStats is the part of GET /v1/stats the benchmark reads.
type serviceStats struct {
	Results struct {
		Hits, Misses float64
	}
	Solves, Compiles, Coalesced float64
	WarmHits, WarmMisses        float64
	SweepPoints                 float64
	Jobs                        struct {
		Leases *struct {
			Acquired float64 `json:"acquired"`
			Renewed  float64 `json:"renewed"`
			Released float64 `json:"released"`
		} `json:"leases"`
	} `json:"jobs"`
}

func (s serviceStats) leaseOps() float64 {
	if s.Jobs.Leases == nil {
		return 0
	}
	return s.Jobs.Leases.Acquired + s.Jobs.Leases.Renewed + s.Jobs.Leases.Released
}

// promSeries maps each series of a Prometheus text exposition
// ("name{labels}") to its value.
type promSeries map[string]float64

func (c *client) scrape(ctx context.Context) (promSeries, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := promSeries{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the metric family name whose labels contain
// each of the given label pairs (as `key="value"`).
func (m promSeries) sum(name string, labels ...string) float64 {
	var t float64
	for k, v := range m {
		fam, lbl, _ := strings.Cut(k, "{")
		if fam != name {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(lbl, l)
		}
		if ok {
			t += v
		}
	}
	return t
}

// counters is one snapshot of everything the benchmark diffs around a
// timed window.
type counters struct {
	stats serviceStats
	prom  promSeries
	cpu   float64
}

func snapshot(ctx context.Context, c *client, p *serveProc) (counters, error) {
	var s counters
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &s.stats); err != nil {
		return s, err
	}
	prom, err := c.scrape(ctx)
	if err != nil {
		return s, err
	}
	s.prom = prom
	s.cpu, err = p.cpuSeconds()
	return s, err
}
