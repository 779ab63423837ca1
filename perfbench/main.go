// Command perfbench is the repository's benchmark. It boots the tree's own
// cmd/serve on loopback, drives it with one of four seeded workloads from
// closed-loop clients (each sends its next request only once the previous
// answer is in, as callers of this service do), checks every answer
// bit for bit against the selfishmining library, and prints the
// end-to-end metrics. With --trace 1 it adds an in-process traced run that
// feeds the same seeded inputs through each layer's public calls and prints
// per-layer metrics instead. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// setupRepeats is how many times a run boots serve and primes it; setup_s
// is the median, and the last boot serves the timed window.
const setupRepeats = 3

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	serve    string
	workdir  string
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err == nil {
		err = run(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&c.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&c.seconds, "seconds", 20, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = also run the traced in-process pass and print per-layer metrics")
	fs.StringVar(&c.serve, "serve", "", "path of the built cmd/serve binary")
	fs.StringVar(&c.workdir, "workdir", ".bench_build", "scratch directory for job stores and traces")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch {
	case fs.NArg() > 0:
		return c, fmt.Errorf("unexpected arguments %v", fs.Args())
	case !slices.Contains(workloads, c.workload):
		return c, fmt.Errorf("--workload %q: need one of %s", c.workload, strings.Join(workloads, ", "))
	case c.seconds < 1:
		return c, fmt.Errorf("--seconds %d: need >= 1", c.seconds)
	case trace != 0 && trace != 1:
		return c, fmt.Errorf("--trace %d: need 0 or 1", trace)
	case c.serve == "":
		return c, fmt.Errorf("--serve: need the cmd/serve binary")
	}
	c.trace = trace == 1
	return c, nil
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// machineFacts are recorded with every result.
func machineFacts() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"llc_bytes":  llcBytes(),
		"go_version": runtime.Version(),
	}
}

// llcBytes reads the size of the last-level cache of CPU 0 from sysfs
// (0 when unavailable).
func llcBytes() int64 {
	var best, level int64
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lb, err1 := os.ReadFile(filepath.Join(d, "level"))
		sb, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		l, _ := strconv.ParseInt(strings.TrimSpace(string(lb)), 10, 64)
		s := strings.TrimSpace(string(sb))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err == nil && l >= level {
			best, level = n*mult, l
		}
	}
	return best
}

func run(cfg config) error {
	wl := newWorkload(cfg.workload, cfg.seed)
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// A signal cancels the run; serve is still stopped on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	facts := machineFacts()
	facts["workload"], facts["seed"], facts["seconds"] = cfg.workload, cfg.seed, cfg.seconds

	m, err := measure(ctx, cfg, wl, dir)
	if err != nil {
		return err
	}
	res := result{Correct: m.correct, Attempted: m.attempted, Failed: m.failed, Metrics: m.e2e}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d operations, %d failed", cfg.workload, cfg.seed, m.attempted, m.failed)
	if m.p90 > 0 {
		fmt.Fprintf(os.Stderr, ", latency p90 %.3f ms", m.p90)
	}
	fmt.Fprintln(os.Stderr)
	for _, e := range m.problems {
		fmt.Fprintln(os.Stderr, "  check failed:", e)
	}
	if cfg.trace {
		tr := newTracer()
		layers, err := traceRun(ctx, cfg, wl, dir, tr)
		if err != nil {
			return err
		}
		for k, v := range m.layers {
			layers[k] = v
		}
		path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path, facts); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "spans written to", path)
		res.Metrics = layers
	}
	printMetrics(res.Metrics)
	fb, err := json.Marshal(map[string]any{"facts": facts})
	if err != nil {
		return err
	}
	fmt.Println(string(fb))
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printMetrics lists every metric by name and unit on standard error.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
