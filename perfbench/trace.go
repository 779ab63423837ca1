package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent indexes the span that made the call (-1 for an operation's root).
// Job is set on spans recorded inside the job store, which only knows the
// job id; link attaches them to that job's root span.
type span struct {
	Name   string  `json:"name"`
	Op     int64   `json:"op"`
	Parent int     `json:"parent"`
	Job    string  `json:"job,omitempty"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps spans and per-layer samples in memory until the run ends.
// A nil *tracer records nothing: the untraced passes run the same code
// with a nil tracer, and the difference is the tracing overhead.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	samples map[string][]float64
	ops     int64
	jobRoot map[string]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}, jobRoot: map[string]int{}}
}

func (t *tracer) ms(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Millisecond) }

// newOp allocates an operation id.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// add records a finished span and returns its index (-1 when untraced).
func (t *tracer) add(name string, op int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: t.ms(start), End: t.ms(end)})
	return len(t.spans) - 1
}

// begin opens a span whose end is set by finish; children recorded in
// between can name it as their parent.
func (t *tracer) begin(name string, op int64, parent int) int {
	now := time.Now()
	return t.add(name, op, parent, now, now)
}

func (t *tracer) finish(id int) {
	if t == nil || id < 0 {
		return
	}
	end := t.ms(time.Now())
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// addJob records a store-side span of job id.
func (t *tracer) addJob(name, job string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: -1, Job: job, Start: t.ms(start), End: t.ms(end)})
}

// setJobRoot names the root span of job id.
func (t *tracer) setJobRoot(job string, id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.jobRoot[job] = id
	t.mu.Unlock()
}

// sample records one observation of a per-layer figure.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// durMs is a duration in milliseconds.
func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// link attaches store-side spans to their job's root span.
func (t *tracer) link() {
	for i := range t.spans {
		s := &t.spans[i]
		if s.Job == "" || s.Parent >= 0 {
			continue
		}
		if root, ok := t.jobRoot[s.Job]; ok {
			s.Parent, s.Op = root, t.spans[root].Op
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func (t *tracer) selfTimes() []float64 {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		type iv struct{ a, b float64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(t.spans[c].Start, s.Start), min(t.spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, end := 0.0, s.Start
		for _, v := range ivs {
			if v.b <= end {
				continue
			}
			covered += v.b - max(v.a, end)
			end = v.b
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// report prints the self time per layer and the spans of one operation
// (the fork-anchor waterfall) to w.
func (t *tracer) report(w io.Writer, waterfallOp int64) {
	self := t.selfTimes()
	type agg struct {
		n          int
		self       float64
		durSamples []float64
	}
	by := map[string]*agg{}
	var names []string
	for i, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.self += self[i]
		a.durSamples = append(a.durSamples, s.End-s.Start)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	fmt.Fprintf(w, "self time per layer (traced run, %d spans):\n", len(t.spans))
	fmt.Fprintf(w, "  %-42s %7s %12s %12s\n", "span", "count", "self ms", "median ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "  %-42s %7d %12.3f %12.4f\n", n, a.n, a.self, median(a.durSamples))
	}
	fmt.Fprintf(w, "fork-anchor waterfall (d=2 f=2 l=4, p=0.3, gamma=0.5):\n")
	for i, s := range t.spans {
		if s.Op != waterfallOp {
			continue
		}
		depth := 0
		for p := s.Parent; p >= 0; p = t.spans[p].Parent {
			depth++
		}
		fmt.Fprintf(w, "  %*s%-40s %10.3f ms  (self %.3f ms)\n", 2*depth, "", s.Name, s.End-s.Start, self[i])
	}
}

// write stores every span and sample as JSON at path.
func (t *tracer) write(path string, facts map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"facts": facts, "spans": t.spans, "samples": t.samples}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
