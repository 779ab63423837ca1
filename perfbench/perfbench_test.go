package main

import (
	"reflect"
	"testing"
	"time"
)

// sequences draws the first n inputs of every workload for seed.
func sequences(seed int64, n int) []any {
	cold := newAnalyzeGen(seed, streamCold)
	pts, next := hotInputs(seed)
	panels := newPanelGen(seed)
	jobs := []*jobGen{newJobGen(seed, 0), newJobGen(seed, 1)}
	var out []any
	out = append(out, pts)
	for i := 0; i < n; i++ {
		out = append(out, cold.next(), next(), panels.next(), jobs[0].next(), jobs[1].next())
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := sequences(7, 50), sequences(7, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 produced two different input sequences")
	}
	if reflect.DeepEqual(a, sequences(8, 50)) {
		t.Fatal("seeds 7 and 8 produced the same inputs")
	}
}

func TestAnalyzeInputsDistinctAndMixed(t *testing.T) {
	g := newAnalyzeGen(3, streamCold)
	seen := map[analyzeInput]bool{}
	shapes := map[analyzeInput]int{}
	const cycles = 40
	for i := 0; i < cycles*len(coldShapes); i++ {
		in := g.next()
		if seen[in] {
			t.Fatalf("input %+v repeated", in)
		}
		seen[in] = true
		shape := in
		shape.P, shape.Gamma = 0, 0
		shapes[shape]++
	}
	// Every cycle visits each shape once, so the mix is exact.
	for _, s := range coldShapes {
		want := cycles
		if s.D == 2 && s.F == 2 && s.Model == "" {
			want = 2 * cycles
		}
		if shapes[s] != want {
			t.Errorf("shape %+v drawn %d times, want %d", s, shapes[s], want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, so sorting matters
		}
		return out
	}
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{19, 0.5, false, 0},
		{20, 0.5, true, 10.5},
		{21, 0.5, true, 11},
		{99, 0.9, false, 0},
		{100, 0.9, true, 90.1},
	} {
		got, err := percentile(xs(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("percentile(%d samples, %v): err = %v, want ok = %v", c.n, c.q, err, c.ok)
			continue
		}
		if c.ok && (got < c.want-1e-9 || got > c.want+1e-9) {
			t.Errorf("percentile(%d samples, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("root", 1, -1, at(0), at(100))
	tr.add("a", 1, root, at(10), at(40))
	tr.add("b", 1, root, at(30), at(50)) // overlaps a by 10 ms
	tr.add("c", 1, root, at(90), at(120))
	self := tr.selfTimes()
	if self[root] != 50 {
		t.Fatalf("root self time = %v ms, want 50", self[root])
	}
}
