package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/results"
	"repro/selfishmining"
	"repro/selfishmining/jobs"
)

// scrapeCounter reads one unlabeled counter from the server's /metrics.
func scrapeCounter(t *testing.T, baseURL, name string) float64 {
	t.Helper()
	resp, text := httpDo(t, http.MethodGet, baseURL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s sample %q: %v", name, v, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s sample", name)
	return 0
}

// assertPanel compares a served panel with the reference figure bit for bit.
func assertPanel(t *testing.T, surface string, x []float64, series []wireSeries, want *results.Figure) {
	t.Helper()
	if len(x) != len(want.X) || len(series) != len(want.Series) {
		t.Fatalf("%s: %d x-values and %d series, want %d and %d", surface, len(x), len(series), len(want.X), len(want.Series))
	}
	for i, s := range want.Series {
		if series[i].Name != s.Name || len(series[i].Values) != len(s.Values) {
			t.Fatalf("%s: series %d is %q with %d values, want %q with %d",
				surface, i, series[i].Name, len(series[i].Values), s.Name, len(s.Values))
		}
		for k, v := range s.Values {
			if math.Float64bits(series[i].Values[k]) != math.Float64bits(v) {
				t.Errorf("%s: %s at p=%v is %v, solo %v", surface, s.Name, want.X[k], series[i].Values[k], v)
			}
		}
	}
}

// TestDefaultSweepBatchesOnEverySurface: a jacobi sweep that names no lane
// count runs batched lane groups on every serve surface — the buffered
// endpoint, the NDJSON and SSE streams, and a sweep job — and each panel
// is bitwise the figure a forced solo (BatchLanes = 1) sweep computes. A
// default sweep under another kernel still succeeds on the solo path.
func TestDefaultSweepBatchesOnEverySurface(t *testing.T) {
	const groups = "sweep_batch_groups_total"
	grid := results.Grid(0, 0.3, 0.05)
	want, err := selfishmining.NewService(selfishmining.ServiceConfig{}).SweepContext(context.Background(),
		selfishmining.SweepOptions{
			Gamma: 0.5, PGrid: grid,
			Configs:    []selfishmining.AttackConfig{{Depth: 1, Forks: 1}, {Depth: 2, Forks: 1}},
			MaxForkLen: 3, TreeWidth: 3, Epsilon: 1e-3, BatchLanes: 1,
		})
	if err != nil {
		t.Fatalf("solo reference: %v", err)
	}
	const panel = `"gamma":0.5,"configs":[{"d":1,"f":1},{"d":2,"f":1}],"l":3,"tree_width":3,"epsilon":1e-3`
	body := `{` + panel + `,"pmin":0,"pmax":0.3,"pstep":0.05}`
	pgrid, err := json.Marshal(grid)
	if err != nil {
		t.Fatal(err)
	}

	surfaces := []struct {
		name string
		run  func(t *testing.T, url string) ([]float64, []wireSeries)
	}{
		{"POST /v1/sweep", func(t *testing.T, url string) ([]float64, []wireSeries) {
			resp, data := postJSON(t, url+"/v1/sweep", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
			var out sweepResponse
			if err := json.Unmarshal(data, &out); err != nil {
				t.Fatal(err)
			}
			return out.X, out.Series
		}},
		{"NDJSON stream", func(t *testing.T, url string) ([]float64, []wireSeries) {
			resp, data := postJSON(t, url+"/v1/sweep/stream", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			var sum summaryLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil || sum.Type != "summary" {
				t.Fatalf("last line %q is no summary (%v)", lines[len(lines)-1], err)
			}
			return sum.X, sum.AllSeries
		}},
		{"SSE stream", func(t *testing.T, url string) ([]float64, []wireSeries) {
			resp, err := http.Post(url+"/v1/sweep/sse", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			evs := readSSE(t, resp.Body, 0)
			if len(evs) == 0 || evs[len(evs)-1].event != "summary" {
				t.Fatalf("SSE stream ended without a summary: %+v", evs)
			}
			var sum summaryLine
			if err := json.Unmarshal([]byte(evs[len(evs)-1].data), &sum); err != nil {
				t.Fatal(err)
			}
			return sum.X, sum.AllSeries
		}},
		{"sweep job", func(t *testing.T, url string) ([]float64, []wireSeries) {
			resp, data := postJSON(t, url+"/v1/jobs", `{"kind":"sweep","sweep":{`+panel+`,"p_grid":`+string(pgrid)+`}}`)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit status %d: %s", resp.StatusCode, data)
			}
			var st jobs.Status
			if err := json.Unmarshal(data, &st); err != nil {
				t.Fatal(err)
			}
			res := waitJobState(t, url, st.ID, jobs.StateDone).SweepResult
			if res == nil {
				t.Fatal("sweep job has no result")
			}
			series := make([]wireSeries, len(res.Series))
			for i, s := range res.Series {
				series[i] = wireSeries{Name: s.Name, Values: s.Values}
			}
			return res.X, series
		}},
	}
	for _, sf := range surfaces {
		t.Run(sf.name, func(t *testing.T) {
			ts, _ := testServer(t) // fresh caches, so every point is solved
			before := scrapeCounter(t, ts.URL, groups)
			x, series := sf.run(t, ts.URL)
			if after := scrapeCounter(t, ts.URL, groups); after <= before {
				t.Errorf("%s scheduled no lane groups (%s %v -> %v)", sf.name, groups, before, after)
			}
			assertPanel(t, sf.name, x, series, want)
		})
	}

	t.Run("gs kernel stays solo", func(t *testing.T) {
		ts, _ := testServer(t)
		before := scrapeCounter(t, ts.URL, groups)
		resp, data := postJSON(t, ts.URL+"/v1/sweep", `{`+panel+`,"pmin":0,"pmax":0.3,"pstep":0.05,"kernel":"gs"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gs sweep status %d: %s", resp.StatusCode, data)
		}
		if after := scrapeCounter(t, ts.URL, groups); after != before {
			t.Errorf("gs sweep scheduled lane groups (%s %v -> %v)", groups, before, after)
		}
	})

	t.Run("batch_lanes field rejected", func(t *testing.T) {
		ts, _ := testServer(t)
		resp, data := postJSON(t, ts.URL+"/v1/sweep", `{`+panel+`,"batch_lanes":8}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch_lanes accepted: status %d: %s", resp.StatusCode, data)
		}
	})
}
