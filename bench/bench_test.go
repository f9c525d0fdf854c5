package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{20, 0.50, 10, true}, // 10 beyond
		{19, 0.50, 10, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{100, 0.90, 90, true},
		{0, 0.50, 0, false},
	} {
		v, ok := quantile(seq(c.n), c.q)
		if v != c.want || ok != c.ok {
			t.Errorf("quantile(n=%d, q=%g) = %v, %v; want %v, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
	s := seq(200) // p99 has 2 beyond, p95 has 10
	if q, v, ok := tail(s); !ok || q != 0.95 || v != 190 {
		t.Errorf("tail(200 samples) = p%g %v %v; want p95 190 true", q*100, v, ok)
	}
	if _, _, ok := tail(seq(30)); ok {
		t.Error("tail of 30 samples reported; p75 has only 7 beyond")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Reference values: statistics.quantiles(v, n=4) and statistics.median(v).
	for _, c := range []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 4, 7.75}, 2.375, 4, 8.375},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	} {
		q1, med, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v; want %v %v %v", c.v, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// An open-loop request is timed from its due time, so a generator that
// runs late charges the wait to the request, and the lateness is recorded.
func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
	}))
	defer srv.Close()
	cl := &client{hc: srv.Client(), base: srv.URL}
	rec := newRecorder("/x")
	due := time.Now().Add(-40 * time.Millisecond)
	if _, err := cl.timed(context.Background(), rec, due, request{method: http.MethodGet, path: "/"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.timed(context.Background(), rec, time.Time{}, request{method: http.MethodGet, path: "/"}); err != nil {
		t.Fatal(err)
	}
	if got := rec.lat[0]; got < 45 {
		t.Errorf("late request latency %.1f ms, want at least 40 ms late + 5 ms served", got)
	}
	if got := rec.lateness[0]; got < 40 {
		t.Errorf("lateness %.1f ms, want at least 40", got)
	}
	if got := rec.lat[1]; got < 5 || got >= 40 {
		t.Errorf("closed-loop latency %.1f ms, want the 5 ms service time only", got)
	}
}

func TestMetricsDelta(t *testing.T) {
	parse := func(text string) map[string]float64 {
		m, err := parseMetrics(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	before := parse(`# HELP ctfl_http_request_seconds HTTP request latency, by route
# TYPE ctfl_http_request_seconds histogram
ctfl_http_request_seconds_bucket{route="/v1/uploads",le="0.001"} 3
ctfl_http_request_seconds_sum{route="/v1/uploads"} 0.5
ctfl_http_request_seconds_count{route="/v1/uploads"} 10
ctfl_store_compactions_total 1
ctfl_process_gc_pause_seconds_total 1.5e-05
`)
	after := parse(`ctfl_http_request_seconds_sum{route="/v1/uploads"} 2
ctfl_http_request_seconds_count{route="/v1/uploads"} 40
ctfl_store_compactions_total 3
ctfl_process_gc_pause_seconds_total 2.5e-05
ctfl_jobs_done_total 7
`)
	for series, want := range map[string]float64{
		`ctfl_http_request_seconds_sum{route="/v1/uploads"}`:   1.5,
		`ctfl_http_request_seconds_count{route="/v1/uploads"}`: 30,
		"ctfl_store_compactions_total":                         2,
		"ctfl_jobs_done_total":                                 7, // new since before: counts from 0
	} {
		if got, ok := delta(before, after, series); !ok || got != want {
			t.Errorf("delta %s = %v, %v; want %v", series, got, ok, want)
		}
	}
	if got, _ := delta(before, after, "ctfl_process_gc_pause_seconds_total"); math.Abs(got-1e-5) > 1e-18 {
		t.Errorf("gauge delta %v, want 1e-5", got)
	}
	if _, ok := delta(before, after, "ctfl_rounds_evals_total"); ok {
		t.Error("a family missing from the scrape reported ok")
	}
	if _, err := parseMetrics(strings.NewReader("no_value_here\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "b", StartNs: 20, EndNs: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartNs: 90, EndNs: 120}, // outlives root
		{ID: 5, Parent: 3, Name: "d", StartNs: 25, EndNs: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	st := summarize(spans)
	if got := st["root"]; got.Count != 1 || got.MeanMs != 100e-6 || got.SelfMs != 50e-6 {
		t.Errorf("summary of root = %+v", got)
	}
}

// TestBenchSmoke runs every workload at a tiny op count against the real
// ctflsrv with every correctness check on.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs ctflsrv")
	}
	repo, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	cfg := &config{
		repo:    repo,
		srvBin:  filepath.Join(tmp, "ctflsrv"),
		work:    filepath.Join(tmp, "work"),
		outDir:  filepath.Join(tmp, "out"),
		seed:    3,
		seconds: 0.2,
	}
	if err := buildServer(cfg.repo, cfg.srvBin); err != nil {
		t.Fatal(err)
	}
	fx, err := buildFixture(cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		res, err := runWorkload(context.Background(), cfg, fx, w, w.name == "live")
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(res.checks) == 0 {
			t.Errorf("%s ran no correctness checks", w.name)
		}
		for _, c := range res.checks {
			if !c.ok {
				t.Errorf("%s: check failed: %s (%s)", w.name, c.name, c.detail)
			}
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d requests failed", w.name, res.failed, res.attempted)
		}
		names := map[string]bool{}
		for _, m := range append(append(res.e2e, res.routes...), res.layers...) {
			names[m.name] = true
		}
		for _, want := range []string{"setup_s", "recover_s", "peak_rss_mb", "ops_per_s"} {
			if !names[want] {
				t.Errorf("%s: no %s", w.name, want)
			}
		}
		if w.name == "live" && (!names["store.append_us"] || !names["core.trace_ms"]) {
			t.Errorf("traced live run lacks per-layer metrics: %v", names)
		}
	}
}

func TestProbeSlowdownWindows(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ref := probeRefMs // samples below are in multiples of the reference
	p := &speedProbe{samples: [][]probeSample{
		{{at(0), ref}, {at(100), 2 * ref}, {at(200), 2 * ref}},
		{{at(10), ref}, {at(110), ref}, {at(210), 4 * ref}},
	}}
	for _, c := range []struct {
		from, to int
		want     float64
	}{
		{0, 20, 1},      // both CPUs at the reference 0.5 ms
		{90, 220, 2.25}, // CPU 0 mean 1.0, CPU 1 mean 1.25: 1.125 / 0.5
		{150, 160, 1.5}, // empty window: nearest samples 1.0 and 0.5
		{1000, 2000, 3}, // after the last samples: 1.0 and 2.0
	} {
		if got := p.slowdown(at(c.from), at(c.to)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("slowdown(%d..%d ms) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if got := (&speedProbe{}).slowdown(t0, t0); got != 1 {
		t.Errorf("slowdown without samples = %v, want 1", got)
	}
}
