package server

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// postFixture publishes the encoder, model, and upload frames of fx,
// failing the test on any non-2xx answer.
func postFixture(t *testing.T, ts *httptest.Server, fx *federationFixture) {
	t.Helper()
	for _, step := range []struct {
		path, ct string
		body     []byte
	}{
		{"/v1/encoder", "application/json", fx.encoderJSON},
		{"/v1/model", "application/octet-stream", fx.modelBytes},
		{"/v1/uploads", "application/octet-stream", fx.frames},
	} {
		resp := post(t, ts, step.path, step.ct, step.body)
		if resp.StatusCode >= 300 {
			t.Fatalf("POST %s: status %d", step.path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestMetricsAndTraceEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	ts := httptest.NewServer(New())
	defer ts.Close()
	postFixture(t, ts, fx)

	// One synchronous trace so the job and tracer instrument families have
	// observed real work.
	resp := post(t, ts, "/v1/trace?wait=60s", "text/csv", fx.testCSV)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/trace: status %d", resp.StatusCode)
	}
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Error("trace response missing X-Request-Id header")
	}
	resp.Body.Close()

	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	// Prometheus exposition covers every subsystem's metric family.
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		`ctfl_http_requests_total{route="/v1/trace"}`,
		"ctfl_http_request_seconds_bucket",
		"ctfl_http_in_flight",
		"ctfl_jobs_submitted_total 1",
		"ctfl_jobs_wait_seconds_count 1",
		`ctfl_tracer_queries_total{strategy="index"}`,
		"ctfl_tracer_trace_seconds_count 1",
		"ctfl_store_append_seconds_count",
		"# TYPE ctfl_http_request_seconds histogram",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics missing %q", name)
		}
	}

	// JSON twin inside the debug bundle.
	b := getBundle(t, ts)
	if b.Telemetry["ctfl_jobs_submitted_total"] != 1.0 || b.Telemetry["ctfl_jobs_done_total"] != 1.0 {
		t.Errorf("bundle jobs: submitted %v, done %v, want 1 / 1",
			b.Telemetry["ctfl_jobs_submitted_total"], b.Telemetry["ctfl_jobs_done_total"])
	}
	if got, _ := b.Telemetry["ctfl_process_uptime_seconds"].(float64); got <= 0 {
		t.Errorf("uptime %v, want > 0", b.Telemetry["ctfl_process_uptime_seconds"])
	}

	// The flight recorder is the one per-request record: the trace request
	// is an event under the id echoed in X-Request-Id, and the job that
	// served it is an event of its own.
	var request, job bool
	for _, ev := range getEvents(t, ts, "").Events {
		switch {
		case ev.Kind == "request" && ev.Route == "/v1/trace":
			request = ev.RequestID == reqID && ev.Status == http.StatusOK && ev.DurationNs > 0
		case ev.Kind == "job" && ev.Route == "job.trace":
			job = ev.Outcome == "ok" && ev.DurationNs > 0
		}
	}
	if !request || !job {
		t.Fatalf("flight events: request under %q recorded %v, job recorded %v", reqID, request, job)
	}
}

// lockedBuffer is a log sink safe to read while server goroutines write.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestAccessLogCarriesRequestID(t *testing.T) {
	var logs lockedBuffer
	s, err := NewWithOptions(Options{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "reqid-test-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "reqid-test-42" {
		t.Errorf("X-Request-Id echoed as %q, want caller's id", got)
	}

	lines := strings.Split(logs.String(), "\n")
	found := false
	for _, l := range lines {
		if strings.Contains(l, "request") && strings.Contains(l, "request_id=reqid-test-42") {
			found = true
			if !strings.Contains(l, "route=/healthz") || !strings.Contains(l, "status=200") {
				t.Errorf("access log line missing route/status: %q", l)
			}
		}
	}
	if !found {
		t.Fatalf("no access-log line carries the request id; got %q", lines)
	}
}

// TestConcurrentScrapeWhileUploading exercises the metric registry, flight
// recorder, and debug bundle while lifecycle mutations and traces are in
// flight — the race detector is the assertion.
func TestConcurrentScrapeWhileUploading(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	ts := httptest.NewServer(New())
	defer ts.Close()
	postFixture(t, ts, fx)

	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	var wg sync.WaitGroup
	const iters = 8

	wg.Add(1)
	go func() { // uploads keep mutating federation state
		defer wg.Done()
		for i := 0; i < iters; i++ {
			resp, err := http.Post(ts.URL+"/v1/uploads", "application/octet-stream", bytes.NewReader(fx.frames))
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	wg.Add(1)
	go func() { // traces keep the job engine and tracer busy
		defer wg.Done()
		for i := 0; i < iters; i++ {
			resp, err := http.Post(ts.URL+"/v1/trace?wait=60s", "text/csv", bytes.NewReader(fx.testCSV))
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	for _, scrape := range []func() error{
		func() error { _, err := c.Metrics(ctx); return err },
		func() error { var b DebugBundle; return jsonGet(ts, "/v1/debug/bundle", &b) },
		func() error {
			resp, err := http.Get(ts.URL + "/v1/events?n=10")
			if err == nil {
				resp.Body.Close()
			}
			return err
		},
	} {
		wg.Add(1)
		go func(f func() error) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := f(); err != nil {
					t.Error(err)
					return
				}
			}
		}(scrape)
	}
	wg.Wait()
}
