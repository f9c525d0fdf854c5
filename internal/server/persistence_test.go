package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// rawJobEnv decodes a trace-job envelope keeping the result as raw bytes,
// so tests can compare scores byte-for-byte.
type rawJobEnv struct {
	ID       string          `json:"id"`
	Status   string          `json:"status"`
	CacheHit bool            `json:"cache_hit"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
}

func newDurable(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := NewWithOptions(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func closeServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func publishAll(t *testing.T, ts *httptest.Server, fx *federationFixture) {
	t.Helper()
	if resp := post(t, ts, "/v1/encoder", "application/json", fx.encoderJSON); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("encoder status %d", resp.StatusCode)
	}
	if resp := post(t, ts, "/v1/model", "application/octet-stream", fx.modelBytes); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("model status %d", resp.StatusCode)
	}
	if resp := post(t, ts, "/v1/uploads", "application/octet-stream", fx.frames); resp.StatusCode != http.StatusOK {
		t.Fatalf("uploads status %d", resp.StatusCode)
	}
}

func traceRaw(t *testing.T, ts *httptest.Server, path string, csv []byte) rawJobEnv {
	t.Helper()
	resp := post(t, ts, path, "text/csv", csv)
	var env rawJobEnv
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || env.Status != "done" {
		t.Fatalf("trace %s: status %d, job %+v", path, resp.StatusCode, env)
	}
	return env
}

// TestRestartReproducesTraceByteForByte is the acceptance test of the
// durable store: a server recreated from the same data dir must reproduce
// pre-restart /v1/trace output exactly, whether it recovers from a final
// snapshot (graceful shutdown) or from the raw WAL (crash).
func TestRestartReproducesTraceByteForByte(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	dir := t.TempDir()

	s1 := newDurable(t, dir)
	ts1 := httptest.NewServer(s1)
	publishAll(t, ts1, fx)
	before := traceRaw(t, ts1, "/v1/trace?tau=0.9&delta=2&wait=60s", fx.testCSV)
	ts1.Close()

	t.Run("crash-recovery-from-wal", func(t *testing.T) {
		// s1 was not closed: no final snapshot exists, so this boot replays
		// the write-ahead log alone.
		if _, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil {
			t.Fatal(err)
		}
		s2, err := NewWithOptions(Options{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts2 := httptest.NewServer(s2)
		after := traceRaw(t, ts2, "/v1/trace?tau=0.9&delta=2&wait=60s", fx.testCSV)
		ts2.Close()
		closeServer(t, s2) // graceful: writes the snapshot the next subtest uses
		if !bytes.Equal(before.Result, after.Result) {
			t.Fatalf("trace diverged across WAL recovery:\n%s\nvs\n%s", before.Result, after.Result)
		}
	})

	t.Run("recovery-from-final-snapshot", func(t *testing.T) {
		// The previous subtest closed gracefully: state now lives in a
		// snapshot and the WAL is empty.
		s3 := newDurable(t, dir)
		ts3 := httptest.NewServer(s3)
		defer ts3.Close()
		defer closeServer(t, s3)
		after := traceRaw(t, ts3, "/v1/trace?tau=0.9&delta=2&wait=60s", fx.testCSV)
		if !bytes.Equal(before.Result, after.Result) {
			t.Fatalf("trace diverged across snapshot recovery:\n%s\nvs\n%s", before.Result, after.Result)
		}
		// Health must agree the full federation came back.
		h, err := (&Client{BaseURL: ts3.URL}).Health(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if h["participants"].(float64) != float64(fx.parts) || h["durable"] != true {
			t.Fatalf("health after recovery = %v", h)
		}
	})
}

func TestAsyncTraceFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	ts := httptest.NewServer(New())
	defer ts.Close()
	publishAll(t, ts, fx)

	// Submit without wait: 202 + job id + Location.
	resp := post(t, ts, "/v1/trace?tau=0.9&delta=2", "text/csv", fx.testCSV)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var env TraceJobResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if env.ID == "" || resp.Header.Get("Location") != "/v1/trace/"+env.ID {
		t.Fatalf("submit envelope = %+v, location %q", env, resp.Header.Get("Location"))
	}

	// Poll until terminal.
	cl := &Client{BaseURL: ts.URL}
	deadline := time.Now().Add(60 * time.Second)
	var job *TraceJobResponse
	for {
		var err error
		if job, err = cl.TraceJob(context.Background(), env.ID); err != nil {
			t.Fatal(err)
		}
		if job.Status == "done" || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if job.Status != "done" || job.Result == nil || len(job.Result.Micro) != fx.parts {
		t.Fatalf("polled job = %+v", job)
	}

	// Unknown job ids are 404.
	r404, err := http.Get(ts.URL + "/v1/trace/job-99999999")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d", r404.StatusCode)
	}
}

// TestConcurrentTraceAndUploads drives simultaneous trace submissions and
// upload registrations; run under -race (scripts/check.sh) this is the
// lock-contention acceptance test: scoring never blocks uploads.
func TestConcurrentTraceAndUploads(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	ts := httptest.NewServer(New())
	defer ts.Close()
	publishAll(t, ts, fx)

	const tracers, uploaders = 6, 3
	var wg sync.WaitGroup
	errs := make(chan error, tracers+uploaders)
	for g := 0; g < tracers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Distinct tau per goroutine defeats the result cache, so every
			// request exercises the full submit→compute path.
			path := fmt.Sprintf("/v1/trace?tau=0.9%d&wait=60s", g)
			resp, err := http.Post(ts.URL+path, "text/csv", bytes.NewReader(fx.testCSV))
			if err != nil {
				errs <- err
				return
			}
			var env TraceJobResponse
			err = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if env.Status != "done" || env.Result == nil {
				errs <- fmt.Errorf("trace %d: %+v", g, env)
			}
		}(g)
	}
	for g := 0; g < uploaders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, err := http.Post(ts.URL+"/v1/uploads", "application/octet-stream", bytes.NewReader(fx.frames))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("upload status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestBodySizeCap(t *testing.T) {
	s, err := NewWithOptions(Options{MaxBodyBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	big := bytes.Repeat([]byte("x"), 1024)
	for _, path := range []string{"/v1/encoder", "/v1/model", "/v1/trace"} {
		resp := post(t, ts, path, "application/octet-stream", big)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized body: status %d", path, resp.StatusCode)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: 413 body not JSON: %v", path, err)
		}
		resp.Body.Close()
		if body["error"] == "" {
			t.Fatalf("%s: empty 413 error", path)
		}
	}
}

// stallReader yields head, then blocks every further Read until release is
// closed; reached is closed by the first blocked Read.
type stallReader struct {
	head             []byte
	reached, release chan struct{}
	once             sync.Once
}

func (r *stallReader) Read(p []byte) (int, error) {
	if len(r.head) > 0 {
		n := copy(p, r.head)
		r.head = r.head[n:]
		return n, nil
	}
	r.once.Do(func() { close(r.reached) })
	<-r.release
	return 0, io.ErrUnexpectedEOF
}

// TestStalledBodyAllocatesFromBytesReceived sends every POST route a
// request that declares 64 MiB, delivers 16 bytes and stalls: while it
// stalls, the route must hold a buffer sized by the bytes received, not by
// the declared length.
func TestStalledBodyAllocatesFromBytesReceived(t *testing.T) {
	s, err := NewWithOptions(Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)
	enc, err := dataset.NewEncoder(dataset.TicTacToe().Schema, 4, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn.New(enc.Width(), nn.Config{Hidden: []int{8}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var model bytes.Buffer
	if _, err := m.WriteTo(&model); err != nil {
		t.Fatal(err)
	}
	encJSON, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		path string
		body []byte
	}{{"/v1/encoder", encJSON}, {"/v1/model", model.Bytes()}} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, p.path, bytes.NewReader(p.body)))
		if w.Code != http.StatusNoContent {
			t.Fatalf("%s: status %d: %s", p.path, w.Code, w.Body)
		}
	}

	const declared, bound = 64 << 20, 8 << 20
	for _, rt := range []struct{ path, ct string }{
		{"/v1/encoder", "application/json"},
		{"/v1/model", "application/octet-stream"},
		{"/v1/uploads", protocol.ContentTypeFrame},
		{"/v1/predict", protocol.ContentTypeFrame},
		{"/v1/rounds", "text/csv"},
		{"/v1/rounds", protocol.ContentTypeFrame},
		{"/v1/trace", "text/csv"},
		{"/v1/replicate", protocol.ContentTypeFrame},
	} {
		// Two collections also empty the sync.Pools, which may still hold
		// the previous route's buffers.
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := int64(ms.HeapAlloc)
		body := &stallReader{head: make([]byte, 16), reached: make(chan struct{}), release: make(chan struct{})}
		req := httptest.NewRequest(http.MethodPost, rt.path, body)
		req.ContentLength = declared
		req.Header.Set("Content-Type", rt.ct)
		done := make(chan int)
		go func() {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			done <- w.Code
		}()
		select {
		case <-body.reached:
		case code := <-done:
			t.Fatalf("%s (%s): answered %d without reading the body", rt.path, rt.ct, code)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		grown := int64(ms.HeapAlloc) - before
		close(body.release)
		<-done
		if grown > bound {
			t.Errorf("%s (%s): a stalled 16-byte body grew the heap by %d bytes, want at most %d",
				rt.path, rt.ct, grown, bound)
		}
	}
}

// TestStatsEndpoint pins the stats surface: GET /v1/stats is gone, and the
// numbers it served come from the debug bundle's telemetry and state.
func TestStatsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	dir := t.TempDir()
	s := newDurable(t, dir)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer closeServer(t, s)
	publishAll(t, ts, fx)
	traceRaw(t, ts, "/v1/trace?wait=60s", fx.testCSV)
	traceRaw(t, ts, "/v1/trace?wait=60s", fx.testCSV) // cache hit

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/stats: status %d, want 404", resp.StatusCode)
	}

	b := getBundle(t, ts)
	reqs := func(route string) any { return b.Telemetry[`ctfl_http_requests_total{route="`+route+`"}`] }
	if reqs("/v1/trace") != 2.0 || reqs("/v1/uploads") != 1.0 {
		t.Fatalf("request counters: trace %v, uploads %v", reqs("/v1/trace"), reqs("/v1/uploads"))
	}
	for name, want := range map[string]float64{
		"ctfl_jobs_submitted_total":  1,
		"ctfl_jobs_done_total":       1,
		"ctfl_jobs_cache_hits_total": 1,
	} {
		if got := b.Telemetry[name]; got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
	if got, _ := b.Telemetry["ctfl_store_wal_events"].(float64); got == 0 {
		t.Fatalf("WAL events gauge = %v", b.Telemetry["ctfl_store_wal_events"])
	}
	if b.State["uploads"].(float64) == 0 || b.State["version"].(float64) == 0 {
		t.Fatalf("state = %v", b.State)
	}
	if got, _ := b.Telemetry["ctfl_process_uptime_seconds"].(float64); got <= 0 {
		t.Fatalf("uptime = %v", b.Telemetry["ctfl_process_uptime_seconds"])
	}
}

// TestWALCompactionUnderUploadPressure forces compaction mid-lifecycle with
// a tiny CompactBytes and verifies recovery still reproduces exact scores.
func TestWALCompactionUnderUploadPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	dir := t.TempDir()
	s1, err := NewWithOptions(Options{DataDir: dir, CompactBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	publishAll(t, ts1, fx)
	before := traceRaw(t, ts1, "/v1/trace?wait=60s", fx.testCSV)
	ts1.Close()
	closeServer(t, s1)

	s2 := newDurable(t, dir)
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	defer closeServer(t, s2)
	after := traceRaw(t, ts2, "/v1/trace?wait=60s", fx.testCSV)
	if !bytes.Equal(before.Result, after.Result) {
		t.Fatalf("trace diverged after compaction:\n%s\nvs\n%s", before.Result, after.Result)
	}
}
