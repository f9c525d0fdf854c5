package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/store"
)

func healthState(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDegradedModeRejectsWritesThenRecovers drives the full degraded-mode
// lifecycle with injected WAL failures: consecutive append failures trip
// degraded mode, writes are rejected with 503 + Retry-After while reads keep
// working, and a successful probe append clears it.
func TestDegradedModeRejectsWritesThenRecovers(t *testing.T) {
	fx := buildFederation(t)
	in := faults.New(43, map[string]faults.Site{
		// Threshold 2 + budget 3: two failures enter degraded mode, the first
		// probe burns the last fault, the second probe succeeds and recovers.
		store.FaultAppend: {ErrProb: 1, MaxFaults: 3},
	})
	s, err := NewWithOptions(Options{
		DataDir:           t.TempDir(),
		Faults:            in,
		DegradedThreshold: 2,
		ProbeInterval:     time.Nanosecond, // every write attempt may probe
		RetryAfter:        2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	encBody := fx.encoderJSON
	post503 := func(wantRetryAfter bool) *http.Response {
		t.Helper()
		resp := post(t, ts, "/v1/encoder", "application/json", encBody)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503", resp.StatusCode)
		}
		if wantRetryAfter && resp.Header.Get("Retry-After") != "2" {
			t.Fatalf("Retry-After = %q, want %q", resp.Header.Get("Retry-After"), "2")
		}
		return resp
	}

	// Failures 1 and 2: WAL append fails, threshold reached on the second.
	post503(true)
	if deg, _ := healthState(t, ts)["degraded"].(bool); deg {
		t.Fatal("degraded after a single failure (threshold is 2)")
	}
	post503(true)
	if deg, _ := healthState(t, ts)["degraded"].(bool); !deg {
		t.Fatal("not degraded after hitting the threshold")
	}

	// Degraded: reads still served.
	if st := healthState(t, ts); st["ok"] != true {
		t.Fatalf("healthz failed while degraded: %v", st)
	}

	// Write 3: the recovery probe burns the last injected fault and fails,
	// so the write is still rejected.
	post503(true)
	// Write 4: probe succeeds (fault budget exhausted), mode clears, and the
	// write itself goes through.
	resp := post(t, ts, "/v1/encoder", "application/json", encBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("post-recovery status = %d, want 204", resp.StatusCode)
	}
	if deg, _ := healthState(t, ts)["degraded"].(bool); deg {
		t.Fatal("still degraded after successful probe + write")
	}

	// The lifecycle is observable: entered exactly once, gauge back to 0.
	snap := s.reg.Snapshot()
	if v, _ := snap["ctfl_server_degraded_entered_total"].(int64); v != 1 {
		t.Fatalf("degraded_entered_total = %v, want 1", snap["ctfl_server_degraded_entered_total"])
	}
	if v, _ := snap["ctfl_server_degraded"].(float64); v != 0 {
		t.Fatalf("degraded gauge = %v, want 0", snap["ctfl_server_degraded"])
	}
}

// TestWaitTraceRequestCancellationFreesSlot is the ?wait= audit regression
// test: a client that disconnects mid-wait must unblock the handler promptly
// (request-context cancellation propagates into jobs.Wait) instead of
// holding the goroutine for the full wait duration.
func TestWaitTraceRequestCancellationFreesSlot(t *testing.T) {
	fx := buildFederation(t)
	s, err := NewWithOptions(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	publishAll(t, ts, fx)

	// Park the only worker so the traced job cannot start, forcing the
	// ?wait= path to actually block on jobs.Wait.
	release := make(chan struct{})
	blocker, err := s.engine.Submit("", func(ctx context.Context) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/trace?wait=30s&tau=0.9", bytes.NewReader(fx.testCSV))
	req.Header.Set("Content-Type", "text/csv")
	req = req.WithContext(ctx)
	rec := httptest.NewRecorder()

	done := make(chan struct{})
	go func() {
		s.ServeHTTP(rec, req)
		close(done)
	}()
	time.Sleep(30 * time.Millisecond) // let the handler reach jobs.Wait
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler still blocked 5s after request cancellation; wait=30s would hold the slot")
	}
	// The job was only waited on, not abandoned: the handler falls back to
	// the async 202 answer so the client could re-poll after reconnecting.
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status = %d, want 202 fallback", rec.Code)
	}
	close(release)
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	if _, err := s.engine.Wait(waitCtx, blocker); err != nil {
		t.Fatal(err)
	}
}
