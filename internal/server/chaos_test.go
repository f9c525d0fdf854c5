package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/flight"
	"repro/internal/jobs"
	"repro/internal/store"
)

// chaosParams are the trace queries both soak runs execute.
var chaosParams = []struct {
	tau   float64
	delta int
}{
	{0.9, 1},
	{0.8, 2},
	{0.95, 1},
}

// runSoak drives one full federation lifecycle — encoder, model, uploads,
// then every chaosParams trace — through cl against ts, returning the trace
// results in query order. Traces reuse the client's submit+poll+resubmit
// loop via traceOnce so failed (including quarantined) jobs are
// resubmitted: the server never reruns a failed job itself.
func runSoak(t *testing.T, cl *Client, fx *federationFixture) []*TraceResponse {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	steps := []struct {
		path, ct   string
		body       []byte
		idempotent bool
	}{
		{"/v1/encoder", "application/json", fx.encoderJSON, true},
		{"/v1/model", "application/octet-stream", fx.modelBytes, true},
		// Uploads are non-idempotent only against ambiguous transport
		// failures; in-process 503s and pre-send injections still retry.
		{"/v1/uploads", "application/octet-stream", fx.frames, false},
	}
	for _, st := range steps {
		if err := cl.do(ctx, http.MethodPost, st.path, st.ct, "", st.body, nil, st.idempotent); err != nil {
			t.Fatalf("POST %s under soak: %v", st.path, err)
		}
	}

	maxAttempts := 1
	if cl.Retry != nil {
		maxAttempts = cl.Retry.withDefaults().MaxAttempts
	}
	out := make([]*TraceResponse, len(chaosParams))
	for qi, q := range chaosParams {
		var env *TraceJobResponse
		for n := 1; ; n++ {
			var err error
			env, err = cl.traceOnce(ctx, fx.testCSV, q.tau, q.delta)
			if err != nil {
				t.Fatalf("trace tau=%g delta=%d: %v", q.tau, q.delta, err)
			}
			if env.Result != nil {
				break
			}
			if n >= maxAttempts {
				t.Fatalf("trace tau=%g delta=%d: job %s %s after %d submissions: %s",
					q.tau, q.delta, env.ID, env.Status, n, env.Error)
			}
		}
		out[qi] = env.Result
	}
	return out
}

// TestChaosSoak is the capstone resilience test: the full stack runs with
// deterministic faults injected at every site — WAL appends, compaction,
// snapshot rename, job execution (errors AND panics), HTTP handlers, and
// the client's own requests — while a retrying client pushes a complete
// federation lifecycle through it. The traced contribution factors must be
// bit-identical to a fault-free run: every injected failure happened before
// a side effect, so every retry was safe.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)

	// Fault-free baseline.
	baseSrv, err := NewWithOptions(Options{DataDir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, baseSrv)
	baseTS := httptest.NewServer(baseSrv)
	defer baseTS.Close()
	want := runSoak(t, &Client{BaseURL: baseTS.URL, PollInterval: time.Millisecond}, fx)

	// Chaos run: same lifecycle, faults everywhere. Budgets (MaxFaults)
	// guarantee termination; the fixed seed makes reruns reproducible.
	in := faults.New(1009, map[string]faults.Site{
		store.FaultAppend:  {ErrProb: 0.9, MaxFaults: 5},
		store.FaultCompact: {ErrProb: 1, MaxFaults: 1},
		store.FaultRename:  {ErrProb: 1, MaxFaults: 1},
		jobs.FaultRun:      {ErrProb: 0.5, PanicProb: 0.5, MaxFaults: 4},
		FaultHandler:       {ErrProb: 0.6, MaxFaults: 6},
		FaultRequest:       {ErrProb: 0.4, LatencyProb: 0.4, Latency: time.Millisecond, MaxFaults: 8},
	})
	chaosDir := t.TempDir()
	chaosSrv, err := NewWithOptions(Options{
		DataDir:           chaosDir,
		NoSync:            true,
		CompactBytes:      1, // compact after every mutation: exercises the snapshot fault sites
		Faults:            in,
		DegradedThreshold: 1, // any WAL failure trips degraded mode
		ProbeInterval:     time.Nanosecond,
		RetryAfter:        time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, chaosSrv)
	chaosTS := httptest.NewServer(chaosSrv)
	defer chaosTS.Close()
	cl := &Client{
		BaseURL:      chaosTS.URL,
		PollInterval: time.Millisecond,
		Retry: &ClientRetryPolicy{
			MaxAttempts: 16,
			BaseDelay:   time.Millisecond,
			MaxDelay:    10 * time.Millisecond,
			JitterSeed:  1009,
		},
		Faults: in,
	}
	got := runSoak(t, cl, fx)

	// The headline assertion: despite every injected failure, the traced
	// factors converge bit-identically.
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("trace %d (tau=%g delta=%d) diverged under chaos:\n got  %+v\n want %+v",
				i, chaosParams[i].tau, chaosParams[i].delta, got[i], want[i])
		}
	}

	// The soak only counts if the faults actually fired.
	for _, site := range []string{
		store.FaultAppend, store.FaultCompact, store.FaultRename,
		jobs.FaultRun, FaultHandler, FaultRequest,
	} {
		if st := in.SiteStats(site); st.Fired() == 0 {
			t.Errorf("site %s never fired (%+v) — the soak exercised nothing there", site, st)
		}
	}
	if ft := in.Total(); ft < 10 {
		t.Errorf("only %d faults fired across all sites; the soak was too gentle", ft)
	}

	// Degraded mode was entered (threshold 1 + a WAL failure) and cleared.
	snap := chaosSrv.reg.Snapshot()
	if v, _ := snap["ctfl_server_degraded_entered_total"].(int64); v < 1 {
		t.Errorf("degraded mode never entered under chaos (entered_total = %v)", v)
	}
	if v, _ := snap["ctfl_server_degraded"].(float64); v != 0 {
		t.Errorf("server still degraded at soak end (gauge = %v)", v)
	}

	// Fault sites with both error and panic budgets mean some jobs failed
	// or were quarantined; either way the engine must account for every
	// failure it absorbed.
	if js := in.SiteStats(jobs.FaultRun); js.Panics > 0 {
		if v, _ := snap["ctfl_jobs_quarantined_total"].(int64); v < 1 {
			t.Errorf("injector panicked %d jobs but quarantined_total = %v", js.Panics, v)
		}
	}

	// The flight recorder kept evidence of every server-side incident class
	// the injector produced (FaultRequest is client-side — excluded).
	tail := chaosSrv.flightRec.Snapshot(flight.Filter{})
	var walErrs int
	var reqFaults int32
	var jobEvidence bool
	for _, ev := range tail {
		switch ev.Kind {
		case flight.KindWAL:
			if ev.Outcome == flight.OutcomeError {
				walErrs++
			}
		case flight.KindRequest:
			reqFaults += ev.Faults
		case flight.KindJob:
			if ev.Err != "" || ev.Aux == 1 {
				jobEvidence = true
			}
		}
	}
	appendErrs := int(in.SiteStats(store.FaultAppend).Errors)
	if walErrs < appendErrs {
		t.Errorf("flight tail retained %d WAL error events, injector fired %d append faults", walErrs, appendErrs)
	}
	handlerErrs := int32(in.SiteStats(FaultHandler).Errors)
	if reqFaults < handlerErrs {
		t.Errorf("request events carry %d fault annotations, injector fired %d handler faults", reqFaults, handlerErrs)
	}
	if in.SiteStats(jobs.FaultRun).Fired() > 0 && !jobEvidence {
		t.Error("job faults fired but no KindJob event shows an error or quarantine")
	}

	// With DegradedThreshold 1 every WAL failure ticked the SLO engine;
	// repeated failures must have burned the wal_availability budget at
	// least once, and the final probe-verified recovery reset the breach.
	if v, _ := snap[`ctfl_slo_breaches_total{slo="wal_availability"}`].(int64); v < 1 {
		t.Errorf("wal_availability never breached under chaos (breaches = %v)", v)
	}
	if v, _ := snap[`ctfl_slo_breach{slo="wal_availability"}`].(float64); v != 0 {
		t.Errorf("wal_availability still in breach at soak end (gauge = %v)", v)
	}

	// The incident survives export: the /v1/events WAL snapshot holds every
	// append failure, and the debug bundle captured events.
	var walEvents EventsResponse
	if err := jsonGet(chaosTS, "/v1/events?kind=wal", &walEvents); err != nil {
		t.Fatalf("GET /v1/events?kind=wal: %v", err)
	}
	if len(walEvents.Events) < appendErrs {
		t.Errorf("WAL events snapshot has %d events, want >= %d", len(walEvents.Events), appendErrs)
	}

	bresp, err := http.Get(chaosTS.URL + "/v1/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	var bundle DebugBundle
	err = json.NewDecoder(bresp.Body).Decode(&bundle)
	bresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(bundle.Events) == 0 {
		t.Fatal("chaos debug bundle captured no events")
	}
}
