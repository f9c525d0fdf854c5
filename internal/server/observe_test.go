package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/flight"
	"repro/internal/protocol"
	"repro/internal/store"
)

// TestSLOBurnTripsAndClearsDegraded drives the SLO path into and out of
// degraded mode without ever reaching the consecutive-failure threshold:
// wal_availability burn trips the controller, burn decay clears it.
func TestSLOBurnTripsAndClearsDegraded(t *testing.T) {
	fx := buildFederation(t)
	in := faults.New(77, map[string]faults.Site{
		store.FaultAppend: {ErrProb: 1, MaxFaults: 2},
	})
	s, err := NewWithOptions(Options{
		DataDir: t.TempDir(),
		Faults:  in,
		// The blunt threshold is far away and probes are effectively off:
		// only the SLO engine can change the controller's mind here.
		DegradedThreshold: 1000,
		ProbeInterval:     time.Hour,
		SLOInterval:       -1, // no background ticker; ticks are synchronous
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Failure 1 seeds the objective's differencing baseline: a single
	// cumulative sample can't show a burn, so the server must NOT degrade.
	resp := post(t, ts, "/v1/encoder", "application/json", fx.encoderJSON)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failure 1 status = %d, want 503", resp.StatusCode)
	}
	if deg, _ := healthState(t, ts)["degraded"].(bool); deg {
		t.Fatal("degraded after one WAL failure; burn needs two samples")
	}

	// Failure 2: the delta is 100% bad → burn far beyond both thresholds →
	// the SLO trips degraded mode (threshold 1000 never fired).
	resp = post(t, ts, "/v1/encoder", "application/json", fx.encoderJSON)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failure 2 status = %d, want 503", resp.StatusCode)
	}
	if deg, _ := healthState(t, ts)["degraded"].(bool); !deg {
		t.Fatal("not degraded after wal_availability burn")
	}
	snap := s.reg.Snapshot()
	if v, _ := snap["ctfl_server_degraded_slo_trips_total"].(int64); v != 1 {
		t.Fatalf("degraded_slo_trips_total = %v, want 1", snap["ctfl_server_degraded_slo_trips_total"])
	}
	if v, _ := snap["ctfl_server_degraded_entered_total"].(int64); v != 1 {
		t.Fatalf("degraded_entered_total = %v, want 1", snap["ctfl_server_degraded_entered_total"])
	}
	if v, _ := snap[`ctfl_slo_breaches_total{slo="wal_availability"}`].(int64); v != 1 {
		t.Fatalf("slo breaches = %v, want 1", snap[`ctfl_slo_breaches_total{slo="wal_availability"}`])
	}

	// The incident is on the flight recorder's pinned tail: WAL append
	// failures and the degraded transition itself.
	var sawAppend, sawEntered bool
	for _, ev := range s.flightRec.Snapshot(flight.Filter{Kind: flight.KindWAL}) {
		switch {
		case ev.Outcome == flight.OutcomeError && ev.Route == "store.append":
			sawAppend = true
		case ev.Outcome == flight.OutcomeDegraded && ev.Route == "server.degraded":
			sawEntered = true
		}
	}
	if !sawAppend || !sawEntered {
		t.Fatalf("flight tail missing WAL incident evidence: append=%v entered=%v", sawAppend, sawEntered)
	}

	// An hour later with no further WAL traffic the burn is zero in both
	// windows; the SLO clear transition lifts degradation — no probe ran.
	s.mu.Lock()
	s.sloTickLocked(time.Now().Add(time.Hour))
	s.mu.Unlock()
	if deg, _ := healthState(t, ts)["degraded"].(bool); deg {
		t.Fatal("still degraded after the burn decayed")
	}
	if v, _ := s.reg.Snapshot()["ctfl_server_degraded"].(float64); v != 0 {
		t.Fatalf("degraded gauge = %v, want 0", v)
	}

	// Fault budget exhausted: the write path works again.
	resp = post(t, ts, "/v1/encoder", "application/json", fx.encoderJSON)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("post-recovery status = %d, want 204", resp.StatusCode)
	}
}

func getEvents(t *testing.T, ts *httptest.Server, query string) EventsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/events" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/events%s status = %d", query, resp.StatusCode)
	}
	var er EventsResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	return er
}

// TestEventsEndpoint exercises the JSON surface: every request becomes an
// event, failures are pinned, and the query filters narrow the snapshot.
func TestEventsEndpoint(t *testing.T) {
	s := New()
	defer closeServer(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// One OK request and one rejected (409: no model yet).
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/v1/rules"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	er := getEvents(t, ts, "")
	if er.Stats.Recorded < 2 || len(er.Events) < 2 {
		t.Fatalf("recorded %d retained %d events, want >= 2", er.Stats.Recorded, len(er.Events))
	}
	var ok, rejected *EventJSON
	for i := range er.Events {
		ev := &er.Events[i]
		switch {
		case ev.Route == "/healthz" && ev.Outcome == "ok":
			ok = ev
		case ev.Route == "/v1/rules" && ev.Outcome == "rejected":
			rejected = ev
		}
	}
	if ok == nil || rejected == nil {
		t.Fatalf("missing events: healthz=%v rules=%v in %+v", ok != nil, rejected != nil, er.Events)
	}
	if rejected.Status != http.StatusConflict || rejected.Err == "" {
		t.Fatalf("rejected event lacks status/err detail: %+v", rejected)
	}
	if ok.RequestID == "" || ok.Method != http.MethodGet || ok.DurationNs <= 0 {
		t.Fatalf("ok event underfilled: %+v", ok)
	}

	// Outcome filter: only the rejection.
	er = getEvents(t, ts, "?outcome=rejected")
	for _, ev := range er.Events {
		if ev.Outcome != "rejected" {
			t.Fatalf("outcome filter leaked %+v", ev)
		}
	}
	if len(er.Events) == 0 {
		t.Fatal("outcome=rejected returned nothing")
	}
	// Since filter: strictly after the rejection's sequence → nothing older.
	er = getEvents(t, ts, "?since="+jsonNum(rejected.Seq))
	for _, ev := range er.Events {
		if ev.Seq <= rejected.Seq {
			t.Fatalf("since filter returned seq %d <= %d", ev.Seq, rejected.Seq)
		}
	}

	// The route speaks JSON only, whatever the client accepts.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/events", nil)
	req.Header.Set("Accept", protocol.ContentTypeFrame)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var withAccept EventsResponse
	err = json.NewDecoder(resp.Body).Decode(&withAccept)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); err != nil || !strings.HasPrefix(ct, "application/json") || len(withAccept.Events) == 0 {
		t.Fatalf("Accept: %s got Content-Type %q, %d events, decode err %v", protocol.ContentTypeFrame, ct, len(withAccept.Events), err)
	}

	// Malformed filters are 400s, not silent full snapshots.
	for _, q := range []string{"?since=x", "?min_latency=fast", "?outcome=meh", "?kind=meh", "?n=-1"} {
		resp, err := http.Get(ts.URL + "/v1/events" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /v1/events%s status = %d, want 400", q, resp.StatusCode)
		}
	}
}

func jsonNum(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// getBundle captures GET /v1/debug/bundle.
func getBundle(t *testing.T, ts *httptest.Server) DebugBundle {
	t.Helper()
	var b DebugBundle
	if err := jsonGet(ts, "/v1/debug/bundle", &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDebugBundle captures the one-shot bundle and checks each part of it
// is filled.
func TestDebugBundle(t *testing.T) {
	s := New()
	defer closeServer(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	if resp, err := http.Get(ts.URL + "/v1/rules"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	b := getBundle(t, ts)
	if b.CapturedAtUnix == 0 || b.Version.GoVersion == "" {
		t.Fatalf("bundle identity underfilled: %+v", b.Version)
	}
	if len(b.SLO) == 0 {
		t.Fatal("bundle has no SLO status")
	}
	if len(b.Events) == 0 || b.FlightStats.Recorded == 0 {
		t.Fatal("bundle has no flight events")
	}
	if _, ok := b.Telemetry["ctfl_process_goroutines"]; !ok {
		t.Fatal("bundle telemetry missing process runtime gauges")
	}
}

// TestVersionEndpoint sanity-checks the build-identity surface.
func TestVersionEndpoint(t *testing.T) {
	s := New()
	defer closeServer(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v VersionInfo
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.GoVersion == "" {
		t.Fatalf("version info missing go_version: %+v", v)
	}
}

// TestStatsCarriesObservability pins the bundle's observability blocks:
// every standing SLO objective, flight accounting, and refreshed process
// gauges.
func TestStatsCarriesObservability(t *testing.T) {
	s := New()
	defer closeServer(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	b := getBundle(t, ts)
	names := map[string]bool{}
	for _, o := range b.SLO {
		names[o.Name] = true
	}
	for _, want := range []string{"availability", "wal_availability", "score_staleness", "rounds_ingest_lag"} {
		if !names[want] {
			t.Fatalf("bundle SLO missing objective %q (have %v)", want, names)
		}
	}
	if b.FlightStats.Recorded == 0 {
		t.Fatal("bundle flight accounting empty after a served request")
	}
	g, ok := b.Telemetry["ctfl_process_goroutines"].(float64)
	if !ok || g <= 0 {
		t.Fatalf("process goroutine gauge not refreshed: %v", b.Telemetry["ctfl_process_goroutines"])
	}
}

// TestBundleRefreshesScoreStaleness: the bundle refreshes the pull gauges
// /metrics refreshes, so an idle score stream shows its real staleness in
// both forms of the registry.
func TestBundleRefreshesScoreStaleness(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildStreamFederation(t)
	s := New()
	defer closeServer(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	if err := c.PublishEncoder(ctx, fx.enc); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishModel(ctx, fx.sim.Model); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishRoundEval(ctx, fx.test); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PushRound(ctx, 0, fx.wireRounds()[0]); err != nil {
		t.Fatal(err)
	}

	time.Sleep(300 * time.Millisecond)
	b := getBundle(t, ts)
	if got, _ := b.Telemetry["ctfl_rounds_score_staleness_seconds"].(float64); got < 0.25 {
		t.Fatalf("bundle score staleness = %v s after 300ms idle, want >= 0.25", got)
	}
	if b.State["rounds"] != 1.0 {
		t.Fatalf("bundle state rounds = %v, want 1", b.State["rounds"])
	}
}

// TestTraceCacheHitAnnotatesFlight submits the same trace twice: the
// second, cache-served request's flight event carries the cache_hit mark,
// and the finished job itself appears as a KindJob event.
func TestTraceCacheHitAnnotatesFlight(t *testing.T) {
	fx := buildFederation(t)
	s := New()
	defer closeServer(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	publishAll(t, ts, fx)

	for i := range 2 {
		resp := post(t, ts, "/v1/trace?tau=0.9&wait=60s", "text/csv", fx.testCSV)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace %d status = %d: %s", i, resp.StatusCode, body)
		}
	}

	var sawCacheHit, sawJob bool
	for _, ev := range s.flightRec.Snapshot(flight.Filter{}) {
		if ev.Kind == flight.KindRequest && ev.Route == "/v1/trace" && ev.CacheHit {
			sawCacheHit = true
		}
		if ev.Kind == flight.KindJob && ev.Route == "job.trace" && ev.Outcome == flight.OutcomeOK {
			sawJob = true
		}
	}
	if !sawCacheHit {
		t.Fatal("no cache-hit-annotated /v1/trace request event")
	}
	if !sawJob {
		t.Fatal("no KindJob event for the completed trace job")
	}
}
