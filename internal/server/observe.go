package server

// Observability wiring beyond the route middleware (telemetry.go): the
// flight recorder's emission points, the SLO burn-rate objectives and
// their coupling to the degraded-mode controller, and the diagnostic
// routes GET /v1/events, GET /v1/debug/bundle, and GET /v1/version.
//
// SLO → degraded coupling: the wal_availability objective samples the
// cumulative WAL attempt/failure counters and is re-evaluated
// synchronously on every failed append (and, rate-limited, on successful
// ones), so a burn-rate breach trips degraded mode deterministically —
// the blunt consecutive-failure threshold (PR 5) remains as a floor. A
// breach tripped by SLO burn also clears by SLO burn: once neither window
// shows budget burn, the controller lifts the write rejection. A probe
// append that positively proves the WAL healthy clears degraded mode
// immediately and Resets the objective (the retained bad samples predate
// the probe's evidence). Every transition is recorded as a pinned
// flight-recorder event.

import (
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/flight"
	"repro/internal/telemetry"
)

// SLO objective names. The per-route latency objectives are named
// "latency:<route pattern>" and registered by the route middleware.
const (
	sloAvailability = "availability"
	sloWAL          = "wal_availability"
	sloStaleness    = "score_staleness"
	sloIngestLag    = "rounds_ingest_lag"
	sloReplication  = "replication_lag"
)

// sloSyncFloor rate-limits the evaluator ticks successful WAL appends
// trigger, so write-heavy workloads do not grow the sample rings per
// append. Failed appends always tick — breach detection must not lag the
// incident.
const sloSyncFloor = 100 * time.Millisecond

// SLO thresholds in seconds: a request slower than sloLatencyBound, scores
// older than sloStalenessBound, or a round update slower than
// sloIngestBound burns its objective's budget.
const (
	sloLatencyBound   = 0.25
	sloStalenessBound = 300
	sloIngestBound    = 1
)

// registerSLOs declares the server's standing objectives. Called before
// route registration so the middleware can add its per-route latency
// objectives to the same evaluator.
func (s *Server) registerSLOs() {
	s.slo.Add(telemetry.SLOConfig{
		Name:   sloAvailability,
		Source: telemetry.CounterSLOSource{Total: s.httpResponses, Bad: s.httpServerErrors},
	})
	s.slo.Add(telemetry.SLOConfig{
		Name:   sloWAL,
		Source: telemetry.CounterSLOSource{Total: s.walAttempts, Bad: s.walFailures},
	})
	s.slo.Add(telemetry.SLOConfig{
		Name:   sloStaleness,
		Source: &telemetry.GaugeSLOSource{G: s.roundCfg.Obs.Staleness, Bound: sloStalenessBound},
	})
	s.slo.Add(telemetry.SLOConfig{
		Name:   sloIngestLag,
		Source: telemetry.HistogramSLOSource{H: s.roundCfg.Obs.UpdateSeconds, Bound: sloIngestBound},
	})
	// Followers watch their leader through the replication-lag gauge; a
	// burn-rate breach of this objective is the promotion trigger.
	if s.opts.LeaderURL != "" {
		s.slo.Add(telemetry.SLOConfig{
			Name:   sloReplication,
			Source: &telemetry.GaugeSLOSource{G: s.replLag, Bound: s.opts.ReplLagBound},
		})
	}
}

// sloTickLocked re-evaluates every objective at now and applies breach
// transitions to the degraded-mode controller. Caller holds s.mu (write).
func (s *Server) sloTickLocked(now time.Time) {
	// Staleness is a passive gauge; refresh it so the objective samples a
	// live value.
	if eng := s.st.rounds; eng != nil {
		s.roundCfg.Obs.Staleness.Set(eng.Staleness().Seconds())
	}
	s.lastSLOTick = now
	for _, tr := range s.slo.Tick(now) {
		s.applySLOTransitionLocked(tr)
	}
}

// applySLOTransitionLocked reacts to one objective changing breach state.
// Only wal_availability is coupled to the write-rejection controller;
// every other objective alerts through its metric families and the log.
// Caller holds s.mu (write).
func (s *Server) applySLOTransitionLocked(tr telemetry.SLOTransition) {
	if tr.Name == sloReplication {
		// Sustained loss of leader contact on a follower is the failover
		// trigger: promote exactly once; the breach clearing later (the
		// gauge freezes after promotion) changes nothing.
		if tr.Breached && s.following {
			s.promoteLocked()
		}
		return
	}
	if tr.Name != sloWAL {
		if tr.Breached {
			s.log.Warn("slo breach", "slo", tr.Name)
		} else {
			s.log.Info("slo breach cleared", "slo", tr.Name)
		}
		return
	}
	switch {
	case tr.Breached && !s.degraded:
		s.degraded = true
		s.degradedBySLO = true
		s.lastProbe = time.Now()
		s.degradedEntered.Inc()
		s.degradedSLOTrips.Inc()
		s.degradedGauge.Set(1)
		s.recordWALEvent(flight.OutcomeDegraded, "server.degraded",
			"entered: wal_availability slo burn", int64(s.walFails))
		s.log.Warn("entering degraded mode: wal_availability SLO burn", "consecutive_failures", s.walFails)
	case !tr.Breached && s.degraded && s.degradedBySLO:
		// Only SLO-tripped degradation clears on burn decay; the
		// threshold path still demands a probe append as positive proof.
		s.degraded = false
		s.degradedBySLO = false
		s.walFails = 0
		s.degradedGauge.Set(0)
		s.recordWALEvent(flight.OutcomeDegraded, "server.degraded",
			"cleared: wal_availability slo burn decayed", 0)
		s.log.Info("degraded mode cleared: wal_availability SLO burn decayed")
	}
}

// sloLoop is the background evaluation ticker: it keeps burn rates moving
// during read-only (no-WAL-traffic) periods. Stopped by Close.
func (s *Server) sloLoop(interval time.Duration) {
	defer close(s.sloDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.sloStop:
			return
		case now := <-t.C:
			s.mu.Lock()
			s.sloTickLocked(now)
			s.mu.Unlock()
		}
	}
}

// recordWALEvent files one WAL/degraded-controller flight event. Caller
// holds s.mu (write); the recorder has its own lock, kept disjoint.
func (s *Server) recordWALEvent(outcome flight.Outcome, site, errMsg string, aux int64) {
	s.flightRec.Record(flight.Event{
		Kind:     flight.KindWAL,
		Outcome:  outcome,
		Route:    site,
		Aux:      aux,
		Degraded: s.degraded,
		Err:      errMsg,
	})
}

// parseKind maps the wire string back to a flight event kind.
func parseKind(v string) (flight.Kind, bool) {
	switch v {
	case "request":
		return flight.KindRequest, true
	case "job":
		return flight.KindJob, true
	case "round":
		return flight.KindRound, true
	case "wal":
		return flight.KindWAL, true
	case "cluster":
		return flight.KindCluster, true
	default:
		return 0, false
	}
}

// EventJSON is the JSON rendering of one flight-recorder event; it
// preserves every field.
type EventJSON struct {
	Seq        uint64 `json:"seq"`
	Unix       int64  `json:"unix"`
	Kind       string `json:"kind"`
	Outcome    string `json:"outcome"`
	Status     int32  `json:"status,omitempty"`
	Route      string `json:"route"`
	Method     string `json:"method,omitempty"`
	RequestID  string `json:"request_id,omitempty"`
	DurationNs int64  `json:"duration_ns"`
	BytesIn    int64  `json:"bytes_in,omitempty"`
	BytesOut   int64  `json:"bytes_out,omitempty"`
	Retries    int32  `json:"retries,omitempty"`
	Faults     int32  `json:"faults,omitempty"`
	Aux        int64  `json:"aux,omitempty"`
	CacheHit   bool   `json:"cache_hit,omitempty"`
	Degraded   bool   `json:"degraded,omitempty"`
	Err        string `json:"err,omitempty"`
}

func eventJSON(ev flight.Event) EventJSON {
	return EventJSON{
		Seq: ev.Seq, Unix: ev.Unix,
		Kind: ev.Kind.String(), Outcome: ev.Outcome.String(),
		Status: ev.Status, Route: ev.Route, Method: ev.Method, RequestID: ev.RequestID,
		DurationNs: ev.DurationNs, BytesIn: ev.BytesIn, BytesOut: ev.BytesOut,
		Retries: ev.Retries, Faults: ev.Faults, Aux: ev.Aux,
		CacheHit: ev.CacheHit, Degraded: ev.Degraded, Err: ev.Err,
	}
}

// EventsResponse is the JSON shape of GET /v1/events.
type EventsResponse struct {
	Stats  flight.Stats `json:"stats"`
	Events []EventJSON  `json:"events"`
}

// handleEvents serves the flight recorder's retained events, filtered by
// ?since= (sequence), ?min_latency= (duration), ?outcome=, ?kind=, and
// ?n= (newest N), as JSON.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	q := r.URL.Query()
	var f flight.Filter
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("query since: %w", err))
			return
		}
		f.Since = n
	}
	if v := q.Get("min_latency"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("query min_latency: %q is not a duration", v))
			return
		}
		f.MinDuration = d
	}
	if v := q.Get("outcome"); v != "" {
		o, ok := flight.ParseOutcome(v)
		if !ok {
			httpError(w, http.StatusBadRequest, fmt.Errorf("query outcome: unknown outcome %q", v))
			return
		}
		f.Outcome = &o
	}
	if v := q.Get("kind"); v != "" {
		k, ok := parseKind(v)
		if !ok {
			httpError(w, http.StatusBadRequest, fmt.Errorf("query kind: unknown kind %q", v))
			return
		}
		f.Kind = k
	}
	n, err := queryInt(r, "n", 0)
	if err != nil || n < 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("query n: not a non-negative integer"))
		return
	}
	f.Limit = n

	evs := s.flightRec.Snapshot(f)
	out := make([]EventJSON, len(evs))
	for i, ev := range evs {
		out[i] = eventJSON(ev)
	}
	writeJSON(w, http.StatusOK, EventsResponse{Stats: s.flightRec.Stats(), Events: out})
}

// VersionInfo is the shape of GET /v1/version, from runtime/debug build
// metadata.
type VersionInfo struct {
	Module      string `json:"module"`
	Version     string `json:"version"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

func versionInfo() VersionInfo {
	var v VersionInfo
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	v.Module = bi.Main.Path
	v.Version = bi.Main.Version
	v.GoVersion = bi.GoVersion
	for _, st := range bi.Settings {
		switch st.Key {
		case "vcs.revision":
			v.VCSRevision = st.Value
		case "vcs.time":
			v.VCSTime = st.Value
		case "vcs.modified":
			v.VCSModified = st.Value == "true"
		}
	}
	return v
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	writeJSON(w, http.StatusOK, versionInfo())
}

// DebugBundle is the one-shot incident capture GET /v1/debug/bundle
// returns: build identity, the /healthz state summary, SLO status, the full
// retained flight-event set, and the telemetry registry snapshot (the JSON
// form of GET /metrics) — everything an operator attaches to an incident
// report with one curl.
type DebugBundle struct {
	CapturedAtUnix int64                 `json:"captured_at_unix"`
	Version        VersionInfo           `json:"version"`
	State          map[string]any        `json:"state"`
	SLO            []telemetry.SLOStatus `json:"slo"`
	FlightStats    flight.Stats          `json:"flight_stats"`
	Events         []EventJSON           `json:"events"`
	Telemetry      map[string]any        `json:"telemetry"`
}

func (s *Server) handleDebugBundle(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	s.refreshGauges()
	evs := s.flightRec.Snapshot(flight.Filter{})
	events := make([]EventJSON, len(evs))
	for i, ev := range evs {
		events[i] = eventJSON(ev)
	}
	writeJSON(w, http.StatusOK, DebugBundle{
		CapturedAtUnix: time.Now().Unix(),
		Version:        versionInfo(),
		State:          s.stateSummary(),
		SLO:            s.slo.Snapshot(),
		FlightStats:    s.flightRec.Stats(),
		Events:         events,
		Telemetry:      s.reg.Snapshot(),
	})
}
