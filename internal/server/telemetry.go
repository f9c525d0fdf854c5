package server

// Observability surface: every route runs through a middleware that stamps
// a request id, emits a structured access-log line, counts and times the
// request, and records it as one flight event keyed by that request id.
// Every number the service reports lives in one registry, exported twice:
// Prometheus text on GET /metrics and a JSON snapshot in GET
// /v1/debug/bundle.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/flight"
	"repro/internal/telemetry"
)

// statusWriter captures the status code, body size, and (for failures) a
// prefix of the body a handler produced, for the access log and the
// request's flight event.
type statusWriter struct {
	http.ResponseWriter
	code    int
	bytes   int64
	errBody []byte // first bytes of a 4xx/5xx body, for flight Err detail
}

// errBodyCap bounds the error-body prefix retained per request.
const errBodyCap = 256

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	if w.code >= 400 && len(w.errBody) < errBodyCap {
		w.errBody = append(w.errBody, p[:min(len(p), errBodyCap-len(w.errBody))]...)
	}
	return n, err
}

// errDetail renders the retained failure-body prefix as a single log-safe
// line for the flight event.
func (w *statusWriter) errDetail() string {
	if w.code < 400 || len(w.errBody) == 0 {
		return ""
	}
	return strings.TrimSpace(string(w.errBody))
}

// reqExtras carries handler-level annotations back to the middleware's
// flight event: fault injections fired and result-cache hits observed
// while serving this request.
type reqExtras struct {
	faults   int32
	cacheHit bool
}

type reqExtrasKey struct{}

func withReqExtras(ctx context.Context, ex *reqExtras) context.Context {
	return context.WithValue(ctx, reqExtrasKey{}, ex)
}

// extrasFrom returns the request's annotation slot, or nil outside the
// middleware (e.g. direct handler tests).
func extrasFrom(ctx context.Context) *reqExtras {
	ex, _ := ctx.Value(reqExtrasKey{}).(*reqExtras)
	return ex
}

// route registers a handler behind the telemetry middleware: request-id
// propagation, per-route counter + latency histogram, in-flight gauge,
// one flight event and one access-log line per request.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	reqs := s.reg.Counter(fmt.Sprintf("ctfl_http_requests_total{route=%q}", pattern),
		"HTTP requests served, by route")
	errs := s.reg.Counter(fmt.Sprintf("ctfl_http_errors_total{route=%q}", pattern),
		"HTTP 5xx responses, by route")
	lat := s.reg.Histogram(fmt.Sprintf("ctfl_http_request_seconds{route=%q}", pattern),
		"HTTP request latency, by route", nil)
	// Each route is its own latency objective: the histogram already
	// bucketizes, so the objective just counts observations over the bound.
	s.slo.Add(telemetry.SLOConfig{
		Name:   "latency:" + pattern,
		Source: telemetry.HistogramSLOSource{H: lat, Bound: sloLatencyBound},
	})
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = telemetry.NewRequestID()
		}
		ctx := telemetry.WithRequestID(r.Context(), id)
		ex := &reqExtras{}
		ctx = withReqExtras(ctx, ex)

		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		reqs.Inc()
		s.inFlight.Add(1)
		r = r.WithContext(ctx)
		// The cluster gate answers misdirected requests (wrong shard) and
		// fenced writes (follower) before the handler runs, so they have no
		// effect and still get full request accounting.
		if !s.clusterGate(sw, r, pattern) {
			h(sw, r)
		}
		s.inFlight.Add(-1)

		d := time.Since(t0)
		lat.Observe(d.Seconds())
		s.httpResponses.Inc()
		if sw.code >= 500 {
			errs.Inc()
			s.httpServerErrors.Inc()
		}

		// Every request becomes one wide flight event; the recorder decides
		// retention (tail-pins failures, rejections, faults, slow outliers).
		outcome := flight.OutcomeOK
		switch {
		case sw.code >= 500:
			outcome = flight.OutcomeError
		case sw.code >= 400:
			outcome = flight.OutcomeRejected
		}
		s.flightRec.Record(flight.Event{
			Kind:       flight.KindRequest,
			Outcome:    outcome,
			Status:     int32(sw.code),
			Route:      pattern,
			Method:     r.Method,
			RequestID:  id,
			DurationNs: d.Nanoseconds(),
			BytesIn:    max(r.ContentLength, 0),
			BytesOut:   sw.bytes,
			Faults:     ex.faults,
			CacheHit:   ex.cacheHit,
			Degraded:   s.degradedGauge.Value() != 0,
			Err:        sw.errDetail(),
		})

		s.log.Info("request",
			"request_id", id,
			"method", r.Method,
			"route", pattern,
			"status", sw.code,
			"bytes", sw.bytes,
			"duration_ms", float64(d)/float64(time.Millisecond),
		)
	})
}

// refreshGauges brings the pull-refreshed gauges up to date before the
// registry is read: round-score staleness (the engine never reads a clock
// on its own) and the process runtime stats. GET /metrics and the debug
// bundle both call it, so the registry's two forms agree.
func (s *Server) refreshGauges() {
	s.mu.RLock()
	eng := s.st.rounds
	s.mu.RUnlock()
	if eng != nil {
		s.roundCfg.Obs.Staleness.Set(eng.Staleness().Seconds())
	}
	s.runtime.Collect()
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	s.refreshGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}
