package core

import (
	"repro/internal/telemetry"
)

// Obs collects the tracer's hot-path instrumentation: how often each
// Eq. 4 evaluation strategy wins, per-query and per-pass latency, and how
// much work the pattern dedup avoids. A nil Obs in Config disables all of
// it; the zero value is inert (every instrument is a nil-safe no-op), so
// the tracing kernel never branches on more than one pointer.
type Obs struct {
	// TraceSeconds times one full Trace pass over a test table.
	TraceSeconds *telemetry.Histogram
	// QuerySeconds times one Eq. 4 query (one unique test pattern).
	QuerySeconds *telemetry.Histogram
	// IndexQueries / ScanQueries count which evaluation strategy the
	// cost model picked; EarlyRejects counts queries answered without
	// touching either (zero denominator or maxTotal bound).
	IndexQueries *telemetry.Counter
	ScanQueries  *telemetry.Counter
	EarlyRejects *telemetry.Counter
	// PatternDedupHits counts test instances served by another instance's
	// identical activation pattern — queries the dedup cache absorbed.
	PatternDedupHits *telemetry.Counter
}

// NewObs registers the tracer metric family on r and returns the handle
// to pass in Config.Obs.
func NewObs(r *telemetry.Registry) *Obs {
	return &Obs{
		TraceSeconds: r.Histogram("ctfl_tracer_trace_seconds", "full tracing pass time over one test table", nil),
		QuerySeconds: r.Histogram("ctfl_tracer_query_seconds", "single Eq.4 query time", nil),
		IndexQueries: r.Counter(`ctfl_tracer_queries_total{strategy="index"}`, "Eq.4 queries answered by the inverted index"),
		ScanQueries:  r.Counter(`ctfl_tracer_queries_total{strategy="scan"}`, "Eq.4 queries answered by the bit-parallel scan"),
		EarlyRejects: r.Counter(`ctfl_tracer_queries_total{strategy="reject"}`, "Eq.4 queries rejected by the maxTotal bound"),
		PatternDedupHits: r.Counter("ctfl_tracer_pattern_dedup_hits_total",
			"test instances served by an identical already-traced pattern"),
	}
}
