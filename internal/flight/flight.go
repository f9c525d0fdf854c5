// Package flight is the service's always-on flight recorder: one wide,
// structured event per unit of work (HTTP request, trace job, round
// ingest, WAL append failure) held in fixed-size rings with tail-based
// retention. Metrics answer "how fast is the service"; the flight
// recorder answers "why was *this* request slow" — each event carries the
// route, status, latency, byte counts, retry/fault counters, cache-hit
// flag, degraded-mode flag, and the request's id.
//
// Retention is tail-based: routine events (success at routine latency) go
// into a large ring that overwrites freely, while *interesting* events —
// errors, rejections, p99-slow requests, anything that ran degraded or
// absorbed an injected fault — are pinned in a separate tail ring that
// only interesting events can evict. A burst of healthy traffic therefore
// never flushes the evidence of the incident that preceded it.
//
// Slow detection is self-calibrating: the recorder keeps a per-route
// fixed-bucket latency histogram (the telemetry duration buckets) and
// pins any event whose latency lands beyond the route's current p99
// bucket once the route has seen enough samples to estimate one.
//
// Cost discipline matches the rest of the repo's instruments: a nil
// *Recorder is a no-op costing one pointer check, and the enabled
// steady-state Record path allocates nothing (pinned by
// TestRecordSteadyStateZeroAlloc) — events are values copied into
// preallocated ring slots under one short mutex hold.
package flight

import (
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Kind classifies the unit of work an event describes.
type Kind uint8

const (
	// KindRequest is one HTTP request through the route middleware.
	KindRequest Kind = 1
	// KindJob is one trace job reaching a terminal state.
	KindJob Kind = 2
	// KindRound is one round-update ingest through POST /v1/rounds.
	KindRound Kind = 3
	// KindWAL is one WAL append failure or degraded-mode transition.
	KindWAL Kind = 4
	// KindCluster is one replication or failover transition: a follower
	// resync, a leader push failure, or a promotion.
	KindCluster Kind = 5
	// KindGate is one contribution-gate transition: a participant excluded
	// from (or readmitted to) aggregation by the ContAvg defense.
	KindGate Kind = 6
)

// String renders the kind for JSON and terminal views.
func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindJob:
		return "job"
	case KindRound:
		return "round"
	case KindWAL:
		return "wal"
	case KindCluster:
		return "cluster"
	case KindGate:
		return "gate"
	default:
		return "unknown"
	}
}

// Outcome is the event's one-word verdict.
type Outcome uint8

const (
	// OutcomeOK is a routine success.
	OutcomeOK Outcome = 0
	// OutcomeError is a server-side failure (5xx, failed job, WAL error).
	OutcomeError Outcome = 1
	// OutcomeRejected is a client-attributable rejection (4xx).
	OutcomeRejected Outcome = 2
	// OutcomeSlow is a success whose latency crossed the route's p99.
	OutcomeSlow Outcome = 3
	// OutcomeDegraded is work served while the server was degraded.
	OutcomeDegraded Outcome = 4
)

// String renders the outcome for JSON, filters, and terminal views.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeError:
		return "error"
	case OutcomeRejected:
		return "rejected"
	case OutcomeSlow:
		return "slow"
	case OutcomeDegraded:
		return "degraded"
	default:
		return "unknown"
	}
}

// ParseOutcome maps the string form back to the enum; ok reports success.
func ParseOutcome(s string) (Outcome, bool) {
	switch s {
	case "ok":
		return OutcomeOK, true
	case "error":
		return OutcomeError, true
	case "rejected":
		return OutcomeRejected, true
	case "slow":
		return OutcomeSlow, true
	case "degraded":
		return OutcomeDegraded, true
	default:
		return 0, false
	}
}

// Event is one wide event. Events are plain values: the recorder copies
// them into ring slots and hands copies back out, so callers never share
// mutable state with the ring.
type Event struct {
	// Seq is the recorder-assigned monotone sequence number (1-based);
	// GET /v1/events?since= filters on it.
	Seq uint64
	// Unix is the event completion time in nanoseconds since the epoch.
	Unix int64
	// Kind classifies the unit of work; Outcome is its verdict.
	Kind    Kind
	Outcome Outcome
	// Status is the HTTP status answered (0 for non-HTTP kinds).
	Status int32
	// Route is the route pattern (requests), job kind (jobs), or site
	// (WAL events); Method is the HTTP method, "" for non-HTTP kinds.
	Route  string
	Method string
	// RequestID is the X-Request-Id the request carried or was given (the
	// response echoes it, the access log stamps it); for job events, the
	// job id.
	RequestID string
	// DurationNs is the unit's wall time in nanoseconds.
	DurationNs int64
	// BytesIn / BytesOut are request/response body sizes where known.
	BytesIn  int64
	BytesOut int64
	// Retries counts re-runs absorbed by the unit. The server runs every
	// unit once (clients resubmit failed work), so it records 0; the field
	// stays part of the type-7 wire format. Faults counts injected faults
	// the unit observed.
	Retries int32
	Faults  int32
	// Aux is kind-specific detail: the round number for KindRound and
	// KindGate events, consecutive WAL failures for KindWAL, 1 for a
	// quarantined KindJob, a record count or cursor for KindCluster.
	Aux int64
	// CacheHit marks work served from a result cache.
	CacheHit bool
	// Degraded marks work performed while the server was degraded.
	Degraded bool
	// Err is a short error detail for tail events ("" on success).
	Err string
}

// interesting reports whether the event must be pinned in the tail ring:
// any non-OK outcome, degraded-mode work, observed faults, absorbed
// retries, or an error detail. A success that needed retries still carries
// incident evidence, so it is retained alongside outright failures.
func (e *Event) interesting() bool {
	return e.Outcome != OutcomeOK || e.Degraded || e.Faults > 0 || e.Retries > 0 || e.Err != ""
}

// Obs is the recorder's instrument set; nil-safe like every other Obs in
// the repo.
type Obs struct {
	// Recorded counts every event accepted; Pinned counts events retained
	// in the tail ring.
	Recorded *telemetry.Counter
	Pinned   *telemetry.Counter
	// EvictedRoutine / EvictedTail count ring overwrites by class.
	EvictedRoutine *telemetry.Counter
	EvictedTail    *telemetry.Counter
}

// NewObs registers the flight-recorder metric family on r.
func NewObs(r *telemetry.Registry) *Obs {
	return &Obs{
		Recorded: r.Counter("ctfl_flight_events_total", "wide events recorded by the flight recorder"),
		Pinned:   r.Counter("ctfl_flight_pinned_total", "events pinned in the tail ring (errors, p99-slow, degraded)"),
		EvictedRoutine: r.Counter(`ctfl_flight_evicted_total{ring="routine"}`,
			"events overwritten in the routine ring"),
		EvictedTail: r.Counter(`ctfl_flight_evicted_total{ring="tail"}`,
			"events overwritten in the tail ring"),
	}
}

// Config tunes a Recorder. The zero value gets production defaults.
type Config struct {
	// Size is the routine ring capacity (default 1024).
	Size int
	// TailSize is the pinned tail ring capacity (default 256).
	TailSize int
	// SlowMinSamples is how many latency samples a route needs before the
	// p99-slow classifier activates for it (default 64).
	SlowMinSamples int
	// Obs receives recorder telemetry; nil disables it.
	Obs *Obs
}

// ring is a fixed-capacity overwrite ring of events, oldest-first readable.
type ring struct {
	buf   []Event
	next  int
	count int
}

func (r *ring) add(ev Event) (evicted bool) {
	evicted = r.count == len(r.buf)
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	if !evicted {
		r.count++
	}
	return evicted
}

// appendAll appends the ring's events oldest-first to dst.
func (r *ring) appendAll(dst []Event) []Event {
	start := r.next - r.count
	for i := 0; i < r.count; i++ {
		dst = append(dst, r.buf[(start+i+len(r.buf))%len(r.buf)])
	}
	return dst
}

// numLatencyBuckets is the per-route latency profile size: the telemetry
// duration buckets plus the overflow bucket.
const numLatencyBuckets = 17

// routeLatency is one route's latency profile for p99-slow detection.
type routeLatency struct {
	counts [numLatencyBuckets]int64
	total  int64
}

// durationBoundsNs mirrors telemetry.DurationBuckets in nanoseconds.
var durationBoundsNs = func() []int64 {
	out := make([]int64, len(telemetry.DurationBuckets))
	for i, b := range telemetry.DurationBuckets {
		out[i] = int64(b * float64(time.Second))
	}
	if len(out)+1 != numLatencyBuckets {
		panic("flight: numLatencyBuckets out of sync with telemetry.DurationBuckets")
	}
	return out
}()

// observe records one latency and reports whether it exceeded the route's
// p99 estimate (only once minSamples have accumulated). The estimate is
// the upper bound of the bucket containing the 99th percentile, so "slow"
// means "beyond where 99% of this route's traffic has landed".
func (rl *routeLatency) observe(durNs int64, minSamples int) bool {
	slow := false
	if rl.total >= int64(minSamples) {
		rank := rl.total - rl.total/100 // ceil(0.99 * total) for total >= 100; close enough below
		var cum int64
		for i, c := range rl.counts {
			cum += c
			if cum >= rank {
				if i < len(durationBoundsNs) {
					slow = durNs > durationBoundsNs[i]
				}
				// The overflow bucket has no upper bound: nothing beyond it.
				break
			}
		}
	}
	i := 0
	for i < len(durationBoundsNs) && durNs > durationBoundsNs[i] {
		i++
	}
	rl.counts[i]++
	rl.total++
	return slow
}

// Recorder is the flight recorder. A nil *Recorder is a no-op on every
// method; construct with New.
type Recorder struct {
	mu             sync.Mutex
	seq            uint64
	routine        ring
	tail           ring
	routes         map[string]*routeLatency
	slowMinSamples int
	obs            *Obs
}

// inertObs keeps the nil-Obs path allocation- and branch-free.
var inertObs = &Obs{}

// New builds a recorder. cfg.Size/TailSize below 1 take the defaults.
func New(cfg Config) *Recorder {
	if cfg.Size < 1 {
		cfg.Size = 1024
	}
	if cfg.TailSize < 1 {
		cfg.TailSize = 256
	}
	if cfg.SlowMinSamples < 1 {
		cfg.SlowMinSamples = 64
	}
	obs := cfg.Obs
	if obs == nil {
		obs = inertObs
	}
	return &Recorder{
		routine:        ring{buf: make([]Event, cfg.Size)},
		tail:           ring{buf: make([]Event, cfg.TailSize)},
		routes:         make(map[string]*routeLatency),
		slowMinSamples: cfg.SlowMinSamples,
		obs:            obs,
	}
}

// Record accepts one event: stamps its sequence number and time (when
// unset), classifies it (a routine success beyond the route's p99 becomes
// OutcomeSlow), and files it in the matching ring. Steady-state calls
// allocate nothing; a nil recorder does nothing.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	if ev.Unix == 0 {
		ev.Unix = time.Now().UnixNano()
	}
	if ev.Kind == KindRequest && ev.DurationNs > 0 {
		rl := r.routes[ev.Route]
		if rl == nil {
			rl = new(routeLatency)
			r.routes[ev.Route] = rl
		}
		if rl.observe(ev.DurationNs, r.slowMinSamples) && ev.Outcome == OutcomeOK {
			ev.Outcome = OutcomeSlow
		}
	}
	if ev.interesting() {
		if r.tail.add(ev) {
			r.obs.EvictedTail.Inc()
		}
		r.obs.Pinned.Inc()
	} else {
		if r.routine.add(ev) {
			r.obs.EvictedRoutine.Inc()
		}
	}
	r.obs.Recorded.Inc()
	r.mu.Unlock()
}

// Filter selects events out of a snapshot. The zero value matches all.
type Filter struct {
	// Since keeps only events with Seq > Since.
	Since uint64
	// MinDuration keeps only events at least this slow.
	MinDuration time.Duration
	// Outcome keeps only events with this outcome (nil = all).
	Outcome *Outcome
	// Kind keeps only events of this kind (0 = all).
	Kind Kind
	// Limit keeps only the newest Limit matches (0 = all).
	Limit int
}

func (f Filter) match(ev *Event) bool {
	if ev.Seq <= f.Since {
		return false
	}
	if f.MinDuration > 0 && ev.DurationNs < int64(f.MinDuration) {
		return false
	}
	if f.Outcome != nil && ev.Outcome != *f.Outcome {
		return false
	}
	if f.Kind != 0 && ev.Kind != f.Kind {
		return false
	}
	return true
}

// Stats summarizes the recorder's lifetime accounting.
type Stats struct {
	// Recorded counts every event accepted; Seq is the last sequence
	// number assigned (equal to Recorded).
	Recorded uint64 `json:"recorded"`
	// Retained counts events currently held across both rings.
	Retained int `json:"retained"`
	// Pinned counts events currently held in the tail ring.
	Pinned int `json:"pinned"`
}

// Stats reports the recorder's accounting; a nil recorder reports zeros.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Recorded: r.seq,
		Retained: r.routine.count + r.tail.count,
		Pinned:   r.tail.count,
	}
}

// Snapshot returns the retained events matching f, in ascending sequence
// order (routine and tail interleaved as they happened). A nil recorder
// returns nil.
func (r *Recorder) Snapshot(f Filter) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	routine := r.routine.appendAll(make([]Event, 0, r.routine.count))
	tail := r.tail.appendAll(make([]Event, 0, r.tail.count))
	r.mu.Unlock()

	// Merge two seq-ascending runs, applying the filter inline.
	out := make([]Event, 0, len(routine)+len(tail))
	i, j := 0, 0
	for i < len(routine) || j < len(tail) {
		var ev Event
		if j >= len(tail) || (i < len(routine) && routine[i].Seq < tail[j].Seq) {
			ev = routine[i]
			i++
		} else {
			ev = tail[j]
			j++
		}
		if f.match(&ev) {
			out = append(out, ev)
		}
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}
