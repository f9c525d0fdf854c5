// Package server exposes the federation's contribution-estimation pipeline
// as an HTTP service — the deployment shape a real data federation would
// run. The lifecycle mirrors the paper's protocol:
//
//	POST /v1/encoder       the federation publishes the predicate encoding
//	POST /v1/model         the trained global rule-based model (binary form)
//	POST /v1/uploads       participants submit activation-vector frames
//	POST /v1/predict       score encoded feature rows (binary v2 or JSON)
//	POST /v1/rounds        register a streaming eval set (CSV) or push one
//	                       round-update frame (binary v2)
//	GET  /v1/scores        live streaming contribution scores (?wait= poll)
//	POST /v1/trace         submit a reserved test set (CSV) → trace job
//	GET  /v1/trace/{id}    poll a trace job's status / result
//	GET  /v1/rules         the extracted rule set (interpretability)
//	GET  /v1/events        flight-recorder wide events (JSON)
//	GET  /v1/debug/bundle  one-shot incident capture: state, SLOs, events
//	                       and the full telemetry snapshot
//	GET  /v1/version       build identity (module, VCS revision)
//	GET  /metrics          the telemetry registry as Prometheus text
//	GET  /healthz          liveness
//
// Raw training features never cross this API: participants send only
// protocol frames of (label, activation bitset) records.
//
// The hot paths speak the binary wire protocol (internal/protocol):
// uploads are validated in place and persisted byte-for-byte (no
// decode→re-encode round trip), /v1/predict serves the compiled
// nn.Binarized evaluator over v2 predict frames (JSON negotiable via
// Content-Type/Accept), and completed trace results stream as binary v2
// frames to clients that Accept application/x-ctfl.
//
// Tracing is asynchronous: POST /v1/trace enqueues a job on a bounded
// worker pool (internal/jobs) and returns 202 with a job id; `?wait=30s`
// blocks for the result as a synchronous convenience. Identical submissions
// against unchanged federation state are served from a content-hash cache.
//
// With Options.DataDir set, every accepted lifecycle mutation is logged to
// a durable store (internal/store) before it is applied, and a restarted
// server replays the log into exactly the pre-restart state — traces score
// byte-for-byte identically across restarts.
//
// Concurrency follows a snapshot-read pattern: mutations take a short write
// lock, traces take an even shorter read lock to capture an immutable view
// (including a prefix view of the append-only tracing index), and all
// scoring compute runs lock-free on worker goroutines — uploads and traces
// never contend on compute.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/flight"
	"repro/internal/jobs"
	"repro/internal/nn"
	"repro/internal/protocol"
	"repro/internal/rounds"
	"repro/internal/rules"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// FaultHandler is the fault-injection site at the top of every mutating
// handler (and the trace submit/poll paths): an injected error there is
// answered with 503 + Retry-After before the request has any effect, so a
// retrying client always converges. Options.Faults of nil leaves it inert.
const FaultHandler = "server.handler"

// errDegraded is the rejection writes receive while the server is in
// degraded mode (WAL persistently unwritable). It maps to 503 + Retry-After.
var errDegraded = errors.New("server: degraded: WAL unavailable, writes rejected; retry later")

// Options tunes the service. The zero value is a fully in-memory server
// with production-shaped defaults.
type Options struct {
	// DataDir enables durable persistence: lifecycle events are WAL-logged
	// under this directory and replayed on construction. Empty = ephemeral.
	DataDir string
	// Workers sizes the trace worker pool (default 4). The queue in front
	// of it holds 64 jobs (POST /v1/trace answers 503 beyond that) and one
	// trace may run for 2 minutes: the internal/jobs defaults.
	Workers int
	// MaxBodyBytes caps any POST body (default 64 MiB); beyond it the
	// request fails with 413.
	MaxBodyBytes int64
	// CompactBytes triggers WAL→snapshot compaction once the WAL exceeds
	// this size (default 8 MiB). Only meaningful with DataDir.
	CompactBytes int64
	// NoSync disables the per-append WAL fsync (durability for speed).
	NoSync bool
	// Logger is the service's structured logger: access log, recovery and
	// lifecycle diagnostics. Defaults to slog.Default().
	Logger *slog.Logger
	// DegradedThreshold is how many consecutive WAL append failures trip
	// degraded mode (default 3): reads and traces keep working, writes are
	// rejected with 503 + Retry-After until a probe append succeeds.
	DegradedThreshold int
	// ProbeInterval rate-limits degraded-mode recovery probes (default 1s).
	ProbeInterval time.Duration
	// RetryAfter is the Retry-After hint attached to 503 rejections
	// (default 1s).
	RetryAfter time.Duration
	// Faults injects failures across the stack (store sites, jobs.run,
	// server.handler) for resilience testing. Nil disables injection.
	Faults *faults.Injector

	// RoundEpsilon is the streaming engine's truncation threshold, between
	// rounds and within them (0 = the engine default 1e-3, negative
	// disables truncation).
	RoundEpsilon float64
	// RoundPermutations is the per-round sampling budget (0 = n·log2(n+1)).
	RoundPermutations int
	// RoundSeed drives the engine's permutation sampling.
	RoundSeed int64
	// RoundWorkers bounds concurrent coalition evaluations per round
	// (0 = GOMAXPROCS). Scores are bit-identical at any value.
	RoundWorkers int
	// RoundGate enables contribution-gated client selection (the ContAvg
	// defense): participants whose streaming score falls below the
	// threshold are flagged gated on GET /v1/scores and surface as
	// KindGate flight events. Nil disables gating.
	RoundGate *rounds.GateConfig

	// SLOInterval is the background SLO evaluation cadence (default 5s;
	// negative disables the ticker — WAL traffic still ticks
	// synchronously, which is what deterministic tests rely on).
	SLOInterval time.Duration

	// ClusterSelf is this node's public base URL on the shard ring, e.g.
	// "http://10.0.0.1:8080". Required when ClusterPeers is set.
	ClusterSelf string
	// ClusterPeers is the full ring membership (every node's base URL,
	// ClusterSelf included). When set, requests carrying an X-CTFL-Fed
	// header for a federation this node does not own are answered with
	// 421 + X-CTFL-Shard so clients re-route. Empty disables sharding.
	ClusterPeers []string
	// ReplicaURL makes this node a shard leader: every persist batch is
	// synchronously shipped to the follower at this URL before it touches
	// the local WAL, so an acknowledged write is durable on both nodes.
	// Requires DataDir.
	ReplicaURL string
	// LeaderURL makes this node a follower: mutating requests are fenced
	// with 503 + X-CTFL-Shard, POST /v1/replicate is accepted, and the
	// leader's /healthz is probed every FollowInterval. A burn-rate breach
	// of the replication_lag objective promotes this node to leader.
	LeaderURL string
	// FollowInterval paces the follower's leader health probes
	// (default 250ms).
	FollowInterval time.Duration
	// ReplLagBound is the replication_lag objective's threshold in seconds
	// (default 2): a follower that has not heard from its leader for
	// longer burns budget toward promotion.
	ReplLagBound float64
	// ReplTimeout bounds one replication push or leader probe (default 5s).
	ReplTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 20
	}
	if o.CompactBytes <= 0 {
		o.CompactBytes = 8 << 20
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	if o.DegradedThreshold <= 0 {
		o.DegradedThreshold = 3
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.SLOInterval == 0 {
		o.SLOInterval = 5 * time.Second
	}
	if o.FollowInterval <= 0 {
		o.FollowInterval = 250 * time.Millisecond
	}
	if o.ReplLagBound <= 0 {
		o.ReplLagBound = 2
	}
	if o.ReplTimeout <= 0 {
		o.ReplTimeout = 5 * time.Second
	}
	return o
}

// state is the federation's mutable lifecycle state. Mutations replace or
// append — existing values are never edited in place — so a consistent
// snapshot is a copy of this struct plus idx.View(), both taken under one
// read lock.
type state struct {
	enc      *dataset.Encoder
	encRaw   []byte // encoder JSON exactly as accepted, for snapshots
	model    *nn.Model
	modelRaw []byte     // model bytes exactly as accepted
	rs       *rules.Set // its Binarized snapshot serves /v1/predict
	// idx is the tracing index of rs's rule space, extended in place as
	// upload frames apply; nil until a model is published.
	idx     *core.Index
	frames  [][]byte // accepted protocol frames, byte-for-byte as uploaded
	rounds  *rounds.Engine
	evalRaw []byte // streaming eval set CSV exactly as registered
	// version counts accepted mutations; trace cache keys include it so any
	// state change invalidates prior results.
	version uint64
}

// Server is the federation scoring service. The zero value is not usable;
// call New or NewWithOptions.
type Server struct {
	opts   Options
	mu     sync.RWMutex
	st     state
	store  *store.Store // nil when ephemeral
	engine *jobs.Engine

	// roundsMu serializes round-update ingest end to end (compute →
	// persist → apply): exactly one round is in flight at a time, which is
	// what makes the streaming score sequence deterministic under
	// concurrent pushers. Never taken while holding mu.
	roundsMu sync.Mutex

	// Degraded-mode state, guarded by mu (write lock): walFails counts
	// consecutive WAL append failures; once it reaches DegradedThreshold the
	// server stops touching the WAL for writes and instead probes it at most
	// once per ProbeInterval, recovering when a probe append succeeds.
	walFails  int
	degraded  bool
	lastProbe time.Time
	// degradedBySLO marks a degradation tripped by wal_availability SLO
	// burn (as opposed to the consecutive-failure threshold): only those
	// episodes clear on burn decay; threshold trips demand a probe append
	// as positive proof. Guarded by mu (write).
	degradedBySLO bool
	// lastSLOTick rate-limits the synchronous evaluator ticks successful
	// WAL appends trigger (see sloSyncFloor). Guarded by mu (write).
	lastSLOTick time.Time

	mux *http.ServeMux

	// Observability substrate: one registry for every number the service
	// reports (GET /metrics renders it as text, GET /v1/debug/bundle as
	// JSON), the structured logger, and the tracer/store instrument handles
	// threaded into the subsystems.
	reg      *telemetry.Registry
	log      *slog.Logger
	inFlight *telemetry.Gauge
	coreObs  *core.Obs
	storeObs *store.Obs

	degradedGauge   *telemetry.Gauge
	degradedEntered *telemetry.Counter

	// Flight recorder + SLO engine + process runtime stats (the PR-8
	// observability tier). flightRec is always on; slo couples
	// wal_availability burn into the degraded-mode controller above.
	flightRec        *flight.Recorder
	slo              *telemetry.SLOEvaluator
	runtime          *telemetry.RuntimeStats
	httpResponses    *telemetry.Counter // all responses, SLO availability total
	httpServerErrors *telemetry.Counter // 5xx responses, SLO availability bad
	walAttempts      *telemetry.Counter // WAL append attempts (incl. probes)
	walFailures      *telemetry.Counter // failed WAL appends
	degradedSLOTrips *telemetry.Counter // degradations tripped by SLO burn
	sloStop          chan struct{}
	sloDone          chan struct{}

	// predictRows counts rows scored by /v1/predict; the route middleware
	// already counts and times the requests themselves.
	predictRows *telemetry.Counter

	// roundCfg holds the settings every round engine is built with, its
	// instruments included: registered at construction so the families
	// are visible to scrapes before any engine exists.
	roundCfg rounds.Config

	// Cluster state (see cluster.go): the shard ring, the leader's push
	// client, and the follower's cursor + promotion flag. following and
	// the replication cursor are guarded by mu (write).
	ring              *cluster.Ring
	clusterClient     *http.Client // replication pushes + leader probes
	following         bool         // true while fenced behind a leader
	replApplied       uint64       // follower cursor: records applied this incarnation
	lastLeaderContact time.Time
	replLag           *telemetry.Gauge
	replSegments      *telemetry.Counter
	replFailures      *telemetry.Counter
	replResyncs       *telemetry.Counter
	promotions        *telemetry.Counter
	followStop        chan struct{}
	followDone        chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// New constructs an ephemeral (in-memory) service with default options,
// the configuration unit tests and examples use.
func New() *Server {
	s, err := NewWithOptions(Options{})
	if err != nil {
		// Without a DataDir no construction step can fail.
		panic(err)
	}
	return s
}

// NewWithOptions constructs the service, replaying durable state from
// opts.DataDir when set.
func NewWithOptions(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		opts: opts,
		mux:  http.NewServeMux(),
		reg:  telemetry.NewRegistry(),
		log:  opts.Logger,
	}
	s.inFlight = s.reg.Gauge("ctfl_http_in_flight", "HTTP requests currently being served")
	s.coreObs = core.NewObs(s.reg)
	s.storeObs = store.NewObs(s.reg)
	s.degradedGauge = s.reg.Gauge("ctfl_server_degraded", "1 while WAL writes are rejected (degraded mode)")
	s.degradedEntered = s.reg.Counter("ctfl_server_degraded_entered_total", "times the server entered degraded mode")
	s.predictRows = s.reg.Counter("ctfl_predict_rows_total", "feature rows scored by POST /v1/predict")
	s.roundCfg = rounds.Config{
		Epsilon:      opts.RoundEpsilon,
		Permutations: opts.RoundPermutations,
		Seed:         opts.RoundSeed,
		Workers:      opts.RoundWorkers,
		Obs:          rounds.NewObs(s.reg),
		Gate:         opts.RoundGate,
	}

	// Observability tier: always-on flight recorder, process runtime
	// stats, and the SLO burn-rate engine. Registered before the routes so
	// the middleware can attach per-route latency objectives.
	s.flightRec = flight.New(flight.Config{Obs: flight.NewObs(s.reg)})
	s.runtime = telemetry.NewRuntimeStats(s.reg, time.Now())
	s.httpResponses = s.reg.Counter("ctfl_http_responses_total", "HTTP responses served, any status")
	s.httpServerErrors = s.reg.Counter("ctfl_http_response_errors_total", "HTTP 5xx responses served")
	s.walAttempts = s.reg.Counter("ctfl_wal_attempts_total", "WAL append attempts, including recovery probes")
	s.walFailures = s.reg.Counter("ctfl_wal_failures_total", "failed WAL appends")
	s.degradedSLOTrips = s.reg.Counter("ctfl_server_degraded_slo_trips_total",
		"degradations tripped by wal_availability SLO burn (vs the consecutive-failure threshold)")
	if err := s.initCluster(); err != nil {
		return nil, err
	}
	s.slo = telemetry.NewSLOEvaluator(s.reg)
	s.registerSLOs()

	s.engine = jobs.New(jobs.Config{
		Workers: opts.Workers,
		Faults:  opts.Faults,
		Obs:     jobs.NewObs(s.reg),
		OnFinish: func(v jobs.View) {
			ev := flight.Event{
				Kind:      flight.KindJob,
				Route:     "job.trace",
				RequestID: v.ID,
				CacheHit:  v.CacheHit,
				Degraded:  s.degradedGauge.Value() != 0,
			}
			if !v.Started.IsZero() && !v.Finished.IsZero() {
				ev.DurationNs = v.Finished.Sub(v.Started).Nanoseconds()
			}
			if v.Quarantined {
				ev.Aux = 1
			}
			if v.Err != nil {
				ev.Outcome = flight.OutcomeError
				ev.Err = v.Err.Error()
			}
			s.flightRec.Record(ev)
		},
	})

	if opts.DataDir != "" {
		st, events, err := store.Open(opts.DataDir, store.Options{
			Sync: !opts.NoSync, Obs: s.storeObs, Faults: opts.Faults,
			// The store's recovery diagnostics are printf-style.
			Logf: func(format string, args ...any) { s.log.Warn(fmt.Sprintf(format, args...)) },
			// Leaders retain the logical event log so cursor resyncs can
			// re-feed a lagging follower (see cluster.go).
			Retain: opts.ReplicaURL != "",
		})
		if err != nil {
			return nil, err
		}
		s.store = st
		for i, ev := range events {
			if err := s.st.replay(ev, &s.roundCfg); err != nil {
				// Every event was validated before it was logged, so a bad
				// one is survivable noise (e.g. an upload for a superseded
				// model): log and keep replaying.
				s.log.Warn("replay: skipping event", "index", i, "type", ev.Type, "err", err)
			}
		}
		s.log.Info("replayed durable state", "events", len(events), "data_dir", opts.DataDir,
			"participants", s.st.idx.Participants(), "records", s.st.idx.Len())
	}

	s.route("/healthz", s.handleHealth)
	s.route("/v1/encoder", s.handleEncoder)
	s.route("/v1/model", s.handleModel)
	s.route("/v1/uploads", s.handleUploads)
	s.route("/v1/predict", s.handlePredict)
	s.route("/v1/rounds", s.handleRounds)
	s.route("/v1/scores", s.handleScores)
	s.route("/v1/trace", s.handleTrace)
	s.route("/v1/trace/{id}", s.handleTraceJob)
	s.route("/v1/rules", s.handleRules)
	s.route("/v1/events", s.handleEvents)
	s.route("/v1/debug/bundle", s.handleDebugBundle)
	s.route("/v1/version", s.handleVersion)
	s.route("/v1/replicate", s.handleReplicate)
	s.route("/metrics", s.handleMetrics)

	s.sloStop = make(chan struct{})
	s.sloDone = make(chan struct{})
	if opts.SLOInterval > 0 {
		go s.sloLoop(opts.SLOInterval)
	} else {
		close(s.sloDone)
	}
	s.followStop = make(chan struct{})
	s.followDone = make(chan struct{})
	if s.following {
		go s.followLoop()
	} else {
		close(s.followDone)
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close drains the trace worker pool (bounded by ctx), writes a final
// snapshot, and releases the store. Safe to call more than once.
func (s *Server) Close(ctx context.Context) error {
	s.closeOnce.Do(func() {
		close(s.followStop)
		<-s.followDone
		close(s.sloStop)
		<-s.sloDone
		drainErr := s.engine.Close(ctx)
		var storeErr error
		if s.store != nil {
			s.mu.Lock()
			storeErr = s.store.Compact(s.snapshotEventsLocked())
			if cerr := s.store.Close(); storeErr == nil {
				storeErr = cerr
			}
			s.mu.Unlock()
		}
		s.closeErr = errors.Join(drainErr, storeErr)
	})
	return s.closeErr
}

// snapshotEventsLocked re-creates current state as a minimal event list:
// the compaction input. Caller holds at least the read lock.
func (s *Server) snapshotEventsLocked() []store.Event {
	var events []store.Event
	if s.st.encRaw != nil {
		events = append(events, store.Event{Type: store.EventEncoder, Payload: s.st.encRaw})
	}
	if s.st.modelRaw != nil {
		events = append(events, store.Event{Type: store.EventModel, Payload: s.st.modelRaw})
	}
	for _, f := range s.st.frames {
		events = append(events, store.Event{Type: store.EventUpload, Payload: f})
	}
	if s.st.evalRaw != nil {
		events = append(events, store.Event{Type: store.EventRoundEval, Payload: s.st.evalRaw})
		if s.st.rounds != nil {
			for _, p := range s.st.rounds.Payloads() {
				events = append(events, store.Event{Type: store.EventRound, Payload: p})
			}
		}
	}
	return events
}

// persistLocked write-ahead-logs a mutation's events atomically (one batch,
// one write) and tracks WAL health for degraded mode. Caller holds the write
// lock; on error the caller must not apply the mutation — every persist
// failure happens before any state change, so the client may simply retry.
func (s *Server) persistLocked(evs ...store.Event) error {
	if s.store == nil {
		return nil
	}
	if s.degraded {
		if !s.probeLocked() {
			return errDegraded
		}
	}
	// Leaders replicate before appending locally: a failure here rejects
	// the write with no local effect (the contract above), and the
	// follower's cursor check absorbs the re-push when the client retries.
	if err := s.replicateLocked(evs); err != nil {
		return err
	}
	s.walAttempts.Inc()
	if err := s.store.AppendBatch(evs); err != nil {
		s.walFails++
		s.walFailures.Inc()
		s.recordWALEvent(flight.OutcomeError, "store.append", err.Error(), int64(s.walFails))
		if !s.degraded && s.walFails >= s.opts.DegradedThreshold {
			s.degraded = true
			s.lastProbe = time.Now()
			s.degradedEntered.Inc()
			s.degradedGauge.Set(1)
			s.recordWALEvent(flight.OutcomeDegraded, "server.degraded",
				"entered: consecutive WAL append failures", int64(s.walFails))
			s.log.Warn("entering degraded mode: WAL appends failing persistently",
				"consecutive_failures", s.walFails, "err", err)
		}
		// Failures re-evaluate the SLOs immediately (never rate-limited):
		// wal_availability burn must trip degraded mode during the
		// incident, not a tick later.
		s.sloTickLocked(time.Now())
		return err
	}
	s.walFails = 0
	if now := time.Now(); now.Sub(s.lastSLOTick) >= sloSyncFloor {
		s.sloTickLocked(now)
	}
	return nil
}

// probeLocked attempts degraded-mode recovery at most once per
// ProbeInterval: a no-op append proving the WAL is writable again. Reports
// whether the server is healthy after the call.
func (s *Server) probeLocked() bool {
	if time.Since(s.lastProbe) < s.opts.ProbeInterval {
		return false
	}
	s.lastProbe = time.Now()
	s.walAttempts.Inc()
	if err := s.store.Append(store.Event{Type: store.EventNop}); err != nil {
		s.walFailures.Inc()
		s.recordWALEvent(flight.OutcomeError, "store.probe", err.Error(), int64(s.walFails))
		s.sloTickLocked(time.Now())
		return false
	}
	s.degraded = false
	s.degradedBySLO = false
	s.walFails = 0
	s.degradedGauge.Set(0)
	// The probe positively proved the WAL healthy; the objective's retained
	// bad samples predate that proof, so keeping them would re-trip a
	// breach the probe just disproved.
	s.slo.Reset(sloWAL)
	s.recordWALEvent(flight.OutcomeDegraded, "server.degraded",
		"cleared: WAL append probe succeeded", 0)
	s.log.Info("degraded mode cleared: WAL append probe succeeded")
	return true
}

// maybeCompactLocked folds the WAL into a snapshot once it outgrows the
// configured bound. Runs after the mutation is applied, so the snapshot
// input is simply the current state. Compaction failure is survivable — the
// WAL keeps growing and the next mutation retries.
func (s *Server) maybeCompactLocked() {
	if s.store == nil || s.store.WALSize() <= s.opts.CompactBytes {
		return
	}
	if err := s.store.Compact(s.snapshotEventsLocked()); err != nil {
		s.log.Warn("wal compaction failed, continuing on the wal", "err", err)
	}
}

// unavailable answers 503 with the configured Retry-After hint: the
// degraded-mode and injected-fault rejection shape retrying clients honour.
func (s *Server) unavailable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.opts.RetryAfter+time.Second-1)/time.Second)))
	httpError(w, http.StatusServiceUnavailable, err)
}

// injectFault fires the server.handler site; when it injects, the request
// is rejected with 503 + Retry-After before it has any effect, and the
// fault is annotated onto the request's flight event.
func (s *Server) injectFault(w http.ResponseWriter, r *http.Request) bool {
	if err := s.opts.Faults.Err(FaultHandler); err != nil {
		if ex := extrasFrom(r.Context()); ex != nil {
			ex.faults++
		}
		s.unavailable(w, err)
		return true
	}
	return false
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// readBody drains a POST body under the configured cap, converting an
// overrun into 413 at the call site via maxBytesCode.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	// Read declared-length bodies into one exact-size buffer: io.ReadAll's
	// grow-by-doubling re-zeroes and re-copies an 8KB upload four times
	// over, which under sustained ingest is a double-digit share of
	// handler CPU. net/http caps the body at Content-Length, so a full
	// read here is the whole body. A declared length beyond maxPrealloc is
	// only a claim: that body grows as its bytes arrive.
	if n := r.ContentLength; n > 0 && n <= s.opts.MaxBodyBytes {
		if n > maxPrealloc {
			return appendAll(nil, rd, n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(rd, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	return io.ReadAll(rd)
}

// requireContentType validates the request's Content-Type against the
// allowed media types, returning the matched type. An absent header is
// accepted (returning "") for compatibility with minimal clients; anything
// present but unlisted is the caller's 415.
func requireContentType(r *http.Request, allowed ...string) (string, error) {
	raw := r.Header.Get("Content-Type")
	if raw == "" {
		return "", nil
	}
	mt, _, err := mime.ParseMediaType(raw)
	if err != nil {
		return "", fmt.Errorf("unparseable Content-Type %q", raw)
	}
	for _, a := range allowed {
		if mt == a {
			return mt, nil
		}
	}
	return "", fmt.Errorf("unsupported Content-Type %q (expected %s)", mt, strings.Join(allowed, " or "))
}

// maxBytesCode maps body-too-large errors to 413 and everything else to
// the given default.
func maxBytesCode(err error, def int) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return def
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.stateSummary())
}

// stateSummary is the federation and cluster state /healthz serves and the
// debug bundle embeds.
func (s *Server) stateSummary() map[string]any {
	s.mu.RLock()
	defer s.mu.RUnlock()
	state := map[string]any{
		"ok":           true,
		"encoder":      s.st.enc != nil,
		"model":        s.st.model != nil,
		"uploads":      s.st.idx.Len(),
		"participants": s.st.idx.Participants(),
		"durable":      s.store != nil,
		"degraded":     s.degraded,
		"version":      s.st.version,
	}
	if eng := s.st.rounds; eng != nil {
		state["rounds"] = eng.Rounds()
	}
	if s.ring != nil || s.opts.ReplicaURL != "" || s.opts.LeaderURL != "" {
		role := "leader"
		if s.following {
			role = "follower"
		}
		cl := map[string]any{
			"role":     role,
			"promoted": s.opts.LeaderURL != "" && !s.following,
			"applied":  s.replApplied,
		}
		if s.ring != nil {
			cl["shard"] = s.opts.ClusterSelf
			cl["peers"] = s.ring.Size()
		}
		if s.opts.ReplicaURL != "" {
			cl["replica"] = s.opts.ReplicaURL
		}
		state["cluster"] = cl
	}
	return state
}

func (s *Server) handleEncoder(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.injectFault(w, r) {
		return
	}
	if _, ok := s.write(w, r, store.EventEncoder, nil); ok {
		w.WriteHeader(http.StatusNoContent)
	}
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.injectFault(w, r) {
		return
	}
	if _, err := requireContentType(r, "application/octet-stream"); err != nil {
		httpError(w, http.StatusUnsupportedMediaType, err)
		return
	}
	if _, ok := s.write(w, r, store.EventModel, nil); ok {
		w.WriteHeader(http.StatusNoContent)
	}
}

func (s *Server) handleUploads(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.injectFault(w, r) {
		return
	}
	if _, err := requireContentType(r, "application/octet-stream", protocol.ContentTypeFrame); err != nil {
		httpError(w, http.StatusUnsupportedMediaType, err)
		return
	}
	var records int
	frames, ok := s.write(w, r, store.EventUpload, func(st *state) { records = st.idx.Len() })
	if ok {
		writeJSON(w, http.StatusOK, map[string]int{"frames": len(frames), "records": records})
	}
}

// TraceResponse is the result of a completed trace job. It is the
// protocol's canonical TraceResult: GET /v1/trace/{id} serves it as JSON by
// default, or as a binary v2 trace-result frame when the request Accepts
// application/x-ctfl.
type TraceResponse = protocol.TraceResult

// TraceJobResponse is the envelope POST /v1/trace and GET /v1/trace/{id}
// return: the job's lifecycle status plus, once done, the trace result.
type TraceJobResponse struct {
	ID       string         `json:"id"`
	Status   string         `json:"status"`
	CacheHit bool           `json:"cache_hit"`
	Error    string         `json:"error,omitempty"`
	Result   *TraceResponse `json:"result,omitempty"`
}

func jobResponse(v jobs.View) TraceJobResponse {
	resp := TraceJobResponse{ID: v.ID, Status: string(v.Status), CacheHit: v.CacheHit}
	if v.Err != nil {
		resp.Error = v.Err.Error()
	}
	if tr, ok := v.Result.(*TraceResponse); ok {
		resp.Result = tr
	}
	return resp
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.injectFault(w, r) {
		return
	}
	tau, err := queryFloat(r, "tau", 0.9)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	delta, err := queryInt(r, "delta", 2)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if !(tau > 0 && tau <= 1) {
		httpError(w, http.StatusBadRequest, fmt.Errorf("tau %v outside (0,1]", tau))
		return
	}
	if delta < 1 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("delta %d below 1", delta))
		return
	}
	var wait time.Duration
	if wv := r.URL.Query().Get("wait"); wv != "" {
		if wait, err = time.ParseDuration(wv); err != nil || wait < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("query wait: %q is not a duration", wv))
			return
		}
	}
	body, err := s.readBody(w, r)
	if err != nil {
		httpError(w, maxBytesCode(err, http.StatusBadRequest), err)
		return
	}

	// Snapshot-read the federation state: the job traces this immutable
	// view of the index, never under the lock, however far uploads extend
	// the index meanwhile.
	s.mu.RLock()
	snap := s.st
	view := snap.idx.View()
	s.mu.RUnlock()
	if snap.rs == nil {
		httpError(w, http.StatusConflict, errors.New("publish encoder and model first"))
		return
	}
	if view.Len() == 0 {
		httpError(w, http.StatusConflict, errors.New("no participant uploads registered"))
		return
	}
	// Parse the CSV up front so malformed input is a 400 now, not a failed
	// job later; the tracer itself is the only async stage. The body goes
	// straight into predicate columns, with no table or float row between.
	test, err := snap.enc.ReadCSVColumns(body, dataset.CSVOptions{
		HasHeader:       true,
		PositiveLabel:   snap.enc.Schema().Labels[1],
		TrimSpace:       true,
		ClampContinuous: true,
	})
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if test.Len() == 0 {
		httpError(w, http.StatusBadRequest, errors.New("empty test set"))
		return
	}

	key := traceKey(body, tau, delta, snap.version)
	job, err := s.engine.Submit(key, func(ctx context.Context) (any, error) {
		return traceResponse(view.Tracer(core.Config{TauW: tau, Delta: delta, Obs: s.coreObs}).TraceColumns(test)), nil
	})
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		httpError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, jobs.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
		return
	}

	if wait > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		defer cancel()
		if v, err := s.engine.Wait(ctx, job); err == nil {
			s.writeJob(w, r, v)
			return
		}
		// Timed out waiting: fall through to the async 202 answer.
	}
	jv := job.Snapshot()
	if ex := extrasFrom(r.Context()); ex != nil && jv.CacheHit {
		ex.cacheHit = true
	}
	w.Header().Set("Location", "/v1/trace/"+job.ID())
	writeJSON(w, http.StatusAccepted, jobResponse(jv))
}

// traceResponse is the job result a trace job serves for res.
func traceResponse(res *core.Result) *TraceResponse {
	sus := res.Suspicion(0.5)
	return &TraceResponse{
		Accuracy:     res.Accuracy(),
		CoverageGap:  res.CoverageGap(),
		Micro:        res.MicroScores(),
		Macro:        res.MacroScores(),
		LossRatio:    sus.Ratio,
		UselessRatio: res.UselessRatio(),
		Suspects:     sus.Suspects,
	}
}

// acceptsFrame reports whether the request negotiated the binary v2
// encoding for its response.
func acceptsFrame(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), protocol.ContentTypeFrame)
}

// writeJob renders a job view with a status code matching its lifecycle:
// 200 done, 500 failed, 202 still in flight. A done job whose request
// Accepts application/x-ctfl is answered as a binary trace-result frame
// instead of the JSON envelope; every other lifecycle state stays JSON, so
// pollers always see the envelope until there is a result to stream.
func (s *Server) writeJob(w http.ResponseWriter, r *http.Request, v jobs.View) {
	if ex := extrasFrom(r.Context()); ex != nil && v.CacheHit {
		ex.cacheHit = true
	}
	code := http.StatusAccepted
	switch v.Status {
	case jobs.StatusDone:
		if tr, ok := v.Result.(*TraceResponse); ok && acceptsFrame(r) {
			frame := protocol.AppendTraceResult(nil, tr)
			w.Header().Set("Content-Type", protocol.ContentTypeFrame)
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(frame)
			return
		}
		code = http.StatusOK
	case jobs.StatusFailed:
		code = http.StatusInternalServerError
	}
	writeJSON(w, code, jobResponse(v))
}

func (s *Server) handleTraceJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	if s.injectFault(w, r) {
		return
	}
	job, ok := s.engine.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown trace job %q", r.PathValue("id")))
		return
	}
	s.writeJob(w, r, job.Snapshot())
}

// traceKey derives the result-cache key: test-set content, tracing
// parameters, and the federation state version — any state change yields a
// fresh key, so stale results are never served.
func traceKey(body []byte, tau float64, delta int, version uint64) string {
	h := sha256.New()
	var meta [24]byte
	binary.LittleEndian.PutUint64(meta[0:8], math.Float64bits(tau))
	binary.LittleEndian.PutUint64(meta[8:16], uint64(int64(delta)))
	binary.LittleEndian.PutUint64(meta[16:24], version)
	h.Write(meta[:])
	h.Write(body)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// RuleJSON is one rule in GET /v1/rules responses.
type RuleJSON struct {
	Index    int     `json:"index"`
	Positive bool    `json:"positive"`
	Weight   float64 `json:"weight"`
	Expr     string  `json:"expr"`
}

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	s.mu.RLock()
	rs := s.st.rs
	s.mu.RUnlock()
	if rs == nil {
		httpError(w, http.StatusConflict, errors.New("publish encoder and model first"))
		return
	}
	out := make([]RuleJSON, 0, len(rs.Rules))
	for _, ru := range rs.Rules {
		out = append(out, RuleJSON{Index: ru.Index, Positive: ru.Positive, Weight: ru.Weight, Expr: ru.Expr})
	}
	writeJSON(w, http.StatusOK, out)
}

func queryFloat(r *http.Request, key string, def float64) (float64, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("query %s: %w", key, err)
	}
	return f, nil
}

func queryInt(r *http.Request, key string, def int) (int, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("query %s: %w", key, err)
	}
	return n, nil
}
