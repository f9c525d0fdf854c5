// Command ctflsrv runs the federation's contribution-estimation service.
//
// Usage:
//
//	ctflsrv [-addr :8080] [-data-dir /var/lib/ctflsrv] [-workers 4]
//	        [-max-body 67108864] [-compact-bytes 8388608] [-no-sync]
//	        [-pprof] [-log-json] [-drain-timeout 30s]
//	        [-degraded-threshold 3] [-probe-interval 1s]
//	        [-retry-after 1s] [-read-timeout 5m] [-write-timeout 10m]
//	        [-idle-timeout 2m] [-round-epsilon 0.001]
//	        [-round-perms 0] [-round-seed 1] [-round-workers 0]
//	        [-gate-threshold T] [-gate-warmup 2] [-gate-hysteresis 0.02]
//	        [-slo-interval 5s]
//	        [-cluster-self URL] [-cluster-peers URL,URL,...]
//	        [-replica URL] [-leader URL] [-follow-interval 250ms]
//	        [-repl-lag-bound 2] [-repl-timeout 5s]
//
// Clustering: -cluster-peers places every federation on one ring member by
// consistent hash; requests for a federation this node does not own answer
// 421 with the owner's URL in X-CTFL-Shard (the server.Client follows the
// redirect automatically). -replica makes this node a leader that pushes
// every WAL segment to the named follower before acknowledging a write;
// -leader makes this node a follower that applies pushed segments, fences
// its own write routes with 503, probes the leader's /healthz every
// -follow-interval, and promotes itself when the replication_lag SLO burns
// (gauge above -repl-lag-bound on both burn windows).
//
// With -data-dir set, every accepted lifecycle mutation is write-ahead
// logged and the full federation state is recovered on restart; without it
// the service is in-memory. SIGINT/SIGTERM trigger a graceful drain:
// in-flight HTTP requests and queued trace jobs finish, a final state
// snapshot is written, and only then does the process exit.
//
// Fault tolerance: a failed trace job is reported failed and never cached,
// so a client resubmission reruns it (server.Client.Trace does this within
// its retry budget); a panicking job is quarantined and counted in
// ctfl_jobs_quarantined_total. After -degraded-threshold consecutive WAL
// append failures the service enters degraded mode — reads and traces keep
// working, writes answer 503 with a Retry-After of -retry-after — and
// probes the WAL at most every -probe-interval until an append succeeds,
// then recovers automatically.
//
// Lifecycle (see internal/server for payload formats):
//
//	POST /v1/encoder       publish the predicate encoding (JSON)
//	POST /v1/model         publish the trained rule-based model (binary)
//	POST /v1/uploads       register participant activation frames
//	POST /v1/predict       score feature rows (binary CTFL frame or JSON)
//	POST /v1/rounds        register the streaming eval set (CSV) or push one
//	                       round-update frame (binary CTFL frame)
//	GET  /v1/scores        live per-participant contribution scores
//	                       (?round=N&wait=D long-polls)
//	POST /v1/trace         submit a test set (CSV) → async job (?wait= to block)
//	GET  /v1/trace/{id}    poll a trace job
//	GET  /v1/rules         inspect the extracted rules
//	GET  /v1/events        flight-recorder wide events (JSON)
//	GET  /v1/debug/bundle  one-shot incident capture: state, SLOs, events
//	                       and every metric as JSON
//	GET  /v1/version       build identity
//	GET  /metrics          every metric as Prometheus text exposition
//	GET  /healthz          liveness and state summary
//
// -pprof mounts net/http/pprof under /debug/pprof/ on the same listener.
// -addr accepts port 0; the actual bound address is logged as
// "ctflsrv listening on host:port", which harnesses parse.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/rounds"
	"repro/internal/server"
)

// splitPeers turns the comma-separated -cluster-peers value into member
// URLs, dropping empty segments so trailing commas are harmless.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	addr := flag.String("addr", ":8080", "listen address (port 0 picks a free port)")
	dataDir := flag.String("data-dir", "", "persistence directory (empty = in-memory)")
	workers := flag.Int("workers", 4, "trace worker pool size")
	maxBody := flag.Int64("max-body", 64<<20, "max POST body bytes before 413")
	compactBytes := flag.Int64("compact-bytes", 8<<20, "WAL size triggering snapshot compaction")
	noSync := flag.Bool("no-sync", false, "skip per-append WAL fsync (faster, less durable)")
	degradedThreshold := flag.Int("degraded-threshold", 3, "consecutive WAL failures before degraded mode")
	probeInterval := flag.Duration("probe-interval", time.Second, "min interval between degraded-mode recovery probes")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 503 write rejections")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to drain on shutdown")
	readTimeout := flag.Duration("read-timeout", 5*time.Minute, "max time to read a request incl. body (0 = unlimited)")
	writeTimeout := flag.Duration("write-timeout", 10*time.Minute, "max time to write a response; must exceed the longest ?wait= long-poll (0 = unlimited)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time per connection (0 = unlimited)")
	roundEpsilon := flag.Float64("round-epsilon", 0, "between- and within-round truncation threshold for streaming valuation (0 = default 1e-3, negative disables)")
	roundPerms := flag.Int("round-perms", 0, "permutation samples per streamed round (0 = engine default)")
	roundSeed := flag.Int64("round-seed", 1, "seed for the streaming valuation sampler")
	roundWorkers := flag.Int("round-workers", 0, "coalition-evaluation workers per streamed round (0 = engine default)")
	gateThreshold := flag.Float64("gate-threshold", math.NaN(), "contribution-gate score threshold (ContAvg defense; unset disables gating)")
	gateWarmup := flag.Int("gate-warmup", 2, "applied rounds before gate decisions begin")
	gateHysteresis := flag.Float64("gate-hysteresis", 0.02, "readmission margin above -gate-threshold")
	sloInterval := flag.Duration("slo-interval", 5*time.Second, "background SLO burn-rate evaluation cadence (negative disables)")
	clusterSelf := flag.String("cluster-self", "", "this node's public base URL within -cluster-peers")
	clusterPeers := flag.String("cluster-peers", "", "comma-separated base URLs of every ring member (requires -cluster-self)")
	replicaURL := flag.String("replica", "", "follower base URL to replicate the WAL to (leader role; requires -data-dir)")
	leaderURL := flag.String("leader", "", "leader base URL to follow (follower role: writes fenced until promotion)")
	followInterval := flag.Duration("follow-interval", 250*time.Millisecond, "follower leader-health probe cadence")
	replLagBound := flag.Float64("repl-lag-bound", 2, "replication-lag SLO threshold in seconds before failover burn starts")
	replTimeout := flag.Duration("repl-timeout", 5*time.Second, "timeout per replication push / leader health probe")
	withPprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	// The gate threshold has no inert sentinel inside its domain — scores
	// start at 0 and go negative, so 0 is a meaningful threshold. NaN (the
	// flag default) is the "disabled" marker.
	var gate *rounds.GateConfig
	if !math.IsNaN(*gateThreshold) {
		gate = &rounds.GateConfig{
			Threshold:  *gateThreshold,
			Warmup:     *gateWarmup,
			Hysteresis: *gateHysteresis,
		}
	}

	svc, err := server.NewWithOptions(server.Options{
		DataDir:           *dataDir,
		Workers:           *workers,
		MaxBodyBytes:      *maxBody,
		CompactBytes:      *compactBytes,
		NoSync:            *noSync,
		Logger:            logger,
		DegradedThreshold: *degradedThreshold,
		ProbeInterval:     *probeInterval,
		RetryAfter:        *retryAfter,
		RoundEpsilon:      *roundEpsilon,
		RoundPermutations: *roundPerms,
		RoundSeed:         *roundSeed,
		RoundWorkers:      *roundWorkers,
		RoundGate:         gate,
		SLOInterval:       *sloInterval,
		ClusterSelf:       *clusterSelf,
		ClusterPeers:      splitPeers(*clusterPeers),
		ReplicaURL:        *replicaURL,
		LeaderURL:         *leaderURL,
		FollowInterval:    *followInterval,
		ReplLagBound:      *replLagBound,
		ReplTimeout:       *replTimeout,
	})
	if err != nil {
		logger.Error("ctflsrv: startup failed", "err", err)
		os.Exit(1)
	}

	var handlerMux http.Handler = svc
	if *withPprof {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", svc)
		handlerMux = mux
	}

	// Listen before serving so -addr :0 resolves to a concrete port the
	// startup log can announce (smoke harnesses parse this line).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("ctflsrv: listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}

	// Slow-client protection: a peer that stalls mid-request or never reads
	// its response is cut off instead of pinning a connection (and its
	// handler goroutine) forever. The write timeout is generous because
	// /v1/trace?wait= long-polls inside the response window.
	srv := &http.Server{
		Handler:           handlerMux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("ctflsrv listening on "+ln.Addr().String(),
			"addr", ln.Addr().String(), "data_dir", *dataDir, "pprof", *withPprof)
		errc <- srv.Serve(ln)
	}()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("ctflsrv: serve failed", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // restore default signal behaviour: a second ^C kills hard
		logger.Info("ctflsrv draining", "max", drainTimeout.String())
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("ctflsrv: http shutdown", "err", err)
		}
		// Drain queued trace jobs and write the final snapshot.
		if err := svc.Close(shutdownCtx); err != nil {
			logger.Warn("ctflsrv: close", "err", err)
		} else {
			logger.Info("ctflsrv: drained cleanly")
		}
	}
}
