package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/protocol"
	"repro/internal/rounds"
)

// Fixed work per second of -seconds, sized so the measured phase takes
// about that long on a 2-core host. Both commits of a comparison run the
// same counts, so they end in the same federation state with the same
// number of compactions.
const (
	ingestPerSecond = 7000 // POST /v1/uploads, 2 closed-loop clients
	streamPerSecond = 10   // round pushes, 1 closed-loop client
	tracePerSecond  = 65   // trace jobs, 2 closed-loop clients
	liveUploadRate  = 200  // upload frames per second, open loop

	ingestWarmup = 1000
	streamWarmup = 4
	traceWarmup  = 8

	roundPerms  = 16 // ctflsrv -round-perms; the stream reference mirrors it
	roundSeed   = 1  // ctflsrv's default -round-seed
	setupRuns   = 9  // set-ups per run; setup_s is their median
	recoverRuns = 3  // restarts per run; recover_s is their median
)

// workload is one traffic mix against a fresh ctflsrv; README.md and
// BENCHMARK.json give the reason for each.
type workload struct {
	name string
	// primary names the recorder whose throughput and latency are the
	// workload's end-to-end ops_per_s, p50_ms and tail_ms; route is the
	// server route behind it, for the per-layer server metrics.
	primary, route string
	// preload beyond the encoder, model and eval set every set-up publishes.
	preloadRecords bool
	preloadRounds  int
	warmup         func(r *run) error
	measure        func(r *run) error
	check          func(r *run) // correctness of the served outputs, server still up
}

var workloads = []*workload{
	{
		name:    "ingest",
		primary: "/v1/uploads",
		route:   "/v1/uploads",
		warmup: func(r *run) error {
			r.closedLoop(ingestWarmup, func(i int) { r.upload(newRecorder("/v1/uploads"), time.Time{}, i) })
			return nil
		},
		measure: func(r *run) error {
			up := r.recorder("/v1/uploads")
			r.closedLoop(r.count(ingestPerSecond), func(i int) { r.upload(up, time.Time{}, ingestWarmup+i) })
			return nil
		},
		check: func(*run) {},
	},
	{
		name:    "stream",
		primary: "/v1/rounds",
		route:   "/v1/rounds",
		warmup: func(r *run) error {
			rec := newRecorder("/v1/rounds")
			for n := 0; n < streamWarmup; n++ {
				if err := r.push(rec, n); err != nil {
					return err
				}
			}
			return nil
		},
		measure: measureStream,
		check:   checkStream,
	},
	{
		name:           "trace",
		primary:        "/v1/trace",
		route:          "/v1/trace",
		preloadRecords: true,
		warmup: func(r *run) error {
			r.closedLoop(traceWarmup, func(i int) { r.traceJob(newRecorder("/v1/trace"), r.fx.traceSet(r.cfg.seed, i)) })
			return nil
		},
		measure: func(r *run) error {
			tr := r.recorder("/v1/trace")
			r.served = make([][]byte, r.count(tracePerSecond))
			r.closedLoop(len(r.served), func(i int) {
				r.served[i], _ = r.traceJob(tr, r.fx.traceSet(r.cfg.seed, traceWarmup+i))
			})
			return nil
		},
		check: checkTrace,
	},
	{
		name:           "live",
		primary:        "dashboard",
		route:          "/v1/trace", // the trace dominates a refresh
		preloadRecords: true,
		preloadRounds:  2,
		warmup: func(r *run) error {
			r.dashboardCycle(newRecorder("dashboard"), newRecorder("/v1/predict"), newRecorder("/v1/scores"), newRecorder("/v1/trace"))
			return nil
		},
		measure: measureLive,
		check: func(r *run) {
			n := r.mismatches.Load()
			r.addCheck("predict scores equal nn.Binarized.ScoreBatchFloat32", n == 0,
				fmt.Sprintf("%d of %d batches differ", n, r.recorder("/v1/predict").count()))
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// run is one execution of a workload against one server.
type run struct {
	ctx   context.Context
	cfg   *config
	fx    *fixture
	w     *workload
	hc    *http.Client
	srv   *server
	cl    *client
	spans *spanLog

	recMu sync.Mutex
	recs  []*recorder // measured-phase recorders, in creation order

	acked      atomic.Int64 // training records the server acknowledged
	mismatches atomic.Int64 // predict responses that differ from the reference
	served     [][]byte     // trace workload: every served trace-result frame
	scores     []byte       // stream workload: the final scores frame
	checks     []check
	notes      []string
}

type check struct {
	name   string
	ok     bool
	detail string
}

func (r *run) addCheck(name string, ok bool, detail string) {
	r.checks = append(r.checks, check{name, ok, detail})
}

// count is a workload's fixed op count for this run's -seconds.
func (r *run) count(perSecond float64) int {
	return max(1, int(math.Round(perSecond*r.cfg.seconds)))
}

// recorder returns the measured-phase recorder of route, creating it.
func (r *run) recorder(route string) *recorder {
	r.recMu.Lock()
	defer r.recMu.Unlock()
	for _, rec := range r.recs {
		if rec.route == route {
			return rec
		}
	}
	rec := newRecorder(route)
	r.recs = append(r.recs, rec)
	return rec
}

// clients is the number of client goroutines, and of HTTP connections: one
// per core of the 2-core host the benchmark is sized for.
const clients = 2

// closedLoop runs ops 0..n-1 on two client goroutines, each sending its next
// request only after the previous one completed.
func (r *run) closedLoop(n int, op func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r.ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				op(i)
			}
		}()
	}
	wg.Wait()
}

// upload sends fixture frame i (cycled) as one POST /v1/uploads.
func (r *run) upload(rec *recorder, due time.Time, i int) {
	k := i % len(r.fx.frames)
	q := request{method: http.MethodPost, path: "/v1/uploads", ctype: ctFrame, body: r.fx.frames[k]}
	if _, err := r.cl.timed(r.ctx, rec, due, q); err == nil {
		r.acked.Add(int64(r.fx.frameRecs[k]))
	}
}

// push sends the round-n update.
func (r *run) push(rec *recorder, n int) error {
	body, err := r.fx.roundUpdate(n)
	if err != nil {
		return err
	}
	_, err = r.cl.timed(r.ctx, rec, time.Time{}, request{method: http.MethodPost, path: "/v1/rounds", ctype: ctFrame, body: body})
	return err
}

// traceJob submits one test set and waits for the binary trace result.
func (r *run) traceJob(rec *recorder, body []byte) ([]byte, error) {
	return r.cl.timed(r.ctx, rec, time.Time{}, request{
		method: http.MethodPost, path: "/v1/trace?wait=60s", ctype: ctCSV, accept: ctFrame, body: body,
		valid: parseTraceFrame,
	})
}

func parseTraceFrame(b []byte) error {
	f, rest, err := protocol.ParseFrame(b)
	if err != nil {
		return fmt.Errorf("trace result: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("trace result: %d trailing bytes", len(rest))
	}
	_, err = protocol.ParseTraceResult(f)
	return err
}

func measureStream(r *run) error {
	n := r.count(streamPerSecond)
	push, poll, lag := r.recorder("/v1/rounds"), r.recorder("/v1/scores"), r.recorder("score_lag")
	sent := make([]atomic.Int64, n) // when the push of measured round i was sent
	var wg sync.WaitGroup
	var pushErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n && r.ctx.Err() == nil; i++ {
			sent[i].Store(time.Now().UnixNano())
			if err := r.push(push, streamWarmup+i); err != nil {
				pushErr = err // rounds must land in order: stop at the first failure
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n && r.ctx.Err() == nil; i++ {
			want := streamWarmup + i + 1 // the high-water once round streamWarmup+i is applied
			_, err := r.cl.timed(r.ctx, poll, time.Time{}, request{
				method: http.MethodGet, path: fmt.Sprintf("/v1/scores?round=%d&wait=30s", want), accept: ctFrame,
				valid: func(b []byte) error {
					snap, err := parseScores(b)
					if err == nil && snap.Rounds < want {
						err = fmt.Errorf("long-poll returned round %d, want %d", snap.Rounds, want)
					}
					return err
				},
			})
			got := time.Now()
			sentAt := time.Unix(0, sent[i].Load())
			lag.add(sentAt, sentAt, got, 0, err)
			if err != nil {
				return
			}
		}
	}()
	wg.Wait()
	return pushErr
}

func parseScores(b []byte) (*protocol.ScoresSnapshot, error) {
	f, _, err := protocol.ParseFrame(b)
	if err != nil {
		return nil, err
	}
	return protocol.ParseScoresSnapshot(f)
}

// checkStream compares the served final scores with an in-process
// rounds.Engine configured as the server is and fed the same rounds.
func checkStream(r *run) {
	const name = "final /v1/scores equals an in-process rounds.Engine"
	resp, err := r.cl.do(r.ctx, http.MethodGet, "/v1/scores", "", ctFrame, nil)
	if err != nil {
		r.addCheck(name, false, err.Error())
		return
	}
	r.scores = resp
	pushed := streamWarmup + r.recorder("/v1/rounds").count()
	eng, err := r.fx.roundsEngine()
	for n := 0; n < pushed && err == nil; n++ {
		err = applyRound(eng, r.fx, n)
	}
	if err != nil {
		r.addCheck(name, false, err.Error())
		return
	}
	snap := eng.Snapshot()
	want := protocol.AppendScoresSnapshot(nil, &snap)
	r.addCheck(name, bytes.Equal(resp, want), fmt.Sprintf("%d rounds, %d skipped", snap.Rounds, snap.Skipped))
}

// roundsEngine is a rounds.Engine configured as ctflsrv configures its own
// with serverFlags, over the fixture's eval set.
func (fx *fixture) roundsEngine() (*rounds.Engine, error) {
	test, err := dataset.ReadCSV(bytes.NewReader(fx.evalCSV), fx.enc.Schema(), csvOptions(fx.enc))
	if err != nil {
		return nil, err
	}
	x, y := fx.enc.EncodeTable(test)
	return rounds.New(rounds.Config{Model: fx.model, EvalX: x, EvalY: y, Permutations: roundPerms, Seed: roundSeed, Epsilon: -1})
}

func applyRound(eng *rounds.Engine, fx *fixture, n int) error {
	body, err := fx.roundUpdate(n)
	if err != nil {
		return err
	}
	f, _, err := protocol.ParseFrame(body)
	if err != nil {
		return err
	}
	u, err := protocol.ParseRoundUpdate(f)
	if err != nil {
		return err
	}
	out, err := eng.Compute(u)
	if err != nil {
		return err
	}
	return eng.Apply(out)
}

// checkTrace compares every served trace result with an in-process trace
// over the same uploads and test set, on both cores.
func checkTrace(r *run) {
	const name = "every trace result equals in-process core.NewTracerFromUploads(...).Trace"
	tracer, err := r.fx.tracer()
	if err != nil {
		r.addCheck(name, false, err.Error())
		return
	}
	var mu sync.Mutex
	var bad []int
	r.closedLoop(len(r.served), func(i int) {
		want, err := traceFrame(r.fx, tracer, r.fx.traceSet(r.cfg.seed, traceWarmup+i))
		if err != nil || !bytes.Equal(r.served[i], want) {
			mu.Lock()
			bad = append(bad, i)
			mu.Unlock()
		}
	})
	r.addCheck(name, len(bad) == 0, fmt.Sprintf("%d of %d differ %v", len(bad), len(r.served), bad[:min(len(bad), 5)]))
}

// uploads decodes the preloaded frames as the server holds them.
func (fx *fixture) uploads() ([]core.TrainingUpload, error) {
	var ups []core.TrainingUpload
	for _, f := range fx.frames {
		var err error
		if ups, _, err = protocol.AppendTrainingRecords(ups, f); err != nil {
			return nil, err
		}
	}
	return ups, nil
}

// tracer indexes the preloaded uploads with the server's trace parameters
// (tau 0.9, delta 2: the /v1/trace defaults).
func (fx *fixture) tracer() (*core.Tracer, error) {
	ups, err := fx.uploads()
	if err != nil {
		return nil, err
	}
	return core.NewTracerFromUploads(fx.rs, participants, ups, core.Config{TauW: 0.9, Delta: 2}), nil
}

// traceFrame traces one CSV body and encodes the result as the server's
// trace job does.
func traceFrame(fx *fixture, tr *core.Tracer, body []byte) ([]byte, error) {
	test, err := dataset.ReadCSV(bytes.NewReader(body), fx.enc.Schema(), csvOptions(fx.enc))
	if err != nil {
		return nil, err
	}
	return protocol.AppendTraceResult(nil, traceResult(tr.Trace(test))), nil
}

func traceResult(res *core.Result) *protocol.TraceResult {
	sus := res.Suspicion(0.5)
	return &protocol.TraceResult{
		Accuracy:     res.Accuracy(),
		CoverageGap:  res.CoverageGap(),
		Micro:        res.MicroScores(),
		Macro:        res.MacroScores(),
		LossRatio:    sus.Ratio,
		UselessRatio: res.UselessRatio(),
		Suspects:     sus.Suspects,
	}
}

// dashboardCycle is one refresh of the live reader's dashboard: every
// predict batch, one scores read and one trace of the fixed dashboard test
// set. The refresh is timed as a whole into cycle; it fails when any of its
// requests does.
func (r *run) dashboardCycle(cycle, pred, scores, trace *recorder) {
	start := time.Now()
	var errs []error
	for b := range r.fx.predictBody {
		errs = append(errs, r.predict(pred, b))
	}
	_, err := r.cl.timed(r.ctx, scores, time.Time{}, request{method: http.MethodGet, path: "/v1/scores", accept: ctFrame,
		valid: func(b []byte) error { _, err := parseScores(b); return err }})
	errs = append(errs, err)
	_, err = r.traceJob(trace, r.fx.dashboard)
	cycle.add(start, start, time.Now(), 0, errors.Join(append(errs, err)...))
}

func (r *run) predict(rec *recorder, b int) error {
	resp, err := r.cl.timed(r.ctx, rec, time.Time{}, request{
		method: http.MethodPost, path: "/v1/predict", ctype: ctFrame, accept: ctFrame, body: r.fx.predictBody[b],
	})
	if err != nil {
		return err
	}
	f, _, err := protocol.ParseFrame(resp)
	var got []float64
	if err == nil {
		got, err = protocol.ParsePredictResponse(f, nil)
	}
	if err != nil || !sameBits(got, r.fx.predictWant[b]) {
		r.mismatches.Add(1)
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func measureLive(r *run) error {
	n := r.count(liveUploadRate)
	up := r.recorder("/v1/uploads")
	cycle := r.recorder("dashboard")
	pred, scores, trace := r.recorder("/v1/predict"), r.recorder("/v1/scores"), r.recorder("/v1/trace")
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		start := time.Now()
		for i := 0; i < n && r.ctx.Err() == nil; i++ {
			due := start.Add(time.Duration(i) * time.Second / liveUploadRate)
			time.Sleep(time.Until(due))
			r.upload(up, due, i)
		}
	}()
	go func() {
		defer wg.Done()
		for !done.Load() && r.ctx.Err() == nil {
			r.dashboardCycle(cycle, pred, scores, trace)
		}
	}()
	wg.Wait()
	return nil
}

// healthz reads the server's /healthz state.
func (r *run) healthz() (map[string]any, error) {
	b, err := r.cl.do(r.ctx, http.MethodGet, "/healthz", "", "", nil)
	if err != nil {
		return nil, err
	}
	var h map[string]any
	return h, json.Unmarshal(b, &h)
}
