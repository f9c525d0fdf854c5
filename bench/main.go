// Command bench is the repository's end-to-end benchmark. It builds the real
// cmd/ctflsrv, spawns it per workload with its durable fsync-per-append WAL
// on a fresh data dir, drives one of four fixed-work workloads from this
// process with two client goroutines over at most two HTTP connections,
// checks every served output against an in-process reference, and prints
// each metric by name with its unit. The last line of standard output is a
// JSON summary. See README.md.
//
// Run it from the repository root through its wrapper, which keeps every
// build and run artifact inside the checkout:
//
//	bash bench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

type config struct {
	repo    string // repository root: holds cmd/ctflsrv and BENCHMARK.json
	srvBin  string // the built ctflsrv
	work    string // data dirs and scratch, removed on exit
	outDir  string // span files
	seed    int64
	seconds float64
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample count, percentile or source
}

// result is what one pass of one workload measured.
type result struct {
	w         *workload
	e2e       []metric // the BENCHMARK.json end-to-end metrics
	routes    []metric // per-route latency and throughput, by route name
	layers    []metric // per-layer metrics (traced pass only)
	notes     []string
	checks    []check
	attempted int
	failed    int
}

func (res *result) correct() bool {
	for _, c := range res.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// passTimeout bounds one pass of one workload; it guards against a hung
// server, not a slow one.
const passTimeout = 150 * time.Second

func main() {
	name := flag.String("workload", "all", "ingest, stream, trace, live, or all")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "sizes each workload's fixed work to about this many seconds of load")
	trace := flag.Int("trace", 0, "1: also run each workload traced and print its per-layer metrics")
	repeat := flag.Int("repeat", 0, "calibration: run each workload N times on seeds seed..seed+N-1 and write the bounds to BENCHMARK.json")
	repo := flag.String("repo", ".", "repository root")
	flag.Parse()

	var selected []*workload
	for _, n := range strings.Split(*name, ",") {
		if n == "all" {
			selected = append(selected, workloads...)
		} else if w := workloadByName(n); w != nil {
			selected = append(selected, w)
		} else {
			fatalf("unknown workload %q", n)
		}
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace takes 0 or 1")
	}
	root, err := filepath.Abs(*repo)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := &config{
		repo:    root,
		srvBin:  filepath.Join(root, ".bench_build", "bin", "ctflsrv"),
		work:    filepath.Join(root, ".bench_build", fmt.Sprintf("work-%d", os.Getpid())),
		outDir:  filepath.Join(root, "bench", "out"),
		seed:    *seed,
		seconds: *seconds,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := 1
	defer func() { os.Exit(code) }()
	defer os.RemoveAll(cfg.work)

	if err := buildServer(cfg.repo, cfg.srvBin); err != nil {
		logf("%v", err)
		return
	}
	if *repeat > 0 {
		if err := calibrate(ctx, cfg, selected, *repeat); err != nil {
			logf("calibrate: %v", err)
			return
		}
		code = 0
		return
	}
	ok, err := runSelected(ctx, cfg, selected, *trace == 1)
	if err != nil {
		logf("%v", err)
		return
	}
	if ok {
		code = 0
	}
}

// runSelected runs each workload once (and traced, when asked) and prints
// the metrics, ending with the JSON summary line.
func runSelected(ctx context.Context, cfg *config, selected []*workload, traced bool) (bool, error) {
	fx, err := buildFixture(cfg.seed)
	if err != nil {
		return false, fmt.Errorf("fixture: %w", err)
	}
	summary := map[string]any{}
	correct, attempted, failed := true, 0, 0
	for _, w := range selected {
		res, err := runWorkload(ctx, cfg, fx, w, false)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		report(res, res.e2e)
		correct = correct && res.correct()
		attempted, failed = attempted+res.attempted, failed+res.failed
		shown := res.e2e
		if traced {
			tres, err := runWorkload(ctx, cfg, fx, w, true)
			if err != nil {
				return false, fmt.Errorf("%s traced: %w", w.name, err)
			}
			report(tres, tres.layers)
			for _, m := range tres.e2e {
				for _, u := range res.e2e {
					if u.name == m.name {
						fmt.Printf("%-7s overhead %-30s %+14.4f %s (traced %.4f - untraced %.4f)\n",
							w.name, m.name, m.value-u.value, m.unit, m.value, u.value)
					}
				}
			}
			correct = correct && tres.correct()
			attempted, failed = attempted+tres.attempted, failed+tres.failed
			shown = tres.layers
		}
		for _, m := range shown {
			key := m.name
			if len(selected) > 1 {
				key = w.name + "." + m.name
			}
			summary[key] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": summary,
	})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return correct, nil
}

// report prints a pass's checks, metrics and notes as aligned lines.
func report(res *result, main []metric) {
	for _, c := range res.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
		}
		fmt.Printf("%-7s check  %-4s %s (%s)\n", res.w.name, status, c.name, c.detail)
	}
	for _, group := range [][]metric{main, res.routes} {
		for _, m := range group {
			fmt.Printf("%-7s metric %-34s %14.4f %-5s %s\n", res.w.name, m.name, m.value, m.unit, m.note)
		}
	}
	for _, n := range res.notes {
		fmt.Printf("%-7s note   %s\n", res.w.name, n)
	}
	fmt.Printf("%-7s ops    attempted %d, failed %d\n", res.w.name, res.attempted, res.failed)
}

// runWorkload runs one pass: set-ups, warmup, the measured phase, output
// checks, kill -9 and recovery, and for a traced pass the layer replay.
func runWorkload(ctx context.Context, cfg *config, fx *fixture, w *workload, traced bool) (*result, error) {
	ctx, cancel := context.WithTimeout(ctx, passTimeout)
	defer cancel()
	r := &run{ctx: ctx, cfg: cfg, fx: fx, w: w, hc: newHTTPClient()}
	defer r.hc.CloseIdleConnections()
	if traced {
		r.spans = newSpanLog()
	}
	dir := filepath.Join(cfg.work, w.name)
	defer os.RemoveAll(dir)
	defer func() { r.srv.kill() }() // r.srv is replaced by the recovery restart

	probe := startProbe()
	defer probe.stopAndWait()
	phase := time.Now()
	lap := func(name string) {
		logf("%s: %s %.1f s", w.name, name, time.Since(phase).Seconds())
		phase = time.Now()
	}
	// Set-up is repeated and its median reported: a single start-up is too
	// short to time steadily. The last set-up's server runs the workload.
	var setups []window
	for i := 0; i < setupRuns; i++ {
		r.srv.kill()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		win, err := r.setup(dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, win)
	}
	lap("set-ups")
	if err := w.warmup(r); err != nil {
		return nil, fmt.Errorf("warmup: %w", err)
	}
	lap("warmup")

	before, err := r.srv.scrape(ctx, r.hc)
	if err != nil {
		return nil, err
	}
	cpu0, err := r.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	load0 := selfCPU()
	start := time.Now()
	if err := w.measure(r); err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	measured := window{start, time.Now()}
	loadCPU := selfCPU() - load0
	cpu1, err := r.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	after, err := r.srv.scrape(ctx, r.hc)
	if err != nil {
		return nil, err
	}
	hwm, err := r.srv.procStatusKB("VmHWM")
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	lap("measured phase")
	w.check(r)
	lap("checks")

	restarts, recovered, err := r.recover()
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	r.srv.kill()
	lap("recovery")
	probe.stopAndWait()

	res := &result{w: w}
	for _, rec := range r.recs {
		if !strings.HasPrefix(rec.route, "/") {
			continue // a derived series (score lag, dashboard refresh), not requests
		}
		res.attempted += rec.count()
		res.failed += rec.failed
		if rec.firstErr != nil {
			res.notes = append(res.notes, fmt.Sprintf("%s: %d failed, first: %v", rec.route, rec.failed, rec.firstErr))
		}
	}
	res.e2e, res.routes = endToEnd(r, probe, setups, restarts, hwm/1024, measured)
	res.checks, res.notes = r.checks, append(res.notes, r.notes...)
	if !traced {
		return res, nil
	}

	scratch := filepath.Join(cfg.work, "replay-"+w.name)
	defer os.RemoveAll(scratch)
	if err := replay(fx, r.spans, scratch, dir); err != nil {
		return nil, err
	}
	lap("layer replay")
	var writes, wbytes float64
	for _, rec := range r.recs {
		if rec.route == "/v1/uploads" || rec.route == "/v1/rounds" {
			writes += float64(rec.count() - rec.failed)
			wbytes += float64(rec.bodyBytes)
		}
	}
	spans := r.spans.all()
	var notes []string
	res.layers, notes = layerMetrics(layerInput{
		w: w, recs: r.recs, before: before, after: after, recovered: recovered,
		serverCPU: cpu1 - cpu0, loadCPU: loadCPU, slow: probe.slowdown(measured.from, measured.to), attempted: res.attempted,
		writes: writes, wbytes: wbytes, spans: summarize(spans),
	})
	res.notes = append(res.notes, notes...)
	path, err := r.spans.write(cfg.outDir, w.name, cfg.seed)
	if err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("spans: %d written to %s", len(spans), path))
	return res, nil
}

// window is one timed interval.
type window struct{ from, to time.Time }

func (w window) seconds() float64 { return w.to.Sub(w.from).Seconds() }

// setup starts a server on a fresh dir and brings it to the workload's
// initial state, returning the interval from exec until that state is ready.
func (r *run) setup(dir string) (window, error) {
	start := time.Now()
	srv, err := startServer(r.cfg.srvBin, dir, "")
	if err != nil {
		return window{}, err
	}
	r.srv = srv
	r.cl = &client{hc: r.hc, base: "http://" + srv.addr, spans: r.spans}
	if err := srv.waitHealthy(r.hc, 30*time.Second); err != nil {
		return window{}, err
	}
	type post struct {
		path, ctype string
		body        []byte
	}
	steps := []post{
		{"/v1/encoder", ctJSON, r.fx.encJSON},
		{"/v1/model", ctOctet, r.fx.modelBin},
		{"/v1/rounds", ctCSV, r.fx.evalCSV},
	}
	if r.w.preloadRecords {
		for _, b := range r.fx.preload {
			steps = append(steps, post{"/v1/uploads", ctFrame, b})
		}
	}
	for _, s := range steps {
		if _, err := r.cl.do(r.ctx, "POST", s.path, s.ctype, "", s.body); err != nil {
			return window{}, err
		}
	}
	for n := 0; n < r.w.preloadRounds; n++ {
		body, err := r.fx.roundUpdate(n)
		if err != nil {
			return window{}, err
		}
		if _, err := r.cl.do(r.ctx, "POST", "/v1/rounds", ctFrame, "", body); err != nil {
			return window{}, err
		}
	}
	win := window{start, time.Now()}
	r.acked.Store(0)
	if r.w.preloadRecords {
		r.acked.Store(int64(r.fx.records))
	}
	return win, nil
}

// recover kills the server with SIGKILL and restarts it on the same data
// dir recoverRuns times, timing each restart until /healthz answers. It
// checks that every acknowledged record, and the stream's scores, survived.
func (r *run) recover() ([]window, map[string]float64, error) {
	var restarts []window
	for i := 0; i < recoverRuns; i++ {
		r.srv.kill()
		r.hc.CloseIdleConnections()
		start := time.Now()
		srv, err := startServer(r.cfg.srvBin, r.srv.dir, r.srv.addr)
		if err != nil {
			return nil, nil, err
		}
		r.srv = srv
		if err := srv.waitHealthy(r.hc, 60*time.Second); err != nil {
			return nil, nil, err
		}
		restarts = append(restarts, window{start, time.Now()})
	}
	h, err := r.healthz()
	if err != nil {
		return nil, nil, err
	}
	got, _ := h["uploads"].(float64)
	r.addCheck("acknowledged records survive kill -9", int64(got) == r.acked.Load(),
		fmt.Sprintf("healthz uploads %d, acknowledged %d", int64(got), r.acked.Load()))
	if r.scores != nil {
		b, err := r.cl.do(r.ctx, "GET", "/v1/scores", "", ctFrame, nil)
		r.addCheck("scores after restart equal scores before kill -9", err == nil && bytes.Equal(b, r.scores), fmt.Sprint(err))
	}
	m, err := r.srv.scrape(r.ctx, r.hc)
	return restarts, m, err
}

// routeAlias names each recorder in the per-route metrics.
var routeAlias = map[string]string{
	"/v1/uploads": "upload", "/v1/rounds": "round", "/v1/trace": "trace",
	"/v1/predict": "predict", "/v1/scores": "scores", "score_lag": "score_lag",
	"dashboard": "dashboard",
}

// endToEnd computes the workload's end-to-end metrics and the raw
// per-route throughput and latency lines. Each end-to-end timing is divided
// by how much slower than the reference the probe found the host while it
// was taken (see speedProbe); rates are multiplied by it.
func endToEnd(r *run, probe *speedProbe, setups, restarts []window, rssMB float64, measured window) (e2e, routes []metric) {
	elapsed := measured.seconds()
	for _, rec := range r.recs {
		s := rec.sorted()
		alias := routeAlias[rec.route]
		ok := rec.count() - rec.failed
		if rec.route != "score_lag" && rec.route != "/v1/scores" && rec.route != "dashboard" {
			routes = append(routes, metric{alias + "_rps", float64(ok) / elapsed, "1/s", fmt.Sprintf("raw, n=%d", ok)})
		}
		for _, q := range []float64{0.50, 0.99} {
			name := fmt.Sprintf("%s_p%02.0f_ms", alias, q*100)
			if v, ok := quantile(s, q); ok && !math.IsInf(v, 1) {
				routes = append(routes, metric{name, v, "ms", fmt.Sprintf("raw, n=%d", len(s))})
			} else {
				r.notes = append(r.notes, fmt.Sprintf("%s not reported: %d samples leave fewer than %d beyond it", name, len(s), minBeyond))
			}
		}
	}
	// median of the windows' durations, raw and scaled.
	median := func(ws []window) (raw, scaled float64) {
		var rs, ss []float64
		for _, w := range ws {
			rs = append(rs, w.seconds())
			ss = append(ss, w.seconds()/probe.slowdown(w.from, w.to))
		}
		_, raw, _ = quartiles(rs)
		_, scaled, _ = quartiles(ss)
		return raw, scaled
	}
	rawSetup, setup := median(setups)
	rawRecover, recoverS := median(restarts)
	// Restarts of a few milliseconds vary by a fifth from run to run even
	// scaled, too much for a bound, so recovery time is printed, not judged.
	routes = append(routes, metric{"recover_s", recoverS, "s",
		fmt.Sprintf("kill -9 to /healthz, median of %d; raw %.4f", len(restarts), rawRecover)})
	prim := r.recorder(r.w.primary)
	raw, s := prim.sorted(), prim.scaledSorted(probe)
	n := fmt.Sprintf("%s n=%d", r.w.primary, len(s))
	slow := probe.slowdown(measured.from, measured.to)
	rawOps := float64(len(s)-prim.failed) / elapsed
	e2e = []metric{
		{"setup_s", setup, "s", fmt.Sprintf("median of %d set-ups; raw %.4f", len(setups), rawSetup)},
		{"peak_rss_mb", rssMB, "MB", "server VmHWM"},
		{"ops_per_s", rawOps * slow, "1/s", fmt.Sprintf("%s; raw %.4f, host slowdown %.2f", n, rawOps, slow)},
	}
	// A percentile is reported only with minBeyond samples beyond it, and
	// only when it is finite: failed requests sort last as +Inf.
	percentile := func(name string, q, v float64, ok bool) {
		if !ok || math.IsInf(v, 1) {
			r.notes = append(r.notes, fmt.Sprintf("%s not reported: %d samples, %d failed", name, len(s), prim.failed))
			return
		}
		rawV, _ := quantile(raw, q)
		e2e = append(e2e, metric{name, v, "ms", fmt.Sprintf("p%g, %s; raw %.4f", q*100, n, rawV)})
	}
	p50, ok := quantile(s, 0.5)
	percentile("p50_ms", 0.5, p50, ok)
	q, v, ok := tail(s)
	percentile("tail_ms", q, v, ok)
	return e2e, routes
}

// selfCPU is this process's user+system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...) }

func fatalf(format string, args ...any) {
	logf(format, args...)
	os.Exit(2)
}
