package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/protocol"
	"repro/internal/rounds"
	"repro/internal/store"
)

// Layer-replay sample sizes: fixed calls into each layer's public functions
// on the fixture, timed as spans after the measured phase.
const (
	replayUploads  = 256
	replayRounds   = fedsimRounds // one cycle of the stream's distinct updates
	replayTraces   = 3
	replayPredicts = 256
)

// routeLayers lists the replayed layer spans that serve each route; the
// server's route mean minus their sum is the route's self time.
var routeLayers = map[string][]string{
	"/v1/uploads": {"protocol.validate_upload", "protocol.decode_upload", "store.append"},
	"/v1/rounds":  {"protocol.round_frame", "rounds.compute", "store.append", "rounds.apply"},
	"/v1/trace":   {"dataset.read_csv", "core.index_build", "core.trace", "protocol.trace_result_encode"},
	"/v1/predict": {"protocol.predict_codec", "nn.score_batch"},
}

// replay times each layer in-process under one parent span per replayed
// request, then opens and compacts a copy of the run's final data dir.
func replay(fx *fixture, spans *spanLog, scratch, finalDir string) error {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	quiet := func(string, ...any) {}
	st, _, err := store.Open(filepath.Join(scratch, "append"), store.Options{Sync: true, Logf: quiet})
	if err != nil {
		return err
	}
	defer st.Close()
	var errs []error
	keep := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	request := func(route string, f func(parent int64)) {
		id, start := spans.reserve(), time.Now()
		f(id)
		spans.add(span{ID: id, Name: "replay " + route}, start, time.Now())
	}

	var dst []core.TrainingUpload
	for i := 0; i < replayUploads; i++ {
		frame := fx.frames[i%len(fx.frames)]
		request("/v1/uploads", func(p int64) {
			spans.do("protocol.validate_upload", p, func() { _, err := protocol.ValidateUploadFrame(frame); keep(err) })
			spans.do("protocol.decode_upload", p, func() {
				var err error
				dst, _, err = protocol.AppendTrainingRecords(dst[:0], frame)
				keep(err)
			})
			spans.do("store.append", p, func() { keep(st.AppendBatch([]store.Event{{Type: store.EventUpload, Payload: frame}})) })
		})
	}

	eng, err := fx.roundsEngine()
	if err != nil {
		return err
	}
	for n := 0; n < replayRounds; n++ {
		body, err := fx.roundUpdate(n)
		if err != nil {
			return err
		}
		request("/v1/rounds", func(p int64) {
			var u protocol.RoundUpdate
			spans.do("protocol.round_frame", p, func() {
				_, err := protocol.ValidateRoundUpdateFrame(body)
				keep(err)
				f, _, err := protocol.ParseFrame(body)
				keep(err)
				u, err = protocol.ParseRoundUpdate(f)
				keep(err)
			})
			var out *rounds.Outcome
			spans.do("rounds.compute", p, func() {
				var err error
				out, err = eng.Compute(u)
				keep(err)
			})
			if out == nil {
				return
			}
			spans.do("store.append", p, func() { keep(st.AppendBatch([]store.Event{{Type: store.EventRound, Payload: out.Payload()}})) })
			spans.do("rounds.apply", p, func() { keep(eng.Apply(out)) })
		})
	}

	ups, err := fx.uploads()
	if err != nil {
		return err
	}
	for k := 0; k < replayTraces; k++ {
		body := fx.traceSet(-1, k)
		request("/v1/trace", func(p int64) {
			var test *dataset.Table
			spans.do("dataset.read_csv", p, func() {
				var err error
				test, err = dataset.ReadCSV(bytes.NewReader(body), fx.enc.Schema(), csvOptions(fx.enc))
				keep(err)
			})
			clone := make([]core.TrainingUpload, len(ups)) // the server clones too; it stays in self time
			for i, u := range ups {
				clone[i] = core.TrainingUpload{Owner: u.Owner, Label: u.Label, Activations: u.Activations.Clone()}
			}
			var tr *core.Tracer
			spans.do("core.index_build", p, func() {
				tr = core.NewTracerFromUploads(fx.rs, participants, clone, core.Config{TauW: 0.9, Delta: 2})
			})
			var res *core.Result
			spans.do("core.trace", p, func() { res = tr.Trace(test) })
			spans.do("protocol.trace_result_encode", p, func() { _ = protocol.AppendTraceResult(nil, traceResult(res)) })
		})
	}

	var rows []float32
	scores := make([]float64, predictRows)
	var out []byte
	for i := 0; i < replayPredicts; i++ {
		body := fx.predictBody[i%len(fx.predictBody)]
		request("/v1/predict", func(p int64) {
			spans.do("protocol.predict_codec", p, func() {
				f, _, err := protocol.ParseFrame(body)
				keep(err)
				req, err := protocol.ParsePredictRequest(f)
				keep(err)
				rows = req.AppendRows(rows[:0])
				out = protocol.AppendPredictResponse(out[:0], scores)
			})
			spans.do("nn.score_batch", p, func() { fx.bin.ScoreBatchFloat32(rows, scores) })
		})
	}

	// Recovery's store layer on a copy of the run's final data dir.
	cp := filepath.Join(scratch, "open")
	if err := copyDir(finalDir, cp); err != nil {
		return err
	}
	var opened *store.Store
	var events []store.Event
	spans.do("store.open", 0, func() {
		opened, events, err = store.Open(cp, store.Options{Sync: true, Logf: quiet})
	})
	if err != nil {
		return err
	}
	defer opened.Close()
	spans.do("store.compact", 0, func() { keep(opened.Compact(events)) })
	if len(errs) > 0 {
		return fmt.Errorf("layer replay: %w", errs[0])
	}
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// layerInput is what a traced run measured, for the per-layer table.
type layerInput struct {
	w              *workload
	recs           []*recorder
	before, after  map[string]float64 // /metrics around the measured phase
	recovered      map[string]float64 // /metrics of the restarted server
	serverCPU      float64            // server CPU seconds in the measured phase
	loadCPU        float64            // this process's CPU seconds in the measured phase
	slow           float64            // the speed probe's slowdown over the measured phase
	attempted      int
	writes, wbytes float64 // acknowledged write requests and their body bytes
	spans          map[string]spanStat
}

// layerMetrics derives the per-layer metrics and the accounting notes. A
// count whose denominator is zero on a workload (no rounds on ingest, no
// writes on trace) reads 0; a metric whose /metrics family the server does
// not export is dropped, not failed.
func layerMetrics(in layerInput) (metrics []metric, notes []string) {
	var missing bool
	d := func(series string) float64 {
		v, ok := delta(in.before, in.after, series)
		missing = missing || !ok
		return v
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	mean := func(name string) float64 { return in.spans[name].MeanMs }
	layerSum := func(route string) float64 {
		s := 0.0
		for _, l := range routeLayers[route] {
			s += mean(l)
		}
		return s
	}
	add := func(name, unit, note string, f func() float64) {
		missing = false
		if v := f(); !missing {
			metrics = append(metrics, metric{name: name, value: v, unit: unit, note: note})
		} else {
			notes = append(notes, name+" dropped: the server does not export its /metrics family")
		}
	}

	// Accounting per route the workload sent: both sides count the same
	// requests, the client sees at least the server's time, and the
	// replayed layers fit inside the server's time with 5% slack.
	type routeCost struct{ server, net, self float64 }
	costs := map[string]routeCost{}
	for _, rec := range in.recs {
		if !strings.HasPrefix(rec.route, "/") {
			continue
		}
		missing = false
		n := d(fmt.Sprintf("ctfl_http_request_seconds_count{route=%q}", rec.route))
		srv := ratio(d(fmt.Sprintf("ctfl_http_request_seconds_sum{route=%q}", rec.route))*1e3, n)
		if missing {
			notes = append(notes, "account "+rec.route+" dropped: no ctfl_http_request_seconds family")
			continue
		}
		client, layers := rec.mean(), layerSum(rec.route)
		c := routeCost{server: srv, net: client - srv, self: srv - layers}
		costs[rec.route] = c
		var flags []string
		if int(n) != rec.count() {
			flags = append(flags, fmt.Sprintf("server counted %d requests, client sent %d", int(n), rec.count()))
		}
		if c.net < 0 {
			flags = append(flags, "client mean below server mean")
		}
		if layers > srv*1.05 {
			flags = append(flags, "replayed layers exceed the server mean by more than 5%")
		}
		status := "ok"
		if len(flags) > 0 {
			status = "FLAG: " + strings.Join(flags, "; ")
		}
		notes = append(notes, fmt.Sprintf("account %s: client %.4f ms = net %.4f + server %.4f; server = layers %.4f + self %.4f: %s",
			rec.route, client, c.net, srv, layers, c.self, status))
	}
	missing = false
	if n := d("ctfl_jobs_run_seconds_count"); n > 0 && !missing {
		notes = append(notes, fmt.Sprintf("jobs.wait_mean_ms %.4f, jobs.run_mean_ms %.4f over %d jobs",
			d("ctfl_jobs_wait_seconds_sum")*1e3/n, d("ctfl_jobs_run_seconds_sum")*1e3/n, int(n)))
	}
	for _, rec := range in.recs {
		if rec.route == "/v1/uploads" && in.w.name == "live" {
			s := append([]float64(nil), rec.lateness...)
			sort.Float64s(s)
			if v, ok := quantile(s, 0.99); ok {
				notes = append(notes, fmt.Sprintf("load.lateness_p99_ms %.4f over %d scheduled uploads", v, len(s)))
			}
		}
	}

	if prim, ok := costs[in.w.route]; ok {
		add("server.route_mean_ms", "ms", in.w.route, func() float64 { return prim.server })
		add("net.overhead_ms", "ms", in.w.route, func() float64 { return prim.net })
		add("server.self_ms", "ms", in.w.route, func() float64 { return prim.self })
	}
	for _, l := range []struct{ name, span, unit string }{
		{"protocol.validate_upload_us", "protocol.validate_upload", "us"},
		{"protocol.decode_upload_us", "protocol.decode_upload", "us"},
		{"protocol.round_frame_us", "protocol.round_frame", "us"},
		{"protocol.predict_codec_us", "protocol.predict_codec", "us"},
		{"protocol.trace_result_encode_us", "protocol.trace_result_encode", "us"},
		{"store.append_us", "store.append", "us"},
		{"store.open_ms", "store.open", "ms"},
		{"store.compact_ms", "store.compact", "ms"},
		{"rounds.compute_ms", "rounds.compute", "ms"},
		{"rounds.apply_us", "rounds.apply", "us"},
		{"dataset.read_csv_ms", "dataset.read_csv", "ms"},
		{"core.index_build_ms", "core.index_build", "ms"},
		{"core.trace_ms", "core.trace", "ms"},
		{"nn.score_batch_us", "nn.score_batch", "us"},
	} {
		scale := 1.0
		if l.unit == "us" {
			scale = 1e3
		}
		add(l.name, l.unit, fmt.Sprintf("replay, n=%d", in.spans[l.span].Count), func() float64 { return mean(l.span) * scale })
	}
	ops := float64(in.attempted)
	add("store.appends_per_write", "count", "", func() float64 { return ratio(d("ctfl_store_append_seconds_count"), in.writes) })
	add("store.wal_bytes_per_user_byte", "ratio", "", func() float64 { return ratio(d("ctfl_store_append_bytes_sum"), in.wbytes) })
	add("store.compactions", "count", "", func() float64 { return d("ctfl_store_compactions_total") })
	add("store.replay_events", "count", "", func() float64 {
		v, ok := in.recovered["ctfl_store_replay_events_total"]
		missing = !ok
		return v
	})
	add("rounds.evals_per_round", "count", "", func() float64 {
		return ratio(d("ctfl_rounds_evals_total"), d("ctfl_rounds_ingested_total"))
	})
	add("jobs.cache_hit_ratio", "ratio", "", func() float64 {
		return ratio(d("ctfl_jobs_cache_hits_total"), d("ctfl_jobs_cache_lookups_total"))
	})
	add("core.dedup_hits_per_trace", "count", "", func() float64 {
		return ratio(d("ctfl_tracer_pattern_dedup_hits_total"), d("ctfl_tracer_trace_seconds_count"))
	})
	add("process.cpu_ms_per_op", "ms", "server CPU per request", func() float64 { return ratio(in.serverCPU*1e3, ops) })
	add("process.gc_cycles_per_kop", "count", "", func() float64 { return ratio(d("ctfl_process_gc_cycles_total")*1e3, ops) })
	add("process.gc_pause_ms", "ms", "", func() float64 { return d("ctfl_process_gc_pause_seconds_total") * 1e3 })
	add("load.cpu_s", "s", "benchmark client CPU", func() float64 { return in.loadCPU })
	add("host.slowdown", "ratio", "speed probe over the measured phase", func() float64 { return in.slow })
	return metrics, notes
}
