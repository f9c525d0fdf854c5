package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/protocol"
	"repro/internal/rules"
	"repro/internal/stats"
)

// benchServer publishes the fixture's encoder and model into a fresh Server
// (no persistence, no network — requests go straight through ServeHTTP).
func benchServer(b *testing.B, fx *federationFixture) *Server {
	b.Helper()
	s, err := NewWithOptions(Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		b.Fatal(err)
	}
	for _, req := range []struct {
		path, ct string
		body     []byte
	}{
		{"/v1/encoder", "application/json", fx.encoderJSON},
		{"/v1/model", "application/octet-stream", fx.modelBytes},
	} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body)))
		if w.Code != http.StatusNoContent {
			b.Fatalf("%s: status %d: %s", req.path, w.Code, w.Body)
		}
	}
	return s
}

// BenchmarkServerPredict measures /v1/predict end to end through ServeHTTP,
// binary wire format against the JSON fallback, one 32-row batch per op.
func BenchmarkServerPredict(b *testing.B) {
	fx := buildFederation(b)
	s := benchServer(b, fx)

	var enc dataset.Encoder
	if err := json.Unmarshal(fx.encoderJSON, &enc); err != nil {
		b.Fatal(err)
	}
	tab := dataset.TicTacToe()
	const batch = 32
	var rows32 []float32
	var rows64 [][]float64
	for i := 0; i < batch; i++ {
		x := enc.Encode(tab.Instances[i], nil)
		rows64 = append(rows64, x)
		for _, v := range x {
			rows32 = append(rows32, float32(v))
		}
	}
	frame, err := protocol.AppendPredictRequest(nil, enc.Width(), rows32)
	if err != nil {
		b.Fatal(err)
	}
	jsonBody, err := json.Marshal(map[string]any{"rows": rows64})
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, ct, accept string, body []byte) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		rd := bytes.NewReader(body)
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", rd)
			req.Header.Set("Content-Type", ct)
			if accept != "" {
				req.Header.Set("Accept", accept)
			}
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body)
			}
		}
	}
	b.Run("codec=binary", func(b *testing.B) {
		run(b, protocol.ContentTypeFrame, protocol.ContentTypeFrame, frame)
	})
	b.Run("codec=json", func(b *testing.B) {
		run(b, "application/json", "", jsonBody)
	})
}

// adultTraceServer trains a bench-scale model on synthetic adult rows and
// returns a server preloaded with its encoder, model and 8,000 training
// uploads over 8 participants, plus 160 distinct 1,000-row CSV test sets:
// more than the job cache holds, so cycling them never hits it.
func adultTraceServer(b *testing.B) (*Server, [][]byte) {
	b.Helper()
	r := stats.NewRNG(7)
	tab := dataset.Adult(r, 10000)
	train, pool := tab.Subset(seqIdx(0, 8000)), tab.Subset(seqIdx(8000, 10000))
	enc, err := dataset.NewEncoder(tab.Schema, 8, r)
	if err != nil {
		b.Fatal(err)
	}
	xs, ys := enc.EncodeTable(train.Subset(seqIdx(0, 2000)))
	m, err := nn.New(enc.Width(), nn.Config{Hidden: []int{64}, Grafting: true, Seed: 2, L1Logic: 2e-4, L2Head: 1e-3})
	if err != nil {
		b.Fatal(err)
	}
	m.TrainEpochs(xs, ys, 4)
	rs := rules.Extract(m, enc)
	var frames bytes.Buffer
	for pi, p := range fl.PartitionSkewSample(train, 8, 1.0, r) {
		acts, _ := rs.ActivationsTable(p.Data)
		up := &protocol.Upload{Participant: pi, RuleWidth: rs.Width()}
		for i, a := range acts {
			up.Records = append(up.Records, protocol.Record{Label: p.Data.Instances[i].Label, Activations: a})
		}
		if err := up.Write(&frames); err != nil {
			b.Fatal(err)
		}
	}
	encJSON, err := json.Marshal(enc)
	if err != nil {
		b.Fatal(err)
	}
	var model bytes.Buffer
	if _, err := m.WriteTo(&model); err != nil {
		b.Fatal(err)
	}
	s := benchServer(b, &federationFixture{encoderJSON: encJSON, modelBytes: model.Bytes()})
	req := httptest.NewRequest(http.MethodPost, "/v1/uploads", bytes.NewReader(frames.Bytes()))
	req.Header.Set("Content-Type", protocol.ContentTypeFrame)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("uploads: status %d: %s", w.Code, w.Body)
	}
	bodies := make([][]byte, 160)
	for k := range bodies {
		idx := make([]int, 1000)
		for i := range idx {
			idx[i] = r.Intn(pool.Len())
		}
		var csv bytes.Buffer
		if err := dataset.WriteCSV(&csv, pool.Subset(idx)); err != nil {
			b.Fatal(err)
		}
		bodies[k] = csv.Bytes()
	}
	return s, bodies
}

func seqIdx(lo, hi int) []int {
	idx := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		idx = append(idx, i)
	}
	return idx
}

// BenchmarkServerTrace measures /v1/trace end to end through ServeHTTP:
// one op parses a fresh 1,000-row CSV test set, traces it over the
// preloaded index as a job, waits for it and writes the binary result.
func BenchmarkServerTrace(b *testing.B) {
	s, bodies := adultTraceServer(b)
	defer s.Close(context.Background())
	b.SetBytes(int64(len(bodies[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/trace?wait=60s", bytes.NewReader(bodies[i%len(bodies)]))
		req.Header.Set("Content-Type", "text/csv")
		req.Header.Set("Accept", protocol.ContentTypeFrame)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
}

// BenchmarkServerUploadIngest measures /v1/uploads end to end: one op posts
// the full federation's activation frames. Reposting the model every 64 ops
// resets accumulated upload state without counting against the measurement.
// The first upload into a fresh index builds its pattern groups, so one is
// posted untimed after each reset and before the timer starts: every timed
// op then appends to existing groups, and allocs/op does not depend on b.N.
func BenchmarkServerUploadIngest(b *testing.B) {
	fx := buildFederation(b)
	s := benchServer(b, fx)

	b.SetBytes(int64(len(fx.frames)))
	b.ReportAllocs()
	rd := bytes.NewReader(fx.frames)
	upload := func() {
		rd.Reset(fx.frames)
		req := httptest.NewRequest(http.MethodPost, "/v1/uploads", rd)
		req.Header.Set("Content-Type", protocol.ContentTypeFrame)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	upload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 && i > 0 {
			b.StopTimer()
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/model", bytes.NewReader(fx.modelBytes)))
			if w.Code != http.StatusNoContent {
				b.Fatalf("model reset: status %d", w.Code)
			}
			upload()
			b.StartTimer()
		}
		upload()
	}
}
