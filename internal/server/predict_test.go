package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/protocol"
)

// predictFixture publishes the federation's encoder and model and returns
// the local references the tests compare against.
func predictFixture(t *testing.T, ts *httptest.Server, fx *federationFixture) (*dataset.Encoder, *nn.Binarized) {
	t.Helper()
	if resp := post(t, ts, "/v1/encoder", "application/json", fx.encoderJSON); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("encoder status %d", resp.StatusCode)
	}
	if resp := post(t, ts, "/v1/model", "application/octet-stream", fx.modelBytes); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("model status %d", resp.StatusCode)
	}
	var enc dataset.Encoder
	if err := json.Unmarshal(fx.encoderJSON, &enc); err != nil {
		t.Fatal(err)
	}
	m, err := nn.ReadModel(bytes.NewReader(fx.modelBytes))
	if err != nil {
		t.Fatal(err)
	}
	return &enc, m.Binarize()
}

// encodeRows encodes the first n test instances into row-major float32 wire
// values plus the local float64 reference rows.
func encodeRows(t *testing.T, enc *dataset.Encoder, n int) (rows []float32, ref [][]float64) {
	t.Helper()
	tab := dataset.TicTacToe()
	if n > len(tab.Instances) {
		n = len(tab.Instances)
	}
	for i := 0; i < n; i++ {
		x := enc.Encode(tab.Instances[i], nil)
		ref = append(ref, x)
		for _, v := range x {
			rows = append(rows, float32(v))
		}
	}
	return rows, ref
}

// localScores scores wire rows in process, on the snapshot the server
// serves.
func localScores(t *testing.T, bin *nn.Binarized, rows []float32) []float64 {
	t.Helper()
	scores := make([]float64, len(rows)/bin.InDim())
	if err := bin.ScoreBatchFloat32(rows, scores); err != nil {
		t.Fatal(err)
	}
	return scores
}

func TestPredictBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	ts := httptest.NewServer(New())
	defer ts.Close()
	enc, bin := predictFixture(t, ts, fx)
	rows, ref := encodeRows(t, enc, 7)

	frame, err := protocol.AppendPredictRequest(nil, enc.Width(), rows)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", protocol.ContentTypeFrame)
	req.Header.Set("Accept", protocol.ContentTypeFrame)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != protocol.ContentTypeFrame {
		t.Fatalf("response Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	f, rest, err := protocol.ParseFrame(body)
	if err != nil || len(rest) != 0 {
		t.Fatalf("response frame: %v, %d trailing", err, len(rest))
	}
	scores, err := protocol.ParsePredictResponse(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != len(ref) {
		t.Fatalf("%d scores for %d rows", len(scores), len(ref))
	}
	want := localScores(t, bin, rows)
	for i := range ref {
		if scores[i] != want[i] {
			t.Fatalf("row %d: served %v, local %v", i, scores[i], want[i])
		}
	}
}

func TestPredictJSONAndNegotiation(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	ts := httptest.NewServer(New())
	defer ts.Close()
	enc, bin := predictFixture(t, ts, fx)
	rows, ref := encodeRows(t, enc, 3)
	want := localScores(t, bin, rows)

	payload, err := json.Marshal(map[string]any{"rows": ref})
	if err != nil {
		t.Fatal(err)
	}
	// JSON in, JSON out (no Accept header).
	resp := post(t, ts, "/v1/predict", "application/json", payload)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	var out struct {
		Rows   int       `json:"rows"`
		Scores []float64 `json:"scores"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Rows != len(ref) || len(out.Scores) != len(ref) {
		t.Fatalf("response %+v", out)
	}
	for i := range ref {
		if out.Scores[i] != want[i] {
			t.Fatalf("row %d: served %v, local %v", i, out.Scores[i], want[i])
		}
	}

	// JSON in, binary out: Accept negotiates the response independently of
	// the request encoding.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", bytes.NewReader(payload))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", protocol.ContentTypeFrame)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != protocol.ContentTypeFrame {
		t.Fatalf("negotiated Content-Type %q", ct)
	}
	body, _ := io.ReadAll(resp2.Body)
	f, _, err := protocol.ParseFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := protocol.ParsePredictResponse(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scores {
		if scores[i] != out.Scores[i] {
			t.Fatal("binary and JSON responses disagree")
		}
	}
}

func TestPredictErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	ts := httptest.NewServer(New())
	defer ts.Close()

	// Before the model is published: 409.
	frame, err := protocol.AppendPredictRequest(nil, 4, []float32{1, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if resp := post(t, ts, "/v1/predict", protocol.ContentTypeFrame, frame); resp.StatusCode != http.StatusConflict {
		t.Fatalf("predict before model: status %d", resp.StatusCode)
	}

	enc, _ := predictFixture(t, ts, fx)

	// Unsupported request media type: 415.
	if resp := post(t, ts, "/v1/predict", "text/plain", frame); resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("bad content type: status %d", resp.StatusCode)
	}
	// Wrong width: 400.
	if resp := post(t, ts, "/v1/predict", protocol.ContentTypeFrame, frame); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong width: status %d", resp.StatusCode)
	}
	// Non-binary feature values: 400.
	bad := make([]float32, enc.Width())
	bad[0] = 0.5
	badFrame, err := protocol.AppendPredictRequest(nil, enc.Width(), bad)
	if err != nil {
		t.Fatal(err)
	}
	if resp := post(t, ts, "/v1/predict", protocol.ContentTypeFrame, badFrame); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-binary values: status %d", resp.StatusCode)
	}
	// Garbage frame: 400.
	if resp := post(t, ts, "/v1/predict", protocol.ContentTypeFrame, []byte("CTFLxxxx")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage frame: status %d", resp.StatusCode)
	}
	// GET: 405.
	resp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict: status %d", resp.StatusCode)
	}
}

func TestUploadAndModelContentTypeEnforced(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	if resp := post(t, ts, "/v1/uploads", "text/plain", []byte("x")); resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("uploads bad content type: status %d", resp.StatusCode)
	}
	if resp := post(t, ts, "/v1/model", "application/json", []byte("{}")); resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("model bad content type: status %d", resp.StatusCode)
	}
}

func TestClientPredict(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	ts := httptest.NewServer(New())
	defer ts.Close()
	enc, bin := predictFixture(t, ts, fx)
	rows, ref := encodeRows(t, enc, 5)

	cl := &Client{BaseURL: ts.URL}
	scores, err := cl.Predict(context.Background(), enc.Width(), rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != len(ref) {
		t.Fatalf("%d scores for %d rows", len(scores), len(ref))
	}
	want := localScores(t, bin, rows)
	for i := range ref {
		if scores[i] != want[i] {
			t.Fatalf("row %d: client %v, local %v", i, scores[i], want[i])
		}
	}
}

// TestTraceBinaryResultMatchesJSON drives the full lifecycle and asserts the
// binary trace-result frame carries exactly the JSON result.
func TestTraceBinaryResultMatchesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	ts := httptest.NewServer(New())
	defer ts.Close()
	predictFixture(t, ts, fx)
	if resp := post(t, ts, "/v1/uploads", protocol.ContentTypeFrame, fx.frames); resp.StatusCode != http.StatusOK {
		t.Fatalf("uploads status %d", resp.StatusCode)
	}

	resp := post(t, ts, "/v1/trace?tau=0.9&delta=2&wait=60s", "text/csv", fx.testCSV)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	var env TraceJobResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if env.Result == nil {
		t.Fatalf("trace job %+v", env)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/trace/"+env.ID, nil)
	req.Header.Set("Accept", protocol.ContentTypeFrame)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("binary poll status %d", resp2.StatusCode)
	}
	if ct := resp2.Header.Get("Content-Type"); ct != protocol.ContentTypeFrame {
		t.Fatalf("binary poll Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	f, rest, err := protocol.ParseFrame(body)
	if err != nil || len(rest) != 0 {
		t.Fatalf("trace frame: %v, %d trailing", err, len(rest))
	}
	tr, err := protocol.ParseTraceResult(f)
	if err != nil {
		t.Fatal(err)
	}
	if !traceResultsEqual(tr, env.Result) {
		t.Fatalf("binary result %+v != JSON result %+v", tr, env.Result)
	}

	// The typed client negotiates the same binary frames end to end.
	cl := &Client{BaseURL: ts.URL}
	got, err := cl.TraceJob(context.Background(), env.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result == nil || !traceResultsEqual(got.Result, env.Result) {
		t.Fatalf("client binary poll %+v", got)
	}
}

func traceResultsEqual(a, b *protocol.TraceResult) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if a.Accuracy != b.Accuracy || a.CoverageGap != b.CoverageGap ||
		!eq(a.Micro, b.Micro) || !eq(a.Macro, b.Macro) ||
		!eq(a.LossRatio, b.LossRatio) || !eq(a.UselessRatio, b.UselessRatio) ||
		len(a.Suspects) != len(b.Suspects) {
		return false
	}
	for i := range a.Suspects {
		if a.Suspects[i] != b.Suspects[i] {
			return false
		}
	}
	return true
}
