package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/protocol"
	"repro/internal/rules"
)

// splitFrames cuts a batch body into its upload frames.
func splitFrames(t *testing.T, body []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for rest := body; len(rest) > 0; {
		info, err := protocol.ValidateUploadFrame(rest)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, rest[:info.FrameLen])
		rest = rest[info.FrameLen:]
	}
	return frames
}

// traceFrameAt traces csv on the server and returns the binary trace-result
// frame.
func traceFrameAt(t *testing.T, ts *httptest.Server, csv []byte) []byte {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/trace?tau=0.9&delta=2&wait=60s", bytes.NewReader(csv))
	req.Header.Set("Content-Type", "text/csv")
	req.Header.Set("Accept", protocol.ContentTypeFrame)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != protocol.ContentTypeFrame {
		t.Fatalf("trace status %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestTraceFollowsUploadedPrefix interleaves traces with uploads that extend
// the server's tracing index: every trace must byte-equal a fresh
// in-process trace over exactly the uploads the state held when it was
// submitted.
func TestTraceFollowsUploadedPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	var enc dataset.Encoder
	if err := json.Unmarshal(fx.encoderJSON, &enc); err != nil {
		t.Fatal(err)
	}
	m, err := nn.ReadModel(bytes.NewReader(fx.modelBytes))
	if err != nil {
		t.Fatal(err)
	}
	rs := rules.Extract(m, &enc)
	test, err := dataset.ReadCSV(bytes.NewReader(fx.testCSV), enc.Schema(), dataset.CSVOptions{
		HasHeader: true, PositiveLabel: enc.Schema().Labels[1], TrimSpace: true, ClampContinuous: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(New())
	defer ts.Close()
	if resp := post(t, ts, "/v1/encoder", "application/json", fx.encoderJSON); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("encoder status %d", resp.StatusCode)
	}
	if resp := post(t, ts, "/v1/model", "application/octet-stream", fx.modelBytes); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("model status %d", resp.StatusCode)
	}

	frames := splitFrames(t, fx.frames)
	// Participant 0 alone, then everyone, then participant 0's records a
	// second time: every existing pattern group grows.
	var held []core.TrainingUpload
	parts := 0
	for step, batch := range [][][]byte{frames[:1], frames[1:], frames[:1]} {
		for _, f := range batch {
			if resp := post(t, ts, "/v1/uploads", "application/octet-stream", f); resp.StatusCode != http.StatusOK {
				t.Fatalf("step %d: upload status %d", step, resp.StatusCode)
			}
			var info protocol.UploadFrameInfo
			if held, info, err = protocol.AppendTrainingRecords(held, f); err != nil {
				t.Fatal(err)
			}
			parts = max(parts, info.Participant+1)
		}
		got := traceFrameAt(t, ts, fx.testCSV)
		res := core.NewTracerFromUploads(rs, parts, held, core.Config{TauW: 0.9, Delta: 2}).Trace(test)
		if want := protocol.AppendTraceResult(nil, traceResponse(res)); !bytes.Equal(got, want) {
			t.Fatalf("step %d (%d records): served trace differs from an in-process trace", step, len(held))
		}
	}
}

// TestUploadRejectsOutOfRangeParticipant: a participant id past
// protocol.MaxRoundParticipants would size every trace's owner histograms
// by it. The frame must be refused before any WAL append, leaving the
// federation traceable.
func TestUploadRejectsOutOfRangeParticipant(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	s := newDurable(t, t.TempDir())
	defer closeServer(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	publishAll(t, ts, fx)

	// A valid 1-record frame with its participant id patched to 1<<30 and
	// its CRC recomputed.
	first := splitFrames(t, fx.frames)[0]
	bad := append([]byte(nil), first...)
	width := binary.LittleEndian.Uint32(bad[14:18])
	recBytes := 1 + (int(width)+7)/8
	bad = bad[:22+recBytes]
	binary.LittleEndian.PutUint32(bad[6:10], uint32(12+recBytes))
	binary.LittleEndian.PutUint32(bad[10:14], 1<<30)
	binary.LittleEndian.PutUint32(bad[18:22], 1)
	bad = binary.LittleEndian.AppendUint32(bad, crc32.ChecksumIEEE(bad))

	before := healthState(t, ts)["uploads"]
	walBefore := s.store.WALSize()
	resp := post(t, ts, "/v1/uploads", "application/octet-stream", bad)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range participant upload: status %d, want 400", resp.StatusCode)
	}
	if after := healthState(t, ts)["uploads"]; after != before {
		t.Fatalf("rejected upload changed the record count: %v -> %v", before, after)
	}
	if w := s.store.WALSize(); w != walBefore {
		t.Fatalf("rejected upload reached the WAL: %d -> %d bytes", walBefore, w)
	}
	traceFrameAt(t, ts, fx.testCSV)
}
