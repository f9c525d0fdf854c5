package server

// POST /v1/predict — the compiled-inference serving path. The published
// model's nn.Binarized snapshot (compiled once per model publish) scores
// batches of encoded {0,1} feature rows. The endpoint's native format is
// the binary v2 predict frame; JSON is negotiable on both sides:
//
//	request   Content-Type application/x-ctfl (or absent) → binary frame
//	          Content-Type application/json → {"rows": [[0,1,...], ...]}
//	response  Accept containing application/x-ctfl → binary frame
//	          otherwise → {"rows": n, "scores": [...]}
//
// The handler is allocation-lean: request body, decoded rows, scores, and
// the response frame all come from a pooled scratch set, and scoring runs
// through the evaluator's own pooled buffers — steady state, the only
// per-request allocations are net/http's.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/protocol"
)

// predictScratch is one request's reusable buffer set.
type predictScratch struct {
	body   []byte
	rows   []float32
	scores []float64
	out    []byte
}

var predictPool = sync.Pool{New: func() any { return new(predictScratch) }}

// appendAll reads r to EOF into dst, reusing dst's capacity and pre-growing
// to sizeHint (when positive) so a known Content-Length reads in one pass.
func appendAll(dst []byte, r io.Reader, sizeHint int64) ([]byte, error) {
	if sizeHint > int64(cap(dst)) {
		grown := make([]byte, len(dst), sizeHint)
		copy(grown, dst)
		dst = grown
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.injectFault(w, r) {
		return
	}
	ct, err := requireContentType(r, protocol.ContentTypeFrame, "application/json")
	if err != nil {
		httpError(w, http.StatusUnsupportedMediaType, err)
		return
	}

	s.mu.RLock()
	bin := s.st.bin
	s.mu.RUnlock()
	if bin == nil {
		httpError(w, http.StatusConflict, errors.New("publish encoder and model first"))
		return
	}
	width := bin.InDim()

	sc := predictPool.Get().(*predictScratch)
	defer predictPool.Put(sc)

	hint := min(r.ContentLength, s.opts.MaxBodyBytes)
	body, err := appendAll(sc.body[:0], http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes), hint)
	sc.body = body
	if err != nil {
		httpError(w, maxBytesCode(err, http.StatusBadRequest), err)
		return
	}

	rows := sc.rows[:0]
	if ct == "application/json" {
		var in struct {
			Rows [][]float64 `json:"rows"`
		}
		if err := json.Unmarshal(body, &in); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		for i, row := range in.Rows {
			if len(row) != width {
				httpError(w, http.StatusBadRequest,
					fmt.Errorf("row %d has %d features, model takes %d", i, len(row), width))
				return
			}
			for _, v := range row {
				rows = append(rows, float32(v))
			}
		}
	} else {
		f, rest, err := protocol.ParseFrame(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if len(rest) != 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("%d trailing bytes after predict frame", len(rest)))
			return
		}
		req, err := protocol.ParsePredictRequest(f)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if req.Width != width {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("predict width %d, model takes %d", req.Width, width))
			return
		}
		rows = req.AppendRows(rows)
	}
	sc.rows = rows
	for i, v := range rows {
		if v != 0 && v != 1 {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("feature value %g at offset %d: inputs must be the encoder's {0,1} predicates", v, i))
			return
		}
	}

	n := len(rows) / width
	scores := sc.scores
	if cap(scores) < n {
		scores = make([]float64, n)
	}
	scores = scores[:n]
	sc.scores = scores
	bin.ScoreBatchFloat32(rows, scores)
	s.predictRows.Add(int64(n))

	if acceptsFrame(r) {
		out := protocol.AppendPredictResponse(sc.out[:0], scores)
		sc.out = out
		w.Header().Set("Content-Type", protocol.ContentTypeFrame)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(out)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"rows": n, "scores": scores})
}
