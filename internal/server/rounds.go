package server

// The streaming-valuation endpoints: POST /v1/rounds ingests either the
// held-out evaluation set (text/csv — registers/resets the round-stream
// engine) or one round-update frame (application/x-ctfl — scores the round
// incrementally), and GET /v1/scores serves the live contribution scores
// (JSON, or a binary v2 scores-snapshot frame for Accept: application/x-ctfl;
// ?round=N&wait=D long-polls until N rounds have been ingested).
//
// Durability follows the WAL-before-apply rule every other mutation obeys:
// the evaluation set persists as store.EventRoundEval (the raw CSV), each
// ingested round as store.EventRound (the engine's Outcome payload). Replay
// rebuilds the engine from the CSV and re-applies outcome payloads — pure
// score arithmetic, zero coalition re-evaluation — so a restarted server
// resumes the stream bit-identically.
//
// Locking: s.roundsMu serializes round ingest end to end (compute → persist
// → apply), keeping exactly one round in flight; the expensive Compute runs
// outside s.mu, which is only taken for the persist+apply tail. Lock order
// is always roundsMu → s.mu → engine.mu, and reads take s.mu → engine.mu —
// no cycle with compaction (which walks the engine under s.mu).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/dataset"
	"repro/internal/flight"
	"repro/internal/protocol"
	"repro/internal/rounds"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// RoundResponse answers POST /v1/rounds for one ingested round-update.
type RoundResponse struct {
	Round int `json:"round"`
	// Skipped marks a round cut by between-round truncation.
	Skipped bool `json:"skipped"`
	// GlobalUtility is the reconstructed grand-coalition accuracy.
	GlobalUtility float64 `json:"global_utility"`
	Participants  int     `json:"participants"`
	// Evals is the coalition reconstructions this round cost (1 when
	// skipped).
	Evals int `json:"evals"`
}

// ScoresResponse is the JSON shape of GET /v1/scores: the wire snapshot
// plus engine counters.
type ScoresResponse struct {
	protocol.ScoresSnapshot
	Participants int `json:"participants"`
	// Evals counts coalition reconstructions since this process started
	// (0 right after a WAL restore — resume recomputes nothing).
	Evals          int `json:"evals"`
	TruncatedWalks int `json:"truncated_walks"`
	// Gated flags participants currently excluded from aggregation by the
	// contribution gate, aligned with Scores. Omitted when gating is off.
	Gated []bool `json:"gated,omitempty"`
}

// applyRoundEval installs a fresh round-stream engine over the parsed
// evaluation set. Caller holds the write lock (or exclusive replay access).
func (s *Server) applyRoundEval(test *dataset.Table, raw []byte) {
	evalX, evalY := s.st.enc.EncodeTable(test)
	eng, err := rounds.New(rounds.Config{
		Model:        s.st.model,
		EvalX:        evalX,
		EvalY:        evalY,
		Epsilon:      s.opts.RoundEpsilon,
		Permutations: s.opts.RoundPermutations,
		Seed:         s.opts.RoundSeed,
		Workers:      s.opts.RoundWorkers,
		Obs:          s.roundsObs,
		Gate:         s.opts.RoundGate,
	})
	if err != nil {
		// Construction only fails on an empty eval set or a missing model,
		// both checked by every caller before persisting.
		panic(fmt.Sprintf("server: round engine construction: %v", err))
	}
	s.st.rounds = eng
	s.st.evalRaw = raw
	s.st.version++
}

// parseRoundEval validates the evaluation-set CSV against the published
// encoder's schema, mirroring the trace handler's parse.
func parseRoundEval(enc *dataset.Encoder, body []byte) (*dataset.Table, error) {
	test, err := dataset.ReadCSV(bytes.NewReader(body), enc.Schema(), dataset.CSVOptions{
		HasHeader:       true,
		PositiveLabel:   enc.Schema().Labels[1],
		TrimSpace:       true,
		ClampContinuous: true,
	})
	if err != nil {
		return nil, err
	}
	if test.Len() == 0 {
		return nil, errors.New("empty evaluation set")
	}
	return test, nil
}

func (s *Server) handleRounds(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.injectFault(w, r) {
		return
	}
	ct, err := requireContentType(r, "text/csv", protocol.ContentTypeFrame, "application/octet-stream")
	if err != nil {
		httpError(w, http.StatusUnsupportedMediaType, err)
		return
	}
	if ct == "text/csv" {
		s.handleRoundEval(w, r)
		return
	}
	s.handleRoundUpdate(w, r)
}

// handleRoundEval registers (or replaces) the streaming evaluation set,
// resetting the score stream.
func (s *Server) handleRoundEval(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	enc, model := s.st.enc, s.st.model
	s.mu.RUnlock()
	if enc == nil || model == nil {
		httpError(w, http.StatusConflict, errors.New("publish encoder and model first"))
		return
	}
	body, err := s.readBody(w, r)
	if err != nil {
		httpError(w, maxBytesCode(err, http.StatusBadRequest), err)
		return
	}
	test, err := parseRoundEval(enc, body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st.enc != enc || s.st.model != model {
		// Identity of the encoder and model the eval set was parsed
		// against is what matters; uploads landing meanwhile are fine.
		httpError(w, http.StatusConflict, errors.New("federation state changed during registration; resubmit"))
		return
	}
	if err := s.persistLocked(store.Event{Type: store.EventRoundEval, Payload: body}); err != nil {
		s.unavailable(w, err)
		return
	}
	s.applyRoundEval(test, body)
	s.maybeCompactLocked()
	writeJSON(w, http.StatusOK, map[string]int{
		"rows":         test.Len(),
		"param_count":  s.st.rounds.ParamCount(),
		"rounds_reset": 1,
	})
}

// handleRoundUpdate scores one round-update frame and commits its outcome.
func (s *Server) handleRoundUpdate(w http.ResponseWriter, r *http.Request) {
	body, err := s.readBody(w, r)
	if err != nil {
		httpError(w, maxBytesCode(err, http.StatusBadRequest), err)
		return
	}
	// One CRC check and one structural walk: ParseRoundUpdate validates
	// everything ValidateRoundUpdateFrame does.
	f, rest, err := protocol.ParseFrame(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(rest) != 0 {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("%d trailing bytes after round-update frame", len(rest)))
		return
	}
	u, err := protocol.ParseRoundUpdate(f)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}

	s.mu.RLock()
	eng := s.st.rounds
	s.mu.RUnlock()
	if eng == nil {
		httpError(w, http.StatusConflict, errors.New("register an evaluation set first (POST /v1/rounds, text/csv)"))
		return
	}
	if u.ParamCount != eng.ParamCount() {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("round update carries %d params, model has %d", u.ParamCount, eng.ParamCount()))
		return
	}

	// Each ingest attempt is one KindRound flight event: which round, how
	// long the scoring took, and — when it failed — which stage broke.
	t0 := time.Now()
	roundEvent := func(outcome flight.Outcome, round int, errMsg string) {
		s.flightRec.Record(flight.Event{
			Kind:       flight.KindRound,
			Outcome:    outcome,
			Route:      "rounds.ingest",
			RequestID:  telemetry.RequestIDFrom(r.Context()),
			DurationNs: time.Since(t0).Nanoseconds(),
			BytesIn:    int64(len(body)),
			Aux:        int64(round),
			Degraded:   s.degradedGauge.Value() != 0,
			Err:        errMsg,
		})
	}

	// Serialize the whole ingest: exactly one round moves from compute to
	// commit at a time, so Compute's basis always matches at Apply.
	s.roundsMu.Lock()
	defer s.roundsMu.Unlock()
	out, err := eng.Compute(u)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, rounds.ErrStaleRound) {
			code = http.StatusConflict
		}
		roundEvent(flight.OutcomeError, u.Round, "compute: "+err.Error())
		httpError(w, code, err)
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st.rounds != eng {
		// The engine object is replaced on every re-registration and
		// republish, so identity alone detects a superseded stream;
		// concurrent uploads advance the version but keep the engine.
		roundEvent(flight.OutcomeRejected, out.Round, "federation state changed during round ingest")
		httpError(w, http.StatusConflict, errors.New("federation state changed during round ingest; resubmit"))
		return
	}
	if err := s.persistLocked(store.Event{Type: store.EventRound, Payload: out.Payload()}); err != nil {
		roundEvent(flight.OutcomeError, out.Round, "persist: "+err.Error())
		s.unavailable(w, err)
		return
	}
	if err := eng.Apply(out); err != nil {
		roundEvent(flight.OutcomeError, out.Round, "apply: "+err.Error())
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.maybeCompactLocked()
	// Gate transitions this outcome triggered become KindGate flight
	// events: exclusions as rejections, readmissions as OKs; both carry
	// the rendered transition so they pin in the tail ring.
	for _, ev := range eng.GateEvents() {
		if ev.Round != out.Round {
			continue
		}
		outcome := flight.OutcomeOK
		if ev.Gated {
			outcome = flight.OutcomeRejected
		}
		s.flightRec.Record(flight.Event{
			Kind:      flight.KindGate,
			Outcome:   outcome,
			Route:     "rounds.gate",
			RequestID: telemetry.RequestIDFrom(r.Context()),
			Aux:       int64(ev.Round),
			Degraded:  s.degradedGauge.Value() != 0,
			Err:       ev.String(),
		})
	}
	roundEvent(flight.OutcomeOK, out.Round, "")
	writeJSON(w, http.StatusOK, RoundResponse{
		Round:         out.Round,
		Skipped:       out.Skipped,
		GlobalUtility: out.VFull,
		Participants:  u.Count,
		Evals:         out.Evals,
	})
}

func (s *Server) handleScores(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	minRound, err := queryInt(r, "round", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var wait time.Duration
	if wv := r.URL.Query().Get("wait"); wv != "" {
		if wait, err = time.ParseDuration(wv); err != nil || wait < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("query wait: %q is not a duration", wv))
			return
		}
	}
	s.mu.RLock()
	eng := s.st.rounds
	s.mu.RUnlock()
	if eng == nil {
		httpError(w, http.StatusConflict, errors.New("register an evaluation set first (POST /v1/rounds, text/csv)"))
		return
	}
	if wait > 0 && minRound > 0 {
		// Long-poll until the stream reaches the requested round; a timeout
		// still answers with the current snapshot (the poller's decision).
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		_ = eng.Wait(ctx, minRound)
		cancel()
	}
	s.roundsObs.Staleness.Set(eng.Staleness().Seconds())
	snap := eng.Snapshot()
	if acceptsFrame(r) {
		frame := protocol.AppendScoresSnapshot(nil, &snap)
		w.Header().Set("Content-Type", protocol.ContentTypeFrame)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(frame)
		return
	}
	resp := ScoresResponse{
		ScoresSnapshot: snap,
		Participants:   len(snap.Scores),
		Evals:          eng.Evals(),
		TruncatedWalks: eng.TruncatedWalks(),
	}
	if s.opts.RoundGate != nil {
		resp.Gated = eng.Gated()
	}
	writeJSON(w, http.StatusOK, resp)
}
