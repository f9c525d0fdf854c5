package server

// The write path. Every change to the federation state is one durable
// event, and handlers, boot replay and follower replication all make it
// through prepare and then apply, so replay equals live by construction.
// Handlers prepare off-lock against a snapshot of the state and commit
// under s.mu; replay and the follower prepare against the live state.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/protocol"
	"repro/internal/rounds"
	"repro/internal/rules"
	"repro/internal/store"
)

// change is one prepared event. val is what prepare decoded from the
// payload (*dataset.Encoder, *nn.Model or an eval set's *dataset.Table), or
// the *rounds.Outcome the round handler computed; nil leaves the payload to
// apply; an upload frame's validation result is upload, so apply does not
// walk the frame again. basis is the part of the state it was validated
// against.
type change struct {
	ev     store.Event
	val    any
	upload protocol.UploadFrameInfo
	basis  any
}

// basisOf returns the part of st a change of type t is validated against.
// Each is replaced wholesale, never edited, so identity tells whether it
// changed; uploads landing meanwhile advance the version but keep it.
func (st *state) basisOf(t byte) any {
	switch t {
	case store.EventModel:
		return st.enc
	case store.EventUpload:
		return st.rs
	case store.EventRoundEval:
		return st.model
	case store.EventRound:
		return st.rounds
	}
	return nil
}

// statusError is a refused write and the HTTP status that answers it.
type statusError struct {
	code int
	error
}

func badRequest(err error) error { return &statusError{http.StatusBadRequest, err} }

func conflict(err error) error { return &statusError{http.StatusConflict, err} }

// prepare decodes ev and validates it against st, which it only reads: 400
// for an undecodable or mismatched payload, 409 for a missing prerequisite,
// as a *statusError. An upload payload prepares into one change per frame,
// each aliasing the payload. A round's payload is its computed outcome, so
// the round handler prepares the round empty and fills it in.
func (st *state) prepare(ev store.Event) ([]change, error) {
	c := change{ev: ev, basis: st.basisOf(ev.Type)}
	switch ev.Type {
	case store.EventEncoder:
		enc := new(dataset.Encoder)
		if err := json.Unmarshal(ev.Payload, enc); err != nil {
			return nil, badRequest(err)
		}
		c.val = enc
	case store.EventModel:
		m, err := nn.ReadModel(bytes.NewReader(ev.Payload))
		if err != nil {
			return nil, badRequest(err)
		}
		if st.enc == nil {
			return nil, conflict(errors.New("publish the encoder first"))
		}
		if m.InDim() != st.enc.Width() {
			return nil, badRequest(fmt.Errorf("model input width %d, encoder produces %d", m.InDim(), st.enc.Width()))
		}
		c.val = m
	case store.EventUpload:
		if st.rs == nil {
			return nil, conflict(errors.New("publish encoder and model first"))
		}
		// Each frame is CRC-checked and validated in place, with no bitset
		// decoded: the WAL stores the client's own bytes.
		var cs []change
		for rest := ev.Payload; len(rest) > 0; {
			info, err := protocol.ValidateUploadFrame(rest)
			if err != nil {
				return nil, badRequest(err)
			}
			if info.RuleWidth != st.rs.Width() {
				return nil, badRequest(fmt.Errorf("upload rule width %d, model has %d", info.RuleWidth, st.rs.Width()))
			}
			c.ev.Payload, rest = rest[:info.FrameLen:info.FrameLen], rest[info.FrameLen:]
			c.upload = info
			cs = append(cs, c)
		}
		return cs, nil
	case store.EventRoundEval:
		if st.enc == nil || st.model == nil {
			return nil, conflict(errors.New("publish encoder and model first"))
		}
		test, err := dataset.ReadCSV(bytes.NewReader(ev.Payload), st.enc.Schema(), dataset.CSVOptions{
			HasHeader:       true,
			PositiveLabel:   st.enc.Schema().Labels[1],
			TrimSpace:       true,
			ClampContinuous: true,
		})
		if err == nil && test.Len() == 0 {
			err = errors.New("empty evaluation set")
		}
		if err != nil {
			return nil, badRequest(err)
		}
		c.val = test
	case store.EventRound:
		if st.rounds == nil {
			return nil, conflict(errors.New("register an evaluation set first (POST /v1/rounds, text/csv)"))
		}
	case store.EventNop:
		// Degraded-mode health probes carry no state.
	default:
		return nil, badRequest(fmt.Errorf("unknown event type %d", ev.Type))
	}
	return []change{c}, nil
}

// apply installs c, prepared against st's current basis, into st. It reads
// only st, c and cfg, the settings of every round engine, and leaves st as
// it was when it fails.
func (st *state) apply(c change, cfg *rounds.Config) error {
	switch c.ev.Type {
	case store.EventEncoder:
		// A new encoding invalidates the model, uploads and stream tied to
		// the old one.
		*st = state{enc: c.val.(*dataset.Encoder), encRaw: c.ev.Payload, version: st.version + 1}
	case store.EventModel:
		// Uploads reference the previous model's rule space; the round
		// stream reconstructs coalitions of the previous model's parameters.
		m := c.val.(*nn.Model)
		rs := rules.Extract(m, st.enc)
		*st = state{enc: st.enc, encRaw: st.encRaw, model: m, modelRaw: c.ev.Payload,
			rs: rs, idx: core.NewIndex(rs), version: st.version + 1}
	case store.EventUpload:
		// The frame decodes straight into the index, and the raw frame is
		// kept for snapshots: the server never re-encodes what a client sent.
		if err := protocol.ExtendIndex(st.idx, c.ev.Payload, c.upload); err != nil {
			return err
		}
		st.frames = append(st.frames, c.ev.Payload)
		st.version++
	case store.EventRoundEval:
		rc := *cfg
		rc.Model = st.model
		rc.EvalX, rc.EvalY = st.enc.EncodeTable(c.val.(*dataset.Table))
		eng, err := rounds.New(rc)
		if err != nil {
			return err
		}
		st.rounds, st.evalRaw = eng, c.ev.Payload
		st.version++
	case store.EventRound:
		if out, ok := c.val.(*rounds.Outcome); ok {
			return st.rounds.Apply(out)
		}
		// Pure score arithmetic: replay never re-evaluates a coalition.
		return st.rounds.ApplyPayload(c.ev.Payload)
	}
	return nil
}

// replay prepares one logged event against st and applies it: the path of
// boot replay and follower replication.
func (st *state) replay(ev store.Event, cfg *rounds.Config) error {
	cs, err := st.prepare(ev)
	for _, c := range cs {
		if err = st.apply(c, cfg); err != nil {
			break
		}
	}
	return err
}

// commit makes prepared changes one write. Under s.mu it refuses with 409 a
// change whose basis was replaced since prepare, write-ahead-logs the
// batch (503 with no effect on failure), applies it and compacts; after,
// if not nil, then reads what the handler reports from the new state under
// the same lock, and must only read it. Failures are *statusError.
func (s *Server) commit(cs []change, after func(*state)) error {
	evs := make([]store.Event, len(cs))
	for i, c := range cs {
		evs[i] = c.ev
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range cs {
		if c.basis != s.st.basisOf(c.ev.Type) {
			return conflict(errors.New("federation state changed while the request was validated; resubmit"))
		}
	}
	// The whole batch persists atomically before any of it applies: a failed
	// persist leaves no partial prefix in the WAL or in memory, so a client
	// retry of the same batch cannot double-apply.
	if err := s.persistLocked(evs...); err != nil {
		return &statusError{http.StatusServiceUnavailable, err}
	}
	for _, c := range cs {
		if err := s.st.apply(c, &s.roundCfg); err != nil {
			// prepare validated the change against this very basis.
			return &statusError{http.StatusInternalServerError, err}
		}
	}
	s.maybeCompactLocked()
	if after != nil {
		after(&s.st)
	}
	return nil
}

// write is the body of the encoder, model, uploads and eval-set handlers:
// it reads the request body as one event of type t, prepares it against a
// snapshot of the state and commits it, answering any failure itself. It
// reports the committed changes and whether the commit succeeded.
func (s *Server) write(w http.ResponseWriter, r *http.Request, t byte, after func(*state)) ([]change, bool) {
	body, err := s.readBody(w, r)
	if err != nil {
		httpError(w, maxBytesCode(err, http.StatusBadRequest), err)
		return nil, false
	}
	s.mu.RLock()
	st := s.st
	s.mu.RUnlock()
	cs, err := st.prepare(store.Event{Type: t, Payload: body})
	if err == nil {
		err = s.commit(cs, after)
	}
	if err != nil {
		s.refuse(w, err)
		return nil, false
	}
	return cs, true
}

// refuse answers a failed prepare or commit with its status; a 503 carries
// the Retry-After hint.
func (s *Server) refuse(w http.ResponseWriter, err error) {
	if code := err.(*statusError).code; code != http.StatusServiceUnavailable {
		httpError(w, code, err)
		return
	}
	s.unavailable(w, err)
}
