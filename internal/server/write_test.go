package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/protocol"
	"repro/internal/rules"
	"repro/internal/store"
)

// TestReplayEqualsLiveOnAllRoutes drives one mixed history through a durable
// leader with a follower, then compares the three routes by which a state
// is built: the leader's handlers, boot replay of the leader's WAL, and the
// follower's replication ingress. The history republishes the model, which
// drops the uploads and the score stream, so every route rebuilds both.
func TestReplayEqualsLiveOnAllRoutes(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildStreamFederation(t)
	stream := fx.wireRounds()
	rs := rules.Extract(fx.sim.Model, fx.enc)
	batch := func(parts []*fl.Participant) []byte {
		var b bytes.Buffer
		for _, p := range parts {
			acts, _ := rs.ActivationsTable(p.Data)
			up := &protocol.Upload{Participant: p.ID, RuleWidth: rs.Width()}
			for i, a := range acts {
				up.Records = append(up.Records, protocol.Record{Label: p.Data.Instances[i].Label, Activations: a})
			}
			if err := up.Write(&b); err != nil {
				t.Fatal(err)
			}
		}
		return b.Bytes()
	}

	ls, urls := newListeners(t, 2)
	dir := t.TempDir()
	follower := startNode(t, ls[1], urls[1], Options{
		DataDir:        t.TempDir(),
		LeaderURL:      urls[0],
		FollowInterval: time.Hour, // promotion is the chaos test's concern
		SLOInterval:    -1,
	})
	defer follower.ts.Close()
	defer closeServer(t, follower.srv)
	leader := startNode(t, ls[0], urls[0], Options{
		DataDir:     dir,
		ReplicaURL:  urls[1],
		ReplTimeout: 2 * time.Second,
		SLOInterval: -1,
	})
	defer leader.ts.Close()
	defer closeServer(t, leader.srv)

	ctx := context.Background()
	c := &Client{BaseURL: urls[0]}
	steps := []func() error{
		func() error { return c.PublishEncoder(ctx, fx.enc) },
		func() error { return c.PublishModel(ctx, fx.sim.Model) },
		func() error { return c.UploadFrames(ctx, batch(fx.parts[:3])) },
		func() error { return c.UploadFrames(ctx, batch(fx.parts[3:])) },
		func() error { return c.PublishRoundEval(ctx, fx.test) },
	}
	push := func(round int, parts []protocol.RoundParticipant) func() error {
		return func() error { _, err := c.PushRound(ctx, round, parts); return err }
	}
	for round := 0; round < 3; round++ {
		steps = append(steps, push(round, stream[round]))
	}
	half := fx.test.Subset(seqIdx(0, fx.test.Len()/2))
	steps = append(steps,
		func() error { return c.PublishModel(ctx, fx.sim.Model) },
		func() error { return c.UploadFrames(ctx, batch(fx.parts[1:4])) },
		func() error { return c.PublishRoundEval(ctx, half) },
		push(0, stream[3]),
		push(1, stream[4]),
	)
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}

	// Opened before the leader closes, so there is no final snapshot: this
	// server recovers from the WAL alone.
	if snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*")); len(snaps) != 0 {
		t.Fatalf("leader compacted mid-history (%v); the history no longer tests WAL replay", snaps)
	}
	recovered := newDurable(t, dir)
	defer closeServer(t, recovered)
	recoveredTS := httptest.NewServer(recovered)
	defer recoveredTS.Close()
	// A follower fences POST /v1/trace; promotion lifts the fence and
	// leaves the state as it is.
	follower.srv.mu.Lock()
	follower.srv.promoteLocked()
	follower.srv.mu.Unlock()

	var csv bytes.Buffer
	if err := dataset.WriteCSV(&csv, fx.test); err != nil {
		t.Fatal(err)
	}
	type observed struct {
		events           []store.Event
		scores, trace    []byte
		uploads, version any
	}
	observe := func(s *Server, ts *httptest.Server) observed {
		t.Helper()
		var o observed
		s.mu.RLock()
		o.events = s.snapshotEventsLocked()
		s.mu.RUnlock()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/scores", nil)
		req.Header.Set("Accept", protocol.ContentTypeFrame)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		o.scores, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("scores: status %d, %v", resp.StatusCode, err)
		}
		o.trace = traceFrameAt(t, ts, csv.Bytes())
		var h map[string]any
		getJSON(t, ts.URL+"/healthz", &h)
		o.uploads, o.version = h["uploads"], h["version"]
		return o
	}
	live := observe(leader.srv, leader.ts)
	if live.uploads == float64(0) || len(live.events) == 0 {
		t.Fatalf("history left no uploads (%v) or no events (%d)", live.uploads, len(live.events))
	}
	for _, route := range []struct {
		name string
		got  observed
	}{
		{"WAL replay", observe(recovered, recoveredTS)},
		{"follower", observe(follower.srv, follower.ts)},
	} {
		got := route.got
		if len(got.events) != len(live.events) {
			t.Fatalf("%s: %d snapshot events, live %d", route.name, len(got.events), len(live.events))
		}
		for i, ev := range live.events {
			if got.events[i].Type != ev.Type || !bytes.Equal(got.events[i].Payload, ev.Payload) {
				t.Fatalf("%s: snapshot event %d (type %d) differs from live (type %d)",
					route.name, i, got.events[i].Type, ev.Type)
			}
		}
		if !bytes.Equal(got.scores, live.scores) {
			t.Fatalf("%s: scores frame differs from live", route.name)
		}
		if !bytes.Equal(got.trace, live.trace) {
			t.Fatalf("%s: trace-result frame differs from live", route.name)
		}
		if got.uploads != live.uploads || got.version != live.version {
			t.Fatalf("%s: healthz uploads %v version %v, live %v and %v",
				route.name, got.uploads, got.version, live.uploads, live.version)
		}
	}
}

// TestCommitRefusesReplacedBasis prepares one change of each type that has a
// basis, republishes that basis, then commits the change: each commit is
// refused with 409 and leaves the state as the republish left it. The model
// case is the one a width re-check against the new encoder would accept.
func TestCommitRefusesReplacedBasis(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	s := New()
	ts := httptest.NewServer(s)
	defer ts.Close()
	publish := func(path, contentType string, body []byte) {
		t.Helper()
		resp := post(t, ts, path, contentType, body)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
	}
	encoder := func() { publish("/v1/encoder", "application/json", fx.encoderJSON) }
	model := func() { publish("/v1/model", "application/octet-stream", fx.modelBytes) }
	evalSet := func() { publish("/v1/rounds", "text/csv", fx.testCSV) }
	for _, tc := range []struct {
		name    string
		ev      store.Event
		replace func()
	}{
		{"model", store.Event{Type: store.EventModel, Payload: fx.modelBytes}, encoder},
		{"uploads", store.Event{Type: store.EventUpload, Payload: fx.frames}, model},
		{"eval set", store.Event{Type: store.EventRoundEval, Payload: fx.testCSV}, model},
		{"round", store.Event{Type: store.EventRound}, evalSet},
	} {
		encoder()
		model()
		evalSet()
		s.mu.RLock()
		st := s.st
		s.mu.RUnlock()
		cs, err := st.prepare(tc.ev)
		if err != nil {
			t.Fatalf("%s: prepare: %v", tc.name, err)
		}
		tc.replace()
		s.mu.RLock()
		version := s.st.version
		s.mu.RUnlock()
		var se *statusError
		if err := s.commit(cs, nil); !errors.As(err, &se) || se.code != http.StatusConflict {
			t.Fatalf("%s: commit after its basis was replaced: %v, want a 409", tc.name, err)
		}
		s.mu.RLock()
		after := s.st.version
		s.mu.RUnlock()
		if after != version {
			t.Fatalf("%s: refused commit moved the state version %d -> %d", tc.name, version, after)
		}
	}
}
