package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/protocol"
	"repro/internal/rounds"
	"repro/internal/stats"
	"repro/internal/store"
)

// clusterNode couples a server with a pre-allocated listener, so ring
// member URLs are known before any server is constructed (Options fix
// the topology at construction time).
type clusterNode struct {
	srv *Server
	ts  *httptest.Server
	url string
}

// newListeners pre-allocates n loopback listeners and returns their
// base URLs.
func newListeners(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	ls := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	return ls, urls
}

// startNode builds a server with the given options and serves it on the
// pre-allocated listener.
func startNode(t *testing.T, l net.Listener, url string, opts Options) *clusterNode {
	t.Helper()
	s, err := NewWithOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(s)
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	return &clusterNode{srv: s, ts: ts, url: url}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// clusterHealth returns the "cluster" block of a node's /healthz.
func clusterHealth(t *testing.T, url string) map[string]any {
	t.Helper()
	var st map[string]any
	getJSON(t, url+"/healthz", &st)
	cl, _ := st["cluster"].(map[string]any)
	if cl == nil {
		t.Fatalf("healthz has no cluster block: %v", st)
	}
	return cl
}

// cheapEncoderJSON builds an encoder payload without any training.
func cheapEncoderJSON(t *testing.T) []byte {
	t.Helper()
	enc, err := dataset.NewEncoder(dataset.TicTacToe().Schema, 4, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestShardRoutingAndClientRedirect pins the ring contract end to end: a
// node answers 421 + X-CTFL-Shard for a federation it does not own, the
// client ring-routes straight to the owner, and a ring-less client still
// converges by learning the redirect.
func TestShardRoutingAndClientRedirect(t *testing.T) {
	ls, urls := newListeners(t, 3)
	nodes := make([]*clusterNode, len(ls))
	for i, l := range ls {
		nodes[i] = startNode(t, l, urls[i], Options{
			ClusterSelf:  urls[i],
			ClusterPeers: urls,
			SLOInterval:  -1,
		})
		defer nodes[i].ts.Close()
		defer closeServer(t, nodes[i].srv)
	}

	// Pick a federation id owned by node 0, using the same ring the
	// servers built.
	ring, err := cluster.New(urls, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fed := ""
	for i := 0; i < 1000; i++ {
		cand := fmt.Sprintf("fed-%d", i)
		if ring.Lookup(cand) == urls[0] {
			fed = cand
			break
		}
	}
	if fed == "" {
		t.Fatal("no federation id hashed to node 0 in 1000 tries")
	}
	encJSON := cheapEncoderJSON(t)

	// A misdirected request is refused before any effect, with the owner
	// named in X-CTFL-Shard.
	req, err := http.NewRequest(http.MethodPost, urls[1]+"/v1/encoder", bytes.NewReader(encJSON))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderFed, fed)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("wrong-shard write status = %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderShard); got != urls[0] {
		t.Fatalf("X-CTFL-Shard = %q, want owner %q", got, urls[0])
	}
	var st map[string]any
	getJSON(t, urls[1]+"/healthz", &st)
	if st["encoder"] != false {
		t.Fatal("misdirected write had an effect on the wrong shard")
	}

	// Fed-addressed reads are fenced the same way.
	req, _ = http.NewRequest(http.MethodGet, urls[2]+"/v1/rules", nil)
	req.Header.Set(HeaderFed, fed)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("wrong-shard read status = %d, want 421", resp.StatusCode)
	}

	// A ring-aware client routes straight to the owner: no redirect needed
	// even with a wrong BaseURL.
	ctx := context.Background()
	c := &Client{BaseURL: urls[1], Shards: urls, Fed: fed}
	var enc dataset.Encoder
	if err := json.Unmarshal(encJSON, &enc); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishEncoder(ctx, &enc); err != nil {
		t.Fatal(err)
	}
	getJSON(t, urls[0]+"/healthz", &st)
	if st["encoder"] != true {
		t.Fatal("ring-routed write did not land on the owner")
	}

	// A ring-less client pointed at the wrong node converges by learning
	// the 421 redirect and retrying.
	c2 := &Client{BaseURL: urls[1], Fed: fed, Retry: &ClientRetryPolicy{MaxAttempts: 3}}
	if err := c2.PublishEncoder(ctx, &enc); err != nil {
		t.Fatalf("redirect-following client failed: %v", err)
	}

	// Requests without a federation id are served locally (single-node
	// compatibility).
	resp = post(t, nodes[1].ts, "/v1/encoder", "application/json", encJSON)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("unaddressed write status = %d, want 204", resp.StatusCode)
	}
}

// replicateFrame POSTs one replicated-WAL-segment frame and returns the
// response.
func replicateFrame(t *testing.T, url string, start uint64, reset bool, recs []protocol.WALRecord) *http.Response {
	t.Helper()
	frame, err := protocol.AppendWALSegment(nil, start, reset, recs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/replicate", protocol.ContentTypeFrame, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestReplicateCursorProtocol pins the follower's ingress contract with
// hand-built segments: cursor mismatches answer 409 {have}, matching
// segments apply through the replay path, resets rebuild from scratch,
// writes are fenced with the leader's URL, and non-followers refuse
// pushes outright.
func TestReplicateCursorProtocol(t *testing.T) {
	ls, urls := newListeners(t, 1)
	leaderURL := "http://127.0.0.1:1" // never dialed: FollowInterval is huge
	n := startNode(t, ls[0], urls[0], Options{
		LeaderURL:      leaderURL,
		FollowInterval: time.Hour,
		SLOInterval:    -1,
	})
	defer n.ts.Close()
	defer closeServer(t, n.srv)

	encJSON := cheapEncoderJSON(t)
	rec := []protocol.WALRecord{{Type: store.EventEncoder, Payload: encJSON}}

	// Ahead-of-cursor segment: refused with the follower's cursor.
	resp := replicateFrame(t, urls[0], 5, false, rec)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cursor-mismatch status = %d, want 409", resp.StatusCode)
	}
	var cur struct {
		Have uint64 `json:"have"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cur.Have != 0 {
		t.Fatalf("409 cursor = %d, want 0", cur.Have)
	}

	// Matching segment: applied through the replay path.
	resp = replicateFrame(t, urls[0], 0, false, rec)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("apply status = %d, want 204", resp.StatusCode)
	}
	cl := clusterHealth(t, urls[0])
	if cl["role"] != "follower" || cl["applied"] != float64(1) || cl["promoted"] != false {
		t.Fatalf("follower cluster health = %v", cl)
	}
	var st map[string]any
	getJSON(t, urls[0]+"/healthz", &st)
	if st["encoder"] != true {
		t.Fatal("replicated encoder not applied")
	}

	// Direct writes are fenced to the leader.
	resp = post(t, n.ts, "/v1/encoder", "application/json", encJSON)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fenced write status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderShard); got != leaderURL {
		t.Fatalf("fence X-CTFL-Shard = %q, want leader %q", got, leaderURL)
	}

	// A garbage body is a 400, not a crash.
	resp, err := http.Post(urls[0]+"/v1/replicate", protocol.ContentTypeFrame, bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage segment status = %d, want 400", resp.StatusCode)
	}

	// A reset restatement discards the incarnation and rebuilds.
	resp = replicateFrame(t, urls[0], 0, true, rec)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("reset status = %d, want 204", resp.StatusCode)
	}
	if cl := clusterHealth(t, urls[0]); cl["applied"] != float64(1) {
		t.Fatalf("post-reset cursor = %v, want 1", cl["applied"])
	}

	// A node that is not a follower refuses pushes (fencing).
	solo := New()
	defer closeServer(t, solo)
	tsSolo := httptest.NewServer(solo)
	defer tsSolo.Close()
	resp = replicateFrame(t, tsSolo.URL, 0, false, rec)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("non-follower push status = %d, want 403", resp.StatusCode)
	}
}

// TestFailedResetPushKeepsFollowerState pins the fail-before-side-effect
// rule on the follower's reset path: when the WAL append of a reset
// restatement fails, the follower answers 503 and keeps serving the state
// it had, and the leader's retry of the same push then applies cleanly.
func TestFailedResetPushKeepsFollowerState(t *testing.T) {
	dir := t.TempDir()
	encJSON := cheapEncoderJSON(t)
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(store.Event{Type: store.EventEncoder, Payload: encJSON}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ls, urls := newListeners(t, 1)
	n := startNode(t, ls[0], urls[0], Options{
		DataDir:        dir,
		LeaderURL:      "http://127.0.0.1:1", // never dialed: FollowInterval is huge
		FollowInterval: time.Hour,
		SLOInterval:    -1,
		Faults: faults.New(5, map[string]faults.Site{
			store.FaultAppend: {ErrProb: 1, MaxFaults: 1},
		}),
	})
	defer n.ts.Close()
	defer closeServer(t, n.srv)
	encoder := func() any {
		var health map[string]any
		getJSON(t, urls[0]+"/healthz", &health)
		return health["encoder"]
	}
	if got := encoder(); got != true {
		t.Fatalf("replayed follower reports encoder %v, want true", got)
	}

	rec := []protocol.WALRecord{{Type: store.EventEncoder, Payload: encJSON}}
	resp := replicateFrame(t, urls[0], 0, true, rec)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("reset push with a failing WAL: status %d, want 503", resp.StatusCode)
	}
	if got := encoder(); got != true {
		t.Fatalf("failed reset push wiped follower state: encoder %v", got)
	}

	resp = replicateFrame(t, urls[0], 0, true, rec)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("retried reset push: status %d, want 204", resp.StatusCode)
	}
	if cl := clusterHealth(t, urls[0]); cl["applied"] != float64(1) {
		t.Fatalf("cursor after the retried reset = %v, want 1", cl["applied"])
	}
}

// TestLeaderReplicatesAndResyncs drives the leader's synchronous push
// through a real follower: every acknowledged mutation lands on both
// nodes, a follower restart resyncs through the 409 cursor protocol, and
// a dead follower fails leader writes before any local effect (the
// acknowledged-write-loss invariant's write-path half).
func TestLeaderReplicatesAndResyncs(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	ls, urls := newListeners(t, 2)
	leaderURL, followerURL := urls[0], urls[1]
	dirA, dirB := t.TempDir(), t.TempDir()

	follower := startNode(t, ls[1], followerURL, Options{
		DataDir:        dirB,
		LeaderURL:      leaderURL,
		FollowInterval: time.Hour, // promotion is the chaos test's concern
		SLOInterval:    -1,
	})
	leader := startNode(t, ls[0], leaderURL, Options{
		DataDir:     dirA,
		ReplicaURL:  followerURL,
		ReplTimeout: 2 * time.Second,
		SLOInterval: -1,
	})
	defer closeServer(t, leader.srv)

	publishAll(t, leader.ts, fx)
	wantApplied := leader.srv.store.Sequence()
	if wantApplied == 0 {
		t.Fatal("leader retained log empty after publishes")
	}
	if cl := clusterHealth(t, followerURL); cl["applied"] != float64(wantApplied) {
		t.Fatalf("follower applied = %v, want %d", cl["applied"], wantApplied)
	}

	// The follower serves the replicated state on its read paths.
	var leaderRules, followerRules []RuleJSON
	getJSON(t, leaderURL+"/v1/rules", &leaderRules)
	getJSON(t, followerURL+"/v1/rules", &followerRules)
	if len(followerRules) == 0 || len(followerRules) != len(leaderRules) {
		t.Fatalf("follower rules %d, leader %d", len(followerRules), len(leaderRules))
	}
	for i := range leaderRules {
		if followerRules[i] != leaderRules[i] {
			t.Fatalf("rule %d diverged: %+v vs %+v", i, followerRules[i], leaderRules[i])
		}
	}

	// Restart the follower: its in-memory cursor resets to 0, so the next
	// leader write must resync through the 409 protocol and still land.
	follower.ts.Close()
	closeServer(t, follower.srv)
	l2, err := net.Listen("tcp", follower.ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	follower = startNode(t, l2, followerURL, Options{
		DataDir:        dirB,
		LeaderURL:      leaderURL,
		FollowInterval: time.Hour,
		SLOInterval:    -1,
	})
	if cl := clusterHealth(t, followerURL); cl["applied"] != float64(0) {
		t.Fatalf("restarted follower cursor = %v, want 0", cl["applied"])
	}
	resp := post(t, leader.ts, "/v1/encoder", "application/json", fx.encoderJSON)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("post-restart write status = %d, want 204", resp.StatusCode)
	}
	if cl := clusterHealth(t, followerURL); cl["applied"] != float64(leader.srv.store.Sequence()) {
		t.Fatalf("resynced follower applied = %v, want %d", cl["applied"], leader.srv.store.Sequence())
	}
	resyncs, _ := leader.srv.reg.Snapshot()["ctfl_repl_resyncs_total"].(int64)
	if resyncs == 0 {
		t.Fatal("resync counter still zero after a cursor mismatch")
	}

	// Kill the follower outright: leader writes must now fail with no
	// local effect — a write is acknowledged on both nodes or on neither.
	follower.ts.Close()
	closeServer(t, follower.srv)
	verBefore := leader.srv.st.version
	resp = post(t, leader.ts, "/v1/model", "application/octet-stream", fx.modelBytes)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write with dead follower status = %d, want 503", resp.StatusCode)
	}
	leader.ts.Close()
	if leader.srv.st.version != verBefore {
		t.Fatalf("failed replication still mutated leader state (version %d -> %d)",
			verBefore, leader.srv.st.version)
	}
}

// TestChaosLeaderFailover is the cluster acceptance test: a leader is
// killed mid-round-ingest, the follower promotes itself on replication
// lag burn, the stream finishes against the promoted follower, and the
// scores are bit-identical to an uninterrupted single engine — with no
// acknowledged round lost, and the whole history replayable from the
// follower's own WAL.
func TestChaosLeaderFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildStreamFederation(t)
	stream := fx.wireRounds()
	ls, urls := newListeners(t, 2)
	leaderURL, followerURL := urls[0], urls[1]
	dirA, dirB := t.TempDir(), t.TempDir()
	ctx := context.Background()

	follower := startNode(t, ls[1], followerURL, Options{
		DataDir:        dirB,
		LeaderURL:      leaderURL,
		FollowInterval: 20 * time.Millisecond,
		ReplLagBound:   0.05,
		ReplTimeout:    500 * time.Millisecond,
		SLOInterval:    -1, // the follow loop ticks the evaluator itself
	})
	defer follower.ts.Close()
	defer closeServer(t, follower.srv)
	leader := startNode(t, ls[0], leaderURL, Options{
		DataDir:     dirA,
		ReplicaURL:  followerURL,
		ReplTimeout: 2 * time.Second,
		SLOInterval: -1,
	})

	c := &Client{BaseURL: leaderURL}
	if err := c.PublishEncoder(ctx, fx.enc); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishModel(ctx, fx.sim.Model); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishRoundEval(ctx, fx.test); err != nil {
		t.Fatal(err)
	}

	// Ingest the first half of the stream, tracking what was acknowledged.
	cut := len(stream) / 2
	acked := 0
	for round := 0; round < cut; round++ {
		if _, err := c.PushRound(ctx, round, stream[round]); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		acked++
	}

	// Kill the leader mid-ingest: no graceful Close, no final snapshot.
	leader.ts.CloseClientConnections()
	leader.ts.Close()

	// The follower must promote itself on replication-lag burn.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if cl := clusterHealth(t, followerURL); cl["promoted"] == true {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower not promoted 15s after leader death")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Zero acknowledged-write loss: every acknowledged round is already on
	// the promoted follower.
	fc := &Client{BaseURL: followerURL}
	atPromotion, err := fc.Scores(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if atPromotion.Rounds != acked {
		t.Fatalf("promoted follower has %d rounds, %d were acknowledged", atPromotion.Rounds, acked)
	}

	// Finish the stream against the promoted follower.
	for round := cut; round < len(stream); round++ {
		if _, err := fc.PushRound(ctx, round, stream[round]); err != nil {
			t.Fatalf("round %d on promoted follower: %v", round, err)
		}
	}
	final, err := fc.Scores(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The failed-over stream must equal an uninterrupted local engine —
	// bit-identical, not approximately.
	evalX, evalY := fx.enc.EncodeTable(fx.test)
	ref, err := rounds.New(rounds.Config{Model: fx.sim.Model, EvalX: evalX, EvalY: evalY})
	if err != nil {
		t.Fatal(err)
	}
	for round, parts := range stream {
		frame, err := protocol.AppendRoundUpdate(nil, round, parts)
		if err != nil {
			t.Fatal(err)
		}
		f, _, _ := protocol.ParseFrame(frame)
		u, err := protocol.ParseRoundUpdate(f)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ref.Compute(u)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Apply(out); err != nil {
			t.Fatal(err)
		}
	}
	refSnap := ref.Snapshot()
	requireBitEqualScores(t, "failed-over stream vs uninterrupted engine", final, &refSnap)

	// The promotion is a pinned flight event on the follower.
	var evs EventsResponse
	getJSON(t, followerURL+"/v1/events?kind=cluster", &evs)
	foundPromotion := false
	for _, ev := range evs.Events {
		if ev.Route == "cluster.failover" {
			foundPromotion = true
		}
	}
	if !foundPromotion {
		t.Fatal("no cluster.failover flight event on the promoted follower")
	}

	// The follower's own WAL replays the whole failed-over history
	// bit-identically — durability survived the failover.
	follower.ts.Close()
	closeServer(t, follower.srv)
	s2 := newDurable(t, dirB)
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	defer closeServer(t, s2)
	replayed, err := (&Client{BaseURL: ts2.URL}).Scores(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqualScores(t, "replay from follower WAL", replayed, final)
}
