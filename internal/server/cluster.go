package server

// Cluster layer: consistent-hash shard routing, synchronous leader →
// follower WAL replication, and burn-rate-driven failover.
//
// Sharding. Every node in a cluster is configured with the full ring
// membership (Options.ClusterPeers) and its own public URL
// (Options.ClusterSelf). Clients stamp requests with the federation id
// they address (X-CTFL-Fed); a node that does not own that id on the
// ring answers 421 Misdirected Request with the owner's URL in
// X-CTFL-Shard, and the client re-routes. Ownership is decided by the
// shared deterministic ring (internal/cluster), so clients that build
// the same ring locally almost never pay the redirect.
//
// Replication. A leader (Options.ReplicaURL set) ships every persist
// batch to its follower as a replicated-WAL-segment frame (protocol
// type 8) BEFORE appending locally, and fails the client's write if the
// follower did not acknowledge. That ordering preserves persistLocked's
// contract — a reported failure happens before any local effect — and
// gives the acknowledged-write-loss invariant: a write the client saw
// succeed is durable on both nodes. The cost of the ordering is that a
// crash between follower-ack and local append can leave the follower
// *ahead*; the cursor protocol below absorbs that, because a client
// retry regenerates byte-identical events (round computation is
// deterministic, upload frames are persisted verbatim) and the
// follower's cursor check turns the re-push into a resync.
//
// Cursor protocol. The follower counts records applied this incarnation
// (replApplied, in memory only). A segment whose start does not equal
// that count is refused with 409 {have}; the leader then re-feeds from
// `have` out of its retained log (store.EventsFrom), or — when that
// cursor is not addressable in the current log incarnation, e.g. after
// the leader compacted and restarted — ships a reset segment restating
// the entire retained log, which the follower applies to a wiped state.
//
// Failover. The follower probes the leader's /healthz every
// FollowInterval and feeds "seconds since last successful contact" into
// the replication_lag gauge. A burn-rate breach of that objective (the
// same SLO machinery that drives degraded mode) promotes the follower:
// it stops refusing writes, and refuses replication pushes from the
// deposed leader (fencing) — so a partitioned old leader can no longer
// acknowledge writes, which is what makes the invariant hold through
// failover.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/flight"
	"repro/internal/protocol"
	"repro/internal/store"
)

// HeaderFed carries the federation id a request addresses; the shard
// gate checks it against the ring.
const HeaderFed = "X-CTFL-Fed"

// HeaderShard carries the URL of the node that should have received the
// request: the ring owner on a 421, the shard leader on a follower's 503.
const HeaderShard = "X-CTFL-Shard"

// FaultReplicate is the fault-injection site on the leader's replication
// push: an injected error fails the client's write before any local
// effect, exactly like an unreachable follower.
const FaultReplicate = "cluster.replicate"

// FaultPartition is the fault-injection site on the follower's leader
// health probe: an injected error simulates a network partition without
// touching the wire, driving the replication_lag objective toward
// promotion.
const FaultPartition = "cluster.partition"

// errFollower is the rejection mutating requests receive on a follower;
// the response carries the leader's URL in X-CTFL-Shard.
var errFollower = errors.New("server: follower: writes go to the shard leader")

// initCluster validates the cluster options, builds the shard ring, and
// registers the replication instruments. Called before registerSLOs so
// the replication_lag gauge exists when the objective is declared.
func (s *Server) initCluster() error {
	opts := s.opts
	s.replLag = s.reg.Gauge("ctfl_repl_lag_seconds",
		"seconds since the follower last heard from its leader")
	s.replSegments = s.reg.Counter("ctfl_repl_segments_total",
		"replicated WAL segments acknowledged by the follower")
	s.replFailures = s.reg.Counter("ctfl_repl_failures_total",
		"replication pushes that failed (follower unreachable or refusing)")
	s.replResyncs = s.reg.Counter("ctfl_repl_resyncs_total",
		"replication cursor resyncs (catch-up suffixes or reset restatements)")
	s.promotions = s.reg.Counter("ctfl_cluster_promotions_total",
		"follower promotions to leader on replication_lag SLO burn")

	if len(opts.ClusterPeers) > 0 {
		if opts.ClusterSelf == "" {
			return errors.New("server: ClusterPeers set without ClusterSelf")
		}
		r, err := cluster.New(opts.ClusterPeers, cluster.Config{})
		if err != nil {
			return fmt.Errorf("server: cluster ring: %w", err)
		}
		if !r.Contains(opts.ClusterSelf) {
			return fmt.Errorf("server: ClusterSelf %q is not in ClusterPeers", opts.ClusterSelf)
		}
		s.ring = r
	}
	if opts.ReplicaURL != "" && opts.LeaderURL != "" {
		return errors.New("server: a node cannot set both ReplicaURL (leader) and LeaderURL (follower)")
	}
	if opts.ReplicaURL != "" && opts.DataDir == "" {
		return errors.New("server: replication requires DataDir (the retained log feeds resyncs)")
	}
	if opts.ReplicaURL != "" || opts.LeaderURL != "" {
		s.clusterClient = &http.Client{Timeout: opts.ReplTimeout}
	}
	if opts.LeaderURL != "" {
		s.following = true
		s.lastLeaderContact = time.Now()
	}
	return nil
}

// clusterExempt lists the routes the shard gate never fences: node-local
// observability, the replication ingress itself, and liveness — an
// operator's curl or a monitor's scrape must reach any node directly.
func clusterExempt(pattern string) bool {
	switch pattern {
	case "/healthz", "/metrics", "/v1/replicate", "/v1/events",
		"/v1/version", "/v1/debug/bundle":
		return true
	}
	return false
}

// clusterGate enforces shard ownership and the follower write fence in
// the route middleware, before the handler runs (so a misdirected
// request has no effect and is always safe to re-route). Reports whether
// it answered the request.
func (s *Server) clusterGate(w http.ResponseWriter, r *http.Request, pattern string) bool {
	if s.ring == nil && s.opts.LeaderURL == "" {
		return false
	}
	if clusterExempt(pattern) {
		return false
	}
	if s.ring != nil {
		if fed := r.Header.Get(HeaderFed); fed != "" {
			if owner := s.ring.Lookup(fed); owner != s.opts.ClusterSelf {
				w.Header().Set(HeaderShard, owner)
				httpError(w, http.StatusMisdirectedRequest,
					fmt.Errorf("federation %q is owned by shard %s", fed, owner))
				return true
			}
		}
	}
	if r.Method != http.MethodGet && s.opts.LeaderURL != "" {
		s.mu.RLock()
		following := s.following
		s.mu.RUnlock()
		if following {
			w.Header().Set(HeaderShard, s.opts.LeaderURL)
			s.unavailable(w, errFollower)
			return true
		}
	}
	return false
}

// walRecords converts a persist batch to wire records. Nop probes carry
// no state and are never replicated, matching the retained log's
// numbering (store.Sequence excludes them too).
func walRecords(evs []store.Event) []protocol.WALRecord {
	recs := make([]protocol.WALRecord, 0, len(evs))
	for _, ev := range evs {
		if ev.Type == store.EventNop {
			continue
		}
		recs = append(recs, protocol.WALRecord{Type: ev.Type, Payload: ev.Payload})
	}
	return recs
}

// replCursorError is the follower's 409 answer decoded: its cursor does
// not match the pushed segment's start sequence.
type replCursorError struct{ Have uint64 }

func (e *replCursorError) Error() string {
	return fmt.Sprintf("replica cursor at %d", e.Have)
}

// pushSegment ships one replicated-WAL-segment frame to the follower and
// decodes its verdict: nil on ack, *replCursorError on a cursor
// mismatch, opaque error otherwise.
func (s *Server) pushSegment(start uint64, reset bool, recs []protocol.WALRecord) error {
	frame, err := protocol.AppendWALSegment(nil, start, reset, recs)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, s.opts.ReplicaURL+"/v1/replicate", bytes.NewReader(frame))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", protocol.ContentTypeFrame)
	resp, err := s.clusterClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil
	case http.StatusConflict:
		var c struct {
			Have uint64 `json:"have"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
			return fmt.Errorf("replica answered 409 with unreadable cursor: %w", err)
		}
		return &replCursorError{Have: c.Have}
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, errBodyCap))
		return fmt.Errorf("replica answered status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
}

// resyncFrom re-feeds the follower from its reported cursor, falling
// back to a full reset restatement when that cursor is not addressable
// in this log incarnation (the leader compacted and restarted, so the
// retained log is a minimal restatement, not the original history).
func (s *Server) resyncFrom(have uint64) error {
	evs, _, ok := s.store.EventsFrom(have)
	if !ok {
		all, _, _ := s.store.EventsFrom(0)
		return s.pushSegment(0, true, walRecords(all))
	}
	if len(evs) == 0 {
		return nil
	}
	return s.pushSegment(have, false, walRecords(evs))
}

// replicateLocked synchronously ships a mutation's events to the
// follower before they touch the local WAL: an acknowledged write lands
// on both nodes or on neither. Caller holds the write lock; an error
// here fails the client's request before any local effect, so a retry
// converges (the follower's cursor check absorbs the re-push).
func (s *Server) replicateLocked(evs []store.Event) error {
	if s.opts.ReplicaURL == "" {
		return nil
	}
	if err := s.opts.Faults.Err(FaultReplicate); err != nil {
		s.replFailures.Inc()
		s.recordClusterEvent(flight.OutcomeError, FaultReplicate, err.Error(), 0)
		return fmt.Errorf("server: replication: %w", err)
	}
	recs := walRecords(evs)
	if len(recs) == 0 {
		return nil
	}
	start := s.store.Sequence()
	err := s.pushSegment(start, false, recs)
	var cur *replCursorError
	if errors.As(err, &cur) {
		s.replResyncs.Inc()
		s.recordClusterEvent(flight.OutcomeDegraded, "cluster.resync",
			fmt.Sprintf("follower at %d, leader log at %d", cur.Have, start), int64(cur.Have))
		if err = s.resyncFrom(cur.Have); err == nil {
			err = s.pushSegment(start, false, recs)
		}
	}
	if err != nil {
		s.replFailures.Inc()
		s.recordClusterEvent(flight.OutcomeError, FaultReplicate, err.Error(), int64(start))
		return fmt.Errorf("server: replication: %w", err)
	}
	s.replSegments.Inc()
	return nil
}

// handleReplicate is the follower's replication ingress: it validates
// the segment, checks the cursor, WAL-logs the records locally, and
// applies them through the same applyEvent path replay uses — so leader
// and follower state cannot drift apart structurally.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if _, err := requireContentType(r, protocol.ContentTypeFrame, "application/octet-stream"); err != nil {
		httpError(w, http.StatusUnsupportedMediaType, err)
		return
	}
	body, err := s.readBody(w, r)
	if err != nil {
		httpError(w, maxBytesCode(err, http.StatusBadRequest), err)
		return
	}
	f, rest, err := protocol.ParseFrame(body)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d trailing bytes after WAL segment frame", len(rest))
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	seg, err := protocol.ParseWALSegment(f)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	recs := seg.AppendRecords(nil)

	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.following {
		// Fencing: a promoted follower (or a node never configured as one)
		// refuses pushes outright, so a deposed leader that comes back from
		// a partition can no longer acknowledge writes.
		httpError(w, http.StatusForbidden, errors.New("not a follower"))
		return
	}
	if !seg.Reset && seg.StartSeq != s.replApplied {
		writeJSON(w, http.StatusConflict, map[string]uint64{"have": s.replApplied})
		return
	}
	evs := make([]store.Event, len(recs))
	for i, rec := range recs {
		evs[i] = store.Event{Type: rec.Type, Payload: rec.Payload}
	}
	if err := s.persistLocked(evs...); err != nil {
		s.unavailable(w, err)
		return
	}
	if seg.Reset {
		// Full restatement, now durable: discard this incarnation's state
		// and rebuild. Wiping only after the persist keeps a failed push
		// free of side effects. The version counter survives so
		// trace-cache keys stay unique.
		v := s.st.version
		s.st = state{version: v}
		s.replApplied = 0
		s.recordClusterEvent(flight.OutcomeDegraded, "cluster.reset",
			fmt.Sprintf("rebuilding from %d-record restatement", seg.Count), int64(seg.Count))
	}
	for _, ev := range evs {
		if err := s.applyEvent(ev); err != nil {
			// Leader-validated events cannot fail here unless the streams
			// diverged. The cursor stays at the applied count, so the
			// leader's next push resyncs the unapplied suffix.
			s.recordClusterEvent(flight.OutcomeError, "cluster.apply", err.Error(), int64(s.replApplied))
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		s.replApplied++
	}
	// A push is positive proof of leader liveness, same as a health probe.
	s.lastLeaderContact = time.Now()
	s.replLag.Set(0)
	if seg.Reset && s.store != nil {
		// Fold the rebuilt state into a snapshot so a follower restart
		// replays to exactly this point, not through the pre-reset history.
		if err := s.store.Compact(s.snapshotEventsLocked()); err != nil {
			s.log.Warn("replica reset compaction failed, continuing on the wal", "err", err)
		}
	}
	s.maybeCompactLocked()
	w.WriteHeader(http.StatusNoContent)
}

// followLoop is the follower's leader health probe: every FollowInterval
// it checks the leader's /healthz, refreshes the replication_lag gauge,
// and ticks the SLO evaluator so lag burn can trip promotion without
// waiting for the background SLO ticker. Exits once promoted.
func (s *Server) followLoop() {
	defer close(s.followDone)
	t := time.NewTicker(s.opts.FollowInterval)
	defer t.Stop()
	for {
		select {
		case <-s.followStop:
			return
		case <-t.C:
			s.mu.RLock()
			following := s.following
			s.mu.RUnlock()
			if !following {
				return
			}
			ok := s.probeLeader()
			now := time.Now()
			s.mu.Lock()
			if ok {
				s.lastLeaderContact = now
			}
			s.replLag.Set(now.Sub(s.lastLeaderContact).Seconds())
			s.sloTickLocked(now)
			s.mu.Unlock()
		}
	}
}

// probeLeader checks the leader's liveness over /healthz, off-lock. The
// cluster.partition fault site simulates a partition: an injected error
// fails the probe without touching the wire.
func (s *Server) probeLeader() bool {
	if err := s.opts.Faults.Err(FaultPartition); err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.ReplTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.opts.LeaderURL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := s.clusterClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// promoteLocked turns the follower into the shard's leader: writes are
// accepted, replication pushes from the deposed leader are refused. The
// transition is recorded as a pinned flight event. Caller holds s.mu
// (write).
func (s *Server) promoteLocked() {
	s.following = false
	s.promotions.Inc()
	s.recordClusterEvent(flight.OutcomeDegraded, "cluster.failover",
		"promoted: leader unreachable, replication_lag slo burn", int64(s.replApplied))
	s.log.Warn("promoted to leader: replication_lag SLO burn",
		"applied", s.replApplied, "leader", s.opts.LeaderURL)
}

// recordClusterEvent files one replication/failover flight event. The
// recorder has its own lock, kept disjoint from s.mu.
func (s *Server) recordClusterEvent(outcome flight.Outcome, site, errMsg string, aux int64) {
	s.flightRec.Record(flight.Event{
		Kind:     flight.KindCluster,
		Outcome:  outcome,
		Route:    site,
		Aux:      aux,
		Degraded: s.degraded,
		Err:      errMsg,
	})
}
