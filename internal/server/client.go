package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/jobs"
	"repro/internal/nn"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// FaultRequest is the client's fault-injection site, fired before a request
// is sent. Pre-send failures are always safe to retry — nothing reached the
// server. Client.Faults of nil leaves it inert.
const FaultRequest = "client.request"

// defaultHTTPClient bounds every request: a hung server fails the call
// instead of hanging the participant forever.
var defaultHTTPClient = &http.Client{Timeout: 60 * time.Second}

// ClientRetryPolicy tunes the client's exponential-backoff retry loop.
type ClientRetryPolicy struct {
	// MaxAttempts caps total tries per call (first included). Values below
	// 1 mean 1.
	MaxAttempts int
	// BaseDelay is the pre-jitter backoff before the first retry; each
	// further retry doubles it. Default 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the doubling and any server Retry-After hint.
	// Default 2s.
	MaxDelay time.Duration
	// JitterSeed seeds the deterministic jitter stream (full-jitter over the
	// upper half of the backoff window).
	JitterSeed int64
}

func (p ClientRetryPolicy) withDefaults() ClientRetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// Client is a typed wrapper over the service's HTTP API, for participants
// and federation tooling. All methods take a context that bounds the whole
// call including retries.
//
// With Retry set, calls that fail retryably are retried with exponential
// backoff + seeded jitter: 503/429 answers (honouring Retry-After, which our
// server sends before any state change, so even uploads may retry them) and
// pre-send injected faults always; transport errors only on idempotent
// calls, because a lost response does not prove the request had no effect.
type Client struct {
	// BaseURL of the service, e.g. "http://localhost:8080". With Shards
	// set, BaseURL is only the fallback for requests that cannot be ring-
	// routed (an empty Fed).
	BaseURL string
	// HTTPClient defaults to a shared client with a 60s timeout.
	HTTPClient *http.Client
	// Retry enables the retry loop; nil disables it (single attempt).
	Retry *ClientRetryPolicy
	// PollInterval paces Trace's job polling (default 50ms).
	PollInterval time.Duration
	// Faults injects pre-send failures at FaultRequest, for resilience
	// testing. Nil disables injection.
	Faults *faults.Injector

	// Shards lists the cluster's ring membership (node base URLs). When
	// set, requests route to Fed's ring owner through the same
	// deterministic consistent-hash ring the servers build, and every
	// request carries Fed in X-CTFL-Fed. A 421 (wrong shard) or a
	// follower's 503 carries the right node in X-CTFL-Shard; the client
	// learns it as an override and retries there — so topology changes
	// (membership edits, failover) converge without reconfiguration.
	Shards []string
	// Fed is the federation id this client addresses; required for ring
	// routing when Shards is set.
	Fed string

	jitterOnce sync.Once
	jitterMu   sync.Mutex
	jitter     *rand.Rand

	ringOnce sync.Once
	ring     *cluster.Ring
	ringErr  error

	// override is the redirect-learned target (X-CTFL-Shard); it beats
	// the ring until a transport failure clears it.
	overrideMu sync.Mutex
	override   string
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient
}

func (c *Client) pollInterval() time.Duration {
	if c.PollInterval > 0 {
		return c.PollInterval
	}
	return 50 * time.Millisecond
}

// backoffDelay computes the pause before retry n (n starts at 1): an
// exponentially growing window with deterministic jitter over its upper
// half, so synchronized clients spread out but a fixed seed replays the
// same schedule.
func (c *Client) backoffDelay(p ClientRetryPolicy, n int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < n && d < p.MaxDelay; i++ {
		d *= 2
	}
	d = min(d, p.MaxDelay)
	c.jitterOnce.Do(func() { c.jitter = stats.NewRNG(p.JitterSeed) })
	c.jitterMu.Lock()
	f := c.jitter.Float64()
	c.jitterMu.Unlock()
	return d/2 + time.Duration(f*float64(d/2))
}

// failKind classifies one failed exchange, which decides retryability.
type failKind int

const (
	failNone      failKind = iota
	failPreSend            // injected before the wire: server never saw it
	failTransport          // sent, no response: effect on the server unknown
	failRejected           // 503/429: the server rejected before any effect
	failMisrouted          // 421: wrong shard, rejected before any effect
	failPermanent          // any other status or a decode error
)

// attempt is one request/response cycle's outcome.
type attempt struct {
	err        error
	kind       failKind
	retryAfter time.Duration // server hint; zero when absent
}

// rawBody captures a response verbatim instead of JSON-decoding it, for
// binary wire-format exchanges.
type rawBody struct {
	contentType string
	data        []byte
}

// baseFor resolves the node one attempt targets: a redirect-learned
// override first, then Fed's ring owner, then BaseURL.
func (c *Client) baseFor() (string, error) {
	c.overrideMu.Lock()
	ov := c.override
	c.overrideMu.Unlock()
	if ov != "" {
		return ov, nil
	}
	if len(c.Shards) == 0 || c.Fed == "" {
		return c.BaseURL, nil
	}
	c.ringOnce.Do(func() { c.ring, c.ringErr = cluster.New(c.Shards, cluster.Config{}) })
	if c.ringErr != nil {
		return "", fmt.Errorf("client: shard ring: %w", c.ringErr)
	}
	return c.ring.Lookup(c.Fed), nil
}

func (c *Client) setOverride(url string) {
	c.overrideMu.Lock()
	c.override = url
	c.overrideMu.Unlock()
}

// doOnce performs a single exchange. body is a byte slice (not a Reader) so
// the retry loop can replay it. accept, when non-empty, is sent as the Accept
// header to negotiate the response encoding.
func (c *Client) doOnce(ctx context.Context, method, path, contentType, accept string, body []byte, out any) attempt {
	if err := c.Faults.Err(FaultRequest); err != nil {
		return attempt{err: fmt.Errorf("client: %s %s: %w", method, path, err), kind: failPreSend}
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	base, err := c.baseFor()
	if err != nil {
		return attempt{err: err, kind: failPermanent}
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return attempt{err: err, kind: failPermanent}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if c.Fed != "" {
		req.Header.Set(HeaderFed, c.Fed)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		// The node may be gone (failover, membership change): drop any
		// learned override so the next attempt re-derives from the ring.
		c.setOverride("")
		return attempt{err: err, kind: failTransport}
	}
	// Drain whatever the decode below leaves unread (a 204's empty body,
	// an ignored success payload, a json.Decoder's trailing newline) so
	// the keep-alive connection goes back to the pool instead of being
	// torn down — redialing per request is ruinous under sustained load.
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
	}()
	// Any response may carry a better target (the ring owner on 421, the
	// shard leader on a follower's 503); learn it before classifying.
	if sh := resp.Header.Get(HeaderShard); sh != "" {
		c.setOverride(sh)
	}
	if resp.StatusCode >= 400 {
		// A failed trace job polls as 500 *with* the job envelope: that is a
		// successful poll of an unsuccessful job, and the caller (Trace's
		// resubmission loop) wants the envelope, not an opaque error.
		if env, ok := out.(*TraceJobResponse); ok && resp.StatusCode == http.StatusInternalServerError {
			if json.NewDecoder(resp.Body).Decode(env) == nil && jobs.Status(env.Status) == jobs.StatusFailed {
				return attempt{}
			}
			return attempt{
				err:  fmt.Errorf("server: %s %s: status %d", method, path, resp.StatusCode),
				kind: failPermanent,
			}
		}
		a := attempt{kind: failPermanent}
		if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests {
			a.kind = failRejected
		}
		if resp.StatusCode == http.StatusMisdirectedRequest {
			// The shard gate rejected before the handler ran: no effect,
			// and the override above points the retry at the owner.
			a.kind = failMisrouted
		}
		if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs >= 0 {
			a.retryAfter = time.Duration(secs) * time.Second
		}
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			a.err = fmt.Errorf("server: %s %s: %s (status %d)", method, path, e.Error, resp.StatusCode)
		} else {
			a.err = fmt.Errorf("server: %s %s: status %d", method, path, resp.StatusCode)
		}
		return a
	}
	if out != nil {
		if raw, ok := out.(*rawBody); ok {
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				return attempt{err: err, kind: failTransport}
			}
			raw.contentType = resp.Header.Get("Content-Type")
			raw.data = data
			return attempt{}
		}
		// A trace poll that negotiated the binary wire format gets the raw
		// result frame instead of the JSON job envelope — only terminal
		// successful jobs are served that way, so decode it as one.
		if env, ok := out.(*TraceJobResponse); ok && strings.HasPrefix(resp.Header.Get("Content-Type"), protocol.ContentTypeFrame) {
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				return attempt{err: err, kind: failTransport}
			}
			f, rest, err := protocol.ParseFrame(data)
			if err == nil && len(rest) != 0 {
				err = fmt.Errorf("%d trailing bytes after trace-result frame", len(rest))
			}
			var tr *protocol.TraceResult
			if err == nil {
				tr, err = protocol.ParseTraceResult(f)
			}
			if err != nil {
				return attempt{err: fmt.Errorf("client: %s %s: %w", method, path, err), kind: failPermanent}
			}
			env.Status = string(jobs.StatusDone)
			env.Result = tr
			return attempt{}
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return attempt{err: err, kind: failPermanent}
		}
	}
	return attempt{}
}

// do runs the retry loop around doOnce. idempotent marks calls whose effect
// is safe to repeat, unlocking retries of ambiguous transport failures;
// pre-send injections and pre-effect 503/429 rejections retry regardless.
func (c *Client) do(ctx context.Context, method, path, contentType, accept string, body []byte, out any, idempotent bool) error {
	p := ClientRetryPolicy{MaxAttempts: 1}.withDefaults()
	if c.Retry != nil {
		p = c.Retry.withDefaults()
	}
	for n := 1; ; n++ {
		a := c.doOnce(ctx, method, path, contentType, accept, body, out)
		if a.err == nil {
			return nil
		}
		retryable := a.kind == failPreSend || a.kind == failRejected ||
			a.kind == failMisrouted || (a.kind == failTransport && idempotent)
		if !retryable || n >= p.MaxAttempts {
			return a.err
		}
		delay := c.backoffDelay(p, n)
		if a.retryAfter > 0 {
			delay = min(max(delay, a.retryAfter), p.MaxDelay)
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}

// PublishEncoder posts the federation's predicate encoding. Idempotent:
// republishing the same encoder converges to the same state.
func (c *Client) PublishEncoder(ctx context.Context, enc *dataset.Encoder) error {
	data, err := json.Marshal(enc)
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, "/v1/encoder", "application/json", "", data, nil, true)
}

// PublishModel posts the trained global model. Idempotent like the encoder.
func (c *Client) PublishModel(ctx context.Context, m *nn.Model) error {
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, "/v1/model", "application/octet-stream", "", buf.Bytes(), nil, true)
}

// UploadActivations sends one participant's activation frames. NOT
// idempotent — a duplicated frame double-counts the participant's records —
// so ambiguous transport failures are not retried; 503/429 rejections (which
// the server issues before any state change) still are.
func (c *Client) UploadActivations(ctx context.Context, up *protocol.Upload) error {
	var buf bytes.Buffer
	if err := up.Write(&buf); err != nil {
		return err
	}
	return c.UploadFrames(ctx, buf.Bytes())
}

// UploadFrames sends pre-encoded upload frames (one or more, concatenated)
// exactly as produced by protocol.Upload.Write. The server ingests the
// client's bytes zero-copy, so a caller that already holds wire frames —
// a relay, a replayer, a load generator — skips the re-encode entirely.
// Same idempotency caveats as UploadActivations.
func (c *Client) UploadFrames(ctx context.Context, frames []byte) error {
	return c.do(ctx, http.MethodPost, "/v1/uploads", protocol.ContentTypeFrame, "", frames, nil, false)
}

// PublishRoundEval registers the held-out evaluation set that anchors the
// streaming-valuation engine, resetting any existing score stream.
// Idempotent: re-registering the same set converges to the same state.
func (c *Client) PublishRoundEval(ctx context.Context, test *dataset.Table) error {
	var csv bytes.Buffer
	if err := dataset.WriteCSV(&csv, test); err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, "/v1/rounds", "text/csv", "", csv.Bytes(), nil, true)
}

// PushRound streams one training round's client updates to the valuation
// engine. NOT idempotent — replaying an ambiguous transport failure could
// double-ingest the round (the server would reject the duplicate round
// number, but the first attempt's effect is unknown) — so only pre-effect
// 503/429 rejections retry.
func (c *Client) PushRound(ctx context.Context, round int, parts []protocol.RoundParticipant) (*RoundResponse, error) {
	frame, err := protocol.AppendRoundUpdate(nil, round, parts)
	if err != nil {
		return nil, err
	}
	var out RoundResponse
	if err := c.do(ctx, http.MethodPost, "/v1/rounds", protocol.ContentTypeFrame, "", frame, &out, false); err != nil {
		return nil, err
	}
	return &out, nil
}

// Scores fetches the live contribution scores over the binary wire format.
// minRound > 0 with wait > 0 long-polls until the stream has ingested that
// many rounds (or the wait elapses — the snapshot returned is whatever the
// stream holds then). Read-only, hence idempotent.
func (c *Client) Scores(ctx context.Context, minRound int, wait time.Duration) (*protocol.ScoresSnapshot, error) {
	path := "/v1/scores"
	if minRound > 0 {
		path = fmt.Sprintf("%s?round=%d&wait=%s", path, minRound, wait)
	}
	var raw rawBody
	if err := c.do(ctx, http.MethodGet, path, "", protocol.ContentTypeFrame, nil, &raw, true); err != nil {
		return nil, err
	}
	if !strings.HasPrefix(raw.contentType, protocol.ContentTypeFrame) {
		return nil, fmt.Errorf("client: scores response has Content-Type %q, want %s", raw.contentType, protocol.ContentTypeFrame)
	}
	f, rest, err := protocol.ParseFrame(raw.data)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d trailing bytes after scores-snapshot frame", len(rest))
	}
	if err != nil {
		return nil, fmt.Errorf("client: scores response: %w", err)
	}
	return protocol.ParseScoresSnapshot(f)
}

// Trace scores a reserved test table at the given tracing parameters,
// waiting synchronously for the asynchronous trace job to finish: submit,
// then poll at PollInterval. A job that *failed* server-side is resubmitted
// (failed jobs are never cached, so the resubmission reruns the trace) up to
// the retry policy's attempt budget.
func (c *Client) Trace(ctx context.Context, test *dataset.Table, tau float64, delta int) (*TraceResponse, error) {
	var csv bytes.Buffer
	if err := dataset.WriteCSV(&csv, test); err != nil {
		return nil, err
	}
	maxAttempts := 1
	if c.Retry != nil {
		maxAttempts = c.Retry.withDefaults().MaxAttempts
	}
	var env *TraceJobResponse
	for n := 1; ; n++ {
		var err error
		env, err = c.traceOnce(ctx, csv.Bytes(), tau, delta)
		if err != nil {
			return nil, err
		}
		if env.Result != nil {
			return env.Result, nil
		}
		if n >= maxAttempts {
			return nil, fmt.Errorf("server: trace job %s %s: %s", env.ID, env.Status, env.Error)
		}
	}
}

// traceOnce submits the trace and polls it to a terminal status.
func (c *Client) traceOnce(ctx context.Context, csv []byte, tau float64, delta int) (*TraceJobResponse, error) {
	path := fmt.Sprintf("/v1/trace?tau=%g&delta=%d", tau, delta)
	var env TraceJobResponse
	// Trace submission is content-addressed (test set + params + state
	// version), so duplicates dedup server-side: idempotent.
	if err := c.do(ctx, http.MethodPost, path, "text/csv", protocol.ContentTypeFrame, csv, &env, true); err != nil {
		return nil, err
	}
	for {
		switch jobs.Status(env.Status) {
		case jobs.StatusDone, jobs.StatusFailed:
			return &env, nil
		}
		t := time.NewTimer(c.pollInterval())
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
		next, err := c.TraceJob(ctx, env.ID)
		if err != nil {
			return nil, err
		}
		env = *next
	}
}

// TraceJob polls one trace job's status and (when done) result.
func (c *Client) TraceJob(ctx context.Context, id string) (*TraceJobResponse, error) {
	var out TraceJobResponse
	if err := c.do(ctx, http.MethodGet, "/v1/trace/"+id, "", protocol.ContentTypeFrame, nil, &out, true); err != nil {
		return nil, err
	}
	return &out, nil
}

// Predict scores a batch of encoded feature rows against the published
// model over the binary wire format. rows is row-major with width values
// per row (the encoder's {0,1} predicate outputs); the returned slice holds
// one pre-threshold score per row. Scoring is read-only, hence idempotent.
func (c *Client) Predict(ctx context.Context, width int, rows []float32) ([]float64, error) {
	frame, err := protocol.AppendPredictRequest(nil, width, rows)
	if err != nil {
		return nil, err
	}
	var raw rawBody
	if err := c.do(ctx, http.MethodPost, "/v1/predict", protocol.ContentTypeFrame, protocol.ContentTypeFrame, frame, &raw, true); err != nil {
		return nil, err
	}
	if !strings.HasPrefix(raw.contentType, protocol.ContentTypeFrame) {
		return nil, fmt.Errorf("client: predict response has Content-Type %q, want %s", raw.contentType, protocol.ContentTypeFrame)
	}
	f, rest, err := protocol.ParseFrame(raw.data)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d trailing bytes after predict-response frame", len(rest))
	}
	if err != nil {
		return nil, fmt.Errorf("client: predict response: %w", err)
	}
	return protocol.ParsePredictResponse(f, nil)
}

// Metrics fetches the Prometheus text exposition of the server's metric
// registry, verbatim.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return "", fmt.Errorf("server: GET /metrics: status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// Rules fetches the extracted rule set.
func (c *Client) Rules(ctx context.Context) ([]RuleJSON, error) {
	var out []RuleJSON
	if err := c.do(ctx, http.MethodGet, "/v1/rules", "", "", nil, &out, true); err != nil {
		return nil, err
	}
	return out, nil
}

// Health fetches the liveness/state summary.
func (c *Client) Health(ctx context.Context) (map[string]any, error) {
	var out map[string]any
	if err := c.do(ctx, http.MethodGet, "/healthz", "", "", nil, &out, true); err != nil {
		return nil, err
	}
	return out, nil
}
