package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

const (
	ctFrame = "application/x-ctfl"
	ctCSV   = "text/csv"
	ctJSON  = "application/json"
	ctOctet = "application/octet-stream"
)

// newHTTPClient is the benchmark's only HTTP client: plain net/http, no
// retries, and at most two connections — one per client goroutine.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
	}}
}

// client sends workload requests to one server and times them. With spans
// set, every request becomes a root span whose request id the server also
// sees as X-Request-Id.
type client struct {
	hc    *http.Client
	base  string
	spans *spanLog
	reqID atomic.Int64
}

// do sends one request and reads the whole response. A transport error or a
// non-2xx status is a failure.
func (c *client) do(ctx context.Context, method, path, ctype, accept string, body []byte) ([]byte, error) {
	b, _, err := c.send(ctx, method, path, ctype, accept, body, "")
	return b, err
}

func (c *client) send(ctx context.Context, method, path, ctype, accept string, body []byte, id string) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, resp.StatusCode, nil
}

// request is one timed exchange of a workload.
type request struct {
	method, path  string
	ctype, accept string
	body          []byte
	valid         func(resp []byte) error // optional: rejects a malformed 200 body
}

// timed sends q and records it in rec; anything but a valid 200 is a
// failure. Latency runs from due when set (open loop: a stalled generator's
// backlog counts), else from the send.
func (c *client) timed(ctx context.Context, rec *recorder, due time.Time, q request) ([]byte, error) {
	var id string
	if c.spans != nil {
		id = rec.route + "#" + strconv.FormatInt(c.reqID.Add(1), 10)
	}
	start := time.Now()
	if due.IsZero() {
		due = start
	}
	resp, status, err := c.send(ctx, q.method, q.path, q.ctype, q.accept, q.body, id)
	end := time.Now()
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%s %s: status %d", q.method, q.path, status)
	}
	if err == nil && q.valid != nil {
		err = q.valid(resp)
	}
	rec.add(due, start, end, len(q.body), err)
	c.spans.add(span{Name: rec.route, RequestID: id}, start, end)
	return resp, err
}

// recorder accumulates one route's samples during a measured phase.
type recorder struct {
	route string

	mu        sync.Mutex
	lat       []float64   // ms; a failed request is +Inf: it misses every limit
	from      []time.Time // when each latency sample started (its due time)
	lateness  []float64   // ms the send started after its due time (open loop)
	failed    int
	bodyBytes int64 // request bytes of successful requests
	firstErr  error
}

func newRecorder(route string) *recorder { return &recorder{route: route} }

// add records one request due at due, sent at start, answered at end.
func (r *recorder) add(due, start, end time.Time, body int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.from = append(r.from, due)
	r.lateness = append(r.lateness, ms(start.Sub(due)))
	lat := end.Sub(due)
	if err != nil {
		r.failed++
		r.lat = append(r.lat, math.Inf(1))
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	r.lat = append(r.lat, ms(lat))
	r.bodyBytes += int64(body)
}

func (r *recorder) count() int { return len(r.lat) }

// mean is the mean latency of successful requests, in ms.
func (r *recorder) mean() float64 {
	var s float64
	n := 0
	for _, v := range r.lat {
		if !math.IsInf(v, 1) {
			s += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

func (r *recorder) sorted() []float64 {
	s := append([]float64(nil), r.lat...)
	sort.Float64s(s)
	return s
}

// scaledSorted is sorted with each latency divided by how much slower than
// the reference the probe found the host while that request ran.
func (r *recorder) scaledSorted(p *speedProbe) []float64 {
	s := make([]float64, len(r.lat))
	for i, v := range r.lat {
		s[i] = v
		if !math.IsInf(v, 1) {
			end := r.from[i].Add(time.Duration(v * float64(time.Millisecond)))
			s[i] = v / p.slowdown(r.from[i], end)
		}
	}
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported.
const minBeyond = 10

// quantile is the nearest-rank q-quantile of sorted samples, and whether at
// least minBeyond samples lie beyond it.
func quantile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := max(0, min(int(math.Ceil(q*float64(n)))-1, n-1))
	return sorted[i], n-1-i >= minBeyond
}

// tailLadder lists the tail percentiles tried, highest first.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75}

// tail is the highest percentile of tailLadder that has minBeyond samples
// beyond it.
func tail(sorted []float64) (q, v float64, ok bool) {
	for _, q := range tailLadder {
		if v, ok := quantile(sorted, q); ok {
			return q, v, true
		}
	}
	return 0, 0, false
}

// quartiles returns the median and the first and third quartiles as
// Python's statistics.quantiles(values, n=4) computes them (the exclusive
// method), which is how the benchmark's spread is judged.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // statistics.quantiles, method="exclusive"
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med = s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return at(1), med, at(3)
}
