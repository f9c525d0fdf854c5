// Package telemetry is the repo's stdlib-only observability substrate:
// a metrics registry (atomic counters, float gauges, fixed-bucket
// histograms with quantile snapshots), SLO burn-rate evaluation, and
// log/slog glue with request-id propagation.
//
// Everything is allocation-conscious and safe for concurrent use. The
// packages it instruments (nn, core, jobs, store, server) keep telemetry
// strictly optional: a nil metrics handle or an un-instrumented context
// costs one pointer comparison on the hot path and allocates nothing.
//
// Metric names follow the Prometheus exposition conventions
// (`ctfl_<subsystem>_<what>_<unit>`, labels inline in the registered
// name), and Registry renders both the text exposition format for
// GET /metrics and a JSON snapshot for GET /v1/debug/bundle.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n must be >= 0 by convention).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count. A nil counter reads 0.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 value that can move both ways.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by d (CAS loop; contended adds stay correct).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the gauge. A nil gauge reads 0.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DurationBuckets are the default latency bucket upper bounds, in seconds
// (100µs … 10s, roughly geometric — the range a trace query, a WAL fsync,
// or an HTTP request plausibly lands in).
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are the default size bucket upper bounds, in bytes.
var SizeBuckets = []float64{
	64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20,
}

// Histogram is a fixed-bucket histogram with atomic per-bucket counts.
// Observations are float64 (seconds for latencies, bytes for sizes).
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Int64
	sum    Gauge
	count  atomic.Int64
}

// NewHistogram builds a standalone histogram over the given ascending
// bucket upper bounds (nil means DurationBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DurationBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small and the scan is branch-predictable.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveSince records the elapsed seconds since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// CountOver reports the histogram's total observation count and how many
// observations landed in buckets whose upper bound exceeds bound. This is
// the cumulative feed for latency SLOs: pick bound on a bucket boundary
// and "over" counts every observation that may have exceeded it.
func (h *Histogram) CountOver(bound float64) (total, over int64) {
	if h == nil {
		return 0, 0
	}
	for i, b := range h.bounds {
		c := h.counts[i].Load()
		total += c
		if b > bound {
			over += c
		}
	}
	c := h.counts[len(h.bounds)].Load() // +Inf bucket
	total += c
	over += c
	return total, over
}

// HistogramSnapshot is a point-in-time histogram summary. Quantiles are
// estimated by linear interpolation within the containing bucket.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := HistogramSnapshot{Count: total, Sum: h.sum.Value()}
	if total > 0 {
		s.P50 = quantile(h.bounds, counts, total, 0.50)
		s.P95 = quantile(h.bounds, counts, total, 0.95)
		s.P99 = quantile(h.bounds, counts, total, 0.99)
	}
	return s
}

// quantile interpolates the q-quantile from cumulative bucket counts. The
// +Inf bucket reports its lower bound (the last finite bound).
func quantile(bounds []float64, counts []int64, total int64, q float64) float64 {
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(bounds) { // +Inf bucket
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		if c == 0 {
			return bounds[i]
		}
		frac := (rank - float64(prev)) / float64(c)
		return lo + (bounds[i]-lo)*frac
	}
	return 0
}

// metricKind tags registry entries for TYPE lines and snapshots.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered instrument. Registered names may carry inline
// Prometheus labels — `ctfl_http_requests_total{route="/v1/trace"}` — which
// are split so histograms can merge the `le` label correctly.
type metric struct {
	name   string // full registered name, labels included
	base   string // name up to the label block
	labels string // label block contents without braces, "" if none
	help   string
	kind   metricKind

	c *Counter
	g *Gauge
	h *Histogram
}

// Registry is a named collection of instruments. Registration is
// idempotent by full name: asking for an existing name returns the same
// instrument, so packages can re-derive handles freely.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*metric
	order  []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// register returns the existing entry for name or creates one via mk.
func (r *Registry) register(name, help string, kind metricKind, mk func(m *metric)) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %q registered as %s, requested as %s", name, m.kind, kind))
		}
		return m
	}
	base, labels := splitName(name)
	m := &metric{name: name, base: base, labels: labels, help: help, kind: kind}
	mk(m)
	r.byName[name] = m
	r.order = append(r.order, m)
	return m
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, func(m *metric) { m.c = &Counter{} }).c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, func(m *metric) { m.g = &Gauge{} }).g
}

// Histogram returns (registering on first use) the named histogram over
// the given bucket bounds (nil = DurationBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, kindHistogram, func(m *metric) { m.h = NewHistogram(bounds) }).h
}

// snapshotOrder returns the registered metrics sorted by base name then
// label block, so families render contiguously.
func (r *Registry) snapshotOrder() []*metric {
	r.mu.RLock()
	ms := append([]*metric(nil), r.order...)
	r.mu.RUnlock()
	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].base != ms[j].base {
			return ms[i].base < ms[j].base
		}
		return ms[i].labels < ms[j].labels
	})
	return ms
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE per family, then one sample line per
// instrument (histograms expand into _bucket/_sum/_count series).
func (r *Registry) WritePrometheus(w io.Writer) {
	prevBase := ""
	for _, m := range r.snapshotOrder() {
		if m.base != prevBase {
			if m.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", m.base, m.help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", m.base, m.kind)
			prevBase = m.base
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(w, "%s %d\n", m.name, m.c.Value())
		case kindGauge:
			fmt.Fprintf(w, "%s %g\n", m.name, m.g.Value())
		case kindHistogram:
			writePromHistogram(w, m)
		}
	}
}

func writePromHistogram(w io.Writer, m *metric) {
	h := m.h
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", m.base, labelPrefix(m.labels), formatBound(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", m.base, labelPrefix(m.labels), cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", m.base, labelSuffix(m.labels), h.sum.Value())
	fmt.Fprintf(w, "%s_count%s %d\n", m.base, labelSuffix(m.labels), cum)
}

func labelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

func labelSuffix(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func formatBound(b float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", b), "0"), ".")
}

// Snapshot returns a JSON-friendly view of every instrument, keyed by the
// full registered name: counters and gauges as numbers, histograms as
// {count, sum, p50, p95, p99} objects. This is the debug bundle's
// telemetry block.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	for _, m := range r.snapshotOrder() {
		switch m.kind {
		case kindCounter:
			out[m.name] = m.c.Value()
		case kindGauge:
			out[m.name] = m.g.Value()
		case kindHistogram:
			out[m.name] = m.h.Snapshot()
		}
	}
	return out
}
