package telemetry

// Multi-window burn-rate SLO evaluation.
//
// An objective declares a target good-fraction (say 99.9% of requests
// under 250ms) and is evaluated the way SRE alerting does it: the error
// budget burn rate — observed bad fraction divided by the budget
// (1 − target) — is computed over a short and a long window, and the
// objective breaches only when BOTH windows burn too fast. The fast
// window makes detection quick; the slow window keeps one spike from
// tripping it. Clearing is hysteretic: both windows must drop below half
// their trip thresholds, so a breach does not flap at the boundary.
//
// Sources are cumulative: each Sample() reports (total, bad) counts since
// process start, and windows are differences between retained samples.
// Time is injected through Tick(now), so tests drive a fake clock.

import (
	"fmt"
	"sync"
	"time"
)

// SLOSource feeds an objective. Sample reports cumulative event counts:
// total observations and how many were bad. Implementations must be
// monotonic (a later Sample never reports smaller values).
type SLOSource interface {
	Sample() (total, bad int64)
}

// CounterSLOSource derives an objective from two counters (e.g. all HTTP
// responses vs 5xx responses).
type CounterSLOSource struct {
	Total *Counter
	Bad   *Counter
}

// Sample implements SLOSource.
func (s CounterSLOSource) Sample() (int64, int64) {
	return s.Total.Value(), s.Bad.Value()
}

// HistogramSLOSource derives an objective from a latency histogram: an
// observation is bad when it lands in a bucket whose upper bound exceeds
// Bound (seconds). Bound should sit on a bucket boundary; it is rounded
// up to one otherwise.
type HistogramSLOSource struct {
	H     *Histogram
	Bound float64
}

// Sample implements SLOSource.
func (s HistogramSLOSource) Sample() (int64, int64) {
	return s.H.CountOver(s.Bound)
}

// GaugeSLOSource derives an objective from a level signal: each Sample
// counts one observation, bad when the gauge is above Bound at sampling
// time (e.g. score staleness in seconds). It accumulates its own totals,
// so one value must feed exactly one objective.
type GaugeSLOSource struct {
	G     *Gauge
	Bound float64

	total int64
	bad   int64
}

// Sample implements SLOSource.
func (s *GaugeSLOSource) Sample() (int64, int64) {
	s.total++
	if s.G.Value() > s.Bound {
		s.bad++
	}
	return s.total, s.bad
}

// SLOConfig declares one objective.
type SLOConfig struct {
	// Name labels the objective's metric families; required and unique.
	Name string
	// Target is the good fraction promised, in (0, 1); 1−Target is the
	// error budget. Default 0.99.
	Target float64
	// FastWindow / SlowWindow are the two burn windows. Defaults 1m / 10m.
	FastWindow time.Duration
	SlowWindow time.Duration
	// FastBurn / SlowBurn are the trip thresholds per window. Defaults
	// 14.4 / 6 (the classic page-severity pairing, scaled to the short
	// windows a single node cares about).
	FastBurn float64
	SlowBurn float64
	// Source feeds the objective; required.
	Source SLOSource
}

// sloSample is one retained cumulative observation.
type sloSample struct {
	at         time.Time
	total, bad int64
}

// objective is one declared SLO plus its window state and instruments.
type objective struct {
	cfg      SLOConfig
	ring     []sloSample // time-ascending, trimmed to SlowWindow
	breached bool

	fastGauge *Gauge
	slowGauge *Gauge
	breachG   *Gauge
	breachesC *Counter
}

// SLOTransition reports one objective changing breach state during a Tick.
type SLOTransition struct {
	Name     string
	Breached bool
}

// SLOStatus is the JSON shape of one objective in the debug bundle.
type SLOStatus struct {
	Name     string  `json:"name"`
	Target   float64 `json:"target"`
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	Breached bool    `json:"breached"`
	Breaches int64   `json:"breaches"`
}

// SLOEvaluator owns a set of objectives and re-evaluates them on Tick.
// All methods are nil-safe and safe for concurrent use.
type SLOEvaluator struct {
	mu   sync.Mutex
	reg  *Registry
	objs []*objective
}

// NewSLOEvaluator returns an evaluator exporting per-objective metric
// families into reg.
func NewSLOEvaluator(reg *Registry) *SLOEvaluator {
	return &SLOEvaluator{reg: reg}
}

// Add declares an objective. Zero config fields take the documented
// defaults; a nil Source or duplicate name panics (registration bug, not
// a runtime condition).
func (e *SLOEvaluator) Add(cfg SLOConfig) {
	if cfg.Source == nil {
		panic("telemetry: SLO objective without a source")
	}
	if cfg.Target <= 0 || cfg.Target >= 1 {
		cfg.Target = 0.99
	}
	if cfg.FastWindow <= 0 {
		cfg.FastWindow = time.Minute
	}
	if cfg.SlowWindow <= 0 {
		cfg.SlowWindow = 10 * time.Minute
	}
	if cfg.FastBurn <= 0 {
		cfg.FastBurn = 14.4
	}
	if cfg.SlowBurn <= 0 {
		cfg.SlowBurn = 6
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, o := range e.objs {
		if o.cfg.Name == cfg.Name {
			panic(fmt.Sprintf("telemetry: SLO objective %q declared twice", cfg.Name))
		}
	}
	o := &objective{cfg: cfg}
	if e.reg != nil {
		o.fastGauge = e.reg.Gauge(
			fmt.Sprintf("ctfl_slo_burn_rate{slo=%q,window=\"fast\"}", cfg.Name),
			"Error-budget burn rate per objective and window.")
		o.slowGauge = e.reg.Gauge(
			fmt.Sprintf("ctfl_slo_burn_rate{slo=%q,window=\"slow\"}", cfg.Name),
			"Error-budget burn rate per objective and window.")
		o.breachG = e.reg.Gauge(
			fmt.Sprintf("ctfl_slo_breach{slo=%q}", cfg.Name),
			"1 while the objective is in breach, else 0.")
		o.breachesC = e.reg.Counter(
			fmt.Sprintf("ctfl_slo_breaches_total{slo=%q}", cfg.Name),
			"Times the objective entered breach.")
	}
	e.objs = append(e.objs, o)
}

// burnOver computes the burn rate over the trailing window ending at the
// newest sample. With fewer than two samples in the window (or no events)
// the burn is 0.
func (o *objective) burnOver(window time.Duration) float64 {
	if len(o.ring) < 2 {
		return 0
	}
	newest := o.ring[len(o.ring)-1]
	cutoff := newest.at.Add(-window)
	base := o.ring[0]
	for _, s := range o.ring[:len(o.ring)-1] {
		if s.at.After(cutoff) {
			break
		}
		base = s
	}
	totalD := newest.total - base.total
	badD := newest.bad - base.bad
	if totalD <= 0 || badD <= 0 {
		return 0
	}
	budget := 1 - o.cfg.Target
	return (float64(badD) / float64(totalD)) / budget
}

// Tick samples every objective at now, updates burn gauges, and returns
// the objectives that changed breach state (breaches tripping or
// clearing) this tick.
func (e *SLOEvaluator) Tick(now time.Time) []SLOTransition {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var changed []SLOTransition
	for _, o := range e.objs {
		total, bad := o.cfg.Source.Sample()
		o.ring = append(o.ring, sloSample{at: now, total: total, bad: bad})
		// Trim to the slow window, always keeping one sample at or before
		// the cutoff as the differencing base.
		cutoff := now.Add(-o.cfg.SlowWindow)
		drop := 0
		for drop < len(o.ring)-1 && !o.ring[drop+1].at.After(cutoff) {
			drop++
		}
		if drop > 0 {
			o.ring = append(o.ring[:0], o.ring[drop:]...)
		}

		fast := o.burnOver(o.cfg.FastWindow)
		slow := o.burnOver(o.cfg.SlowWindow)
		o.fastGauge.Set(fast)
		o.slowGauge.Set(slow)

		was := o.breached
		if !was && fast >= o.cfg.FastBurn && slow >= o.cfg.SlowBurn {
			o.breached = true
			o.breachesC.Inc()
		} else if was && fast < o.cfg.FastBurn/2 && slow < o.cfg.SlowBurn/2 {
			o.breached = false
		}
		if o.breached {
			o.breachG.Set(1)
		} else {
			o.breachG.Set(0)
		}
		if o.breached != was {
			changed = append(changed, SLOTransition{Name: o.cfg.Name, Breached: o.breached})
		}
	}
	return changed
}

// Reset clears the named objective's window and breach state. The
// degraded-mode controller calls this when an external health probe has
// positively verified recovery: the retained bad samples predate the
// probe, so keeping them would re-trip a breach the probe just disproved.
func (e *SLOEvaluator) Reset(name string) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, o := range e.objs {
		if o.cfg.Name != name {
			continue
		}
		o.ring = o.ring[:0]
		o.breached = false
		o.fastGauge.Set(0)
		o.slowGauge.Set(0)
		o.breachG.Set(0)
		return
	}
}

// Snapshot reports every objective's current status, in declaration
// order.
func (e *SLOEvaluator) Snapshot() []SLOStatus {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SLOStatus, 0, len(e.objs))
	for _, o := range e.objs {
		out = append(out, SLOStatus{
			Name:     o.cfg.Name,
			Target:   o.cfg.Target,
			FastBurn: o.fastGauge.Value(),
			SlowBurn: o.slowGauge.Value(),
			Breached: o.breached,
			Breaches: o.breachesC.Value(),
		})
	}
	return out
}
