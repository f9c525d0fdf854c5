package telemetry

import (
	"testing"
	"time"
)

func tickN(e *SLOEvaluator, at time.Time, n int, step time.Duration, drive func(i int)) (time.Time, []SLOTransition) {
	var all []SLOTransition
	for i := 0; i < n; i++ {
		drive(i)
		at = at.Add(step)
		all = append(all, e.Tick(at)...)
	}
	return at, all
}

// breached reports the named objective's breach state as Snapshot shows it.
func breached(e *SLOEvaluator, name string) bool {
	for _, st := range e.Snapshot() {
		if st.Name == name {
			return st.Breached
		}
	}
	return false
}

func TestSLOBreachTripsAndClears(t *testing.T) {
	reg := NewRegistry()
	total := reg.Counter("test_total", "")
	bad := reg.Counter("test_bad", "")
	e := NewSLOEvaluator(reg)
	e.Add(SLOConfig{
		Name: "availability", Target: 0.99,
		FastWindow: time.Minute, SlowWindow: 5 * time.Minute,
		FastBurn: 10, SlowBurn: 5,
		Source: CounterSLOSource{Total: total, Bad: bad},
	})

	now := time.Unix(1_700_000_000, 0)
	// Healthy traffic: no breach.
	now, trs := tickN(e, now, 10, 5*time.Second, func(int) { total.Add(100) })
	if len(trs) != 0 || breached(e, "availability") {
		t.Fatalf("healthy traffic breached: %v", trs)
	}
	// 50% failures: burn = 0.5/0.01 = 50 in both windows once sustained.
	now, trs = tickN(e, now, 12, 5*time.Second, func(int) { total.Add(100); bad.Add(50) })
	if breached(e, "availability") != true {
		t.Fatal("sustained 50% failures did not breach")
	}
	entered := 0
	for _, tr := range trs {
		if tr.Name == "availability" && tr.Breached {
			entered++
		}
	}
	if entered != 1 {
		t.Fatalf("breach entered %d times, want 1", entered)
	}
	// Recovery: healthy traffic long enough to flush both windows clears
	// with hysteresis.
	_, trs = tickN(e, now, 80, 5*time.Second, func(int) { total.Add(100) })
	if breached(e, "availability") {
		t.Fatal("breach did not clear after sustained recovery")
	}
	cleared := false
	for _, tr := range trs {
		if tr.Name == "availability" && !tr.Breached {
			cleared = true
		}
	}
	if !cleared {
		t.Fatal("clear transition not reported")
	}
	if snap := e.Snapshot(); len(snap) != 1 || snap[0].Breaches != 1 || snap[0].Breached {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestSLOSingleSpikeDoesNotBreach(t *testing.T) {
	reg := NewRegistry()
	total := reg.Counter("spike_total", "")
	bad := reg.Counter("spike_bad", "")
	e := NewSLOEvaluator(reg)
	e.Add(SLOConfig{
		Name: "availability", Target: 0.99,
		FastWindow: 30 * time.Second, SlowWindow: 10 * time.Minute,
		FastBurn: 10, SlowBurn: 5,
		Source: CounterSLOSource{Total: total, Bad: bad},
	})
	now := time.Unix(1_700_000_000, 0)
	// Ten minutes of clean traffic, then one bad tick: the fast window
	// burns hot but the slow window dilutes it below threshold.
	now, _ = tickN(e, now, 120, 5*time.Second, func(int) { total.Add(100) })
	total.Add(100)
	bad.Add(100)
	e.Tick(now.Add(5 * time.Second))
	if breached(e, "availability") {
		t.Fatal("one spike against a long clean history breached")
	}
}

func TestSLOHistogramSource(t *testing.T) {
	h := NewHistogram(nil)
	src := HistogramSLOSource{H: h, Bound: 0.25}
	h.Observe(0.01)
	h.Observe(0.2)
	h.Observe(0.3)
	h.Observe(100) // +Inf bucket
	total, over := src.Sample()
	if total != 4 || over != 2 {
		t.Fatalf("histogram source = (%d, %d), want (4, 2)", total, over)
	}
}

func TestSLOGaugeSource(t *testing.T) {
	g := &Gauge{}
	src := &GaugeSLOSource{G: g, Bound: 300}
	g.Set(10)
	src.Sample()
	g.Set(301)
	src.Sample()
	total, bad := src.Sample() // still over
	if total != 3 || bad != 2 {
		t.Fatalf("gauge source = (%d, %d), want (3, 2)", total, bad)
	}
}

func TestSLOResetClearsBreach(t *testing.T) {
	reg := NewRegistry()
	total := reg.Counter("reset_total", "")
	bad := reg.Counter("reset_bad", "")
	e := NewSLOEvaluator(reg)
	e.Add(SLOConfig{
		Name: "wal", Target: 0.99,
		FastWindow: time.Minute, SlowWindow: 2 * time.Minute,
		FastBurn: 2, SlowBurn: 2,
		Source: CounterSLOSource{Total: total, Bad: bad},
	})
	now := time.Unix(1_700_000_000, 0)
	now, _ = tickN(e, now, 10, 5*time.Second, func(int) { total.Add(10); bad.Add(10) })
	if !breached(e, "wal") {
		t.Fatal("total failure did not breach")
	}
	e.Reset("wal")
	if breached(e, "wal") {
		t.Fatal("Reset left the objective breached")
	}
	if snap := e.Snapshot(); snap[0].FastBurn != 0 || snap[0].SlowBurn != 0 {
		t.Fatalf("Reset left burn gauges set: %+v", snap[0])
	}
	// Breach counter survives Reset: it is history, not state.
	if snap := e.Snapshot(); snap[0].Breaches != 1 {
		t.Fatalf("breach count after reset = %d", snap[0].Breaches)
	}
	_ = now
}

func TestSLONilEvaluator(t *testing.T) {
	var e *SLOEvaluator
	if got := e.Tick(time.Unix(0, 0)); got != nil {
		t.Fatalf("nil Tick = %v", got)
	}
	if breached(e, "x") || e.Snapshot() != nil {
		t.Fatal("nil evaluator not inert")
	}
	e.Reset("x")
}

func TestSLOMetricsExported(t *testing.T) {
	reg := NewRegistry()
	total := reg.Counter("m_total", "")
	bad := reg.Counter("m_bad", "")
	e := NewSLOEvaluator(reg)
	e.Add(SLOConfig{Name: "avail", Source: CounterSLOSource{Total: total, Bad: bad}})
	e.Tick(time.Unix(1_700_000_000, 0))
	snap := reg.Snapshot()
	for _, name := range []string{
		`ctfl_slo_burn_rate{slo="avail",window="fast"}`,
		`ctfl_slo_burn_rate{slo="avail",window="slow"}`,
		`ctfl_slo_breach{slo="avail"}`,
		`ctfl_slo_breaches_total{slo="avail"}`,
	} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("metric %s not exported", name)
		}
	}
}
