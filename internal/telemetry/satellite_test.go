package telemetry

// Histogram quantile edge cases, CountOver, and the process runtime gauges.

import (
	"math"
	"testing"
	"time"
)

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram(nil)
	s := h.Snapshot()
	if s.Count != 0 || s.P50 != 0 || s.P95 != 0 || s.P99 != 0 || s.Sum != 0 {
		t.Fatalf("empty histogram snapshot = %+v", s)
	}
	var nilH *Histogram
	if s := nilH.Snapshot(); s != (HistogramSnapshot{}) {
		t.Fatalf("nil histogram snapshot = %+v", s)
	}
}

func TestHistogramQuantileSingleBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // everything lands in the (1, 2] bucket
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	for _, q := range []float64{s.P50, s.P95, s.P99} {
		if q < 1 || q > 2 {
			t.Fatalf("quantile %v escaped the single occupied bucket (1, 2]", q)
		}
	}
	if s.P50 >= s.P95 || s.P95 >= s.P99 {
		t.Fatalf("quantiles not increasing within bucket: %v %v %v", s.P50, s.P95, s.P99)
	}
}

func TestHistogramQuantileOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	for i := 0; i < 10; i++ {
		h.Observe(100) // +Inf bucket
	}
	s := h.Snapshot()
	// The +Inf bucket has no upper bound to interpolate toward; the
	// snapshot reports the last finite bound rather than inventing one.
	if s.P50 != 2 || s.P99 != 2 {
		t.Fatalf("overflow-bucket quantiles = %+v, want last finite bound 2", s)
	}
	if math.IsInf(s.P99, 0) || math.IsNaN(s.P99) {
		t.Fatalf("overflow quantile not finite: %v", s.P99)
	}
}

func TestHistogramCountOver(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.25, 0.5})
	h.Observe(0.05) // (−∞, 0.1]
	h.Observe(0.2)  // (0.1, 0.25]
	h.Observe(0.3)  // (0.25, 0.5]
	h.Observe(0.3)  // (0.25, 0.5]
	h.Observe(99)   // +Inf
	total, over := h.CountOver(0.25)
	if total != 5 || over != 3 {
		t.Fatalf("CountOver(0.25) = (%d, %d), want (5, 3)", total, over)
	}
	if total, over = h.CountOver(0.5); total != 5 || over != 1 {
		t.Fatalf("CountOver(0.5) = (%d, %d), want (5, 1)", total, over)
	}
	var nilH *Histogram
	if total, over = nilH.CountOver(1); total != 0 || over != 0 {
		t.Fatal("nil CountOver not zero")
	}
}

func TestRuntimeStatsCollect(t *testing.T) {
	reg := NewRegistry()
	rs := NewRuntimeStats(reg, time.Now().Add(-3*time.Second))
	rs.Collect()
	snap := reg.Snapshot()
	if g, _ := snap["ctfl_process_goroutines"].(float64); g < 1 {
		t.Fatalf("goroutines gauge = %v", g)
	}
	if h, _ := snap["ctfl_process_heap_alloc_bytes"].(float64); h <= 0 {
		t.Fatalf("heap gauge = %v", h)
	}
	if u, _ := snap["ctfl_process_uptime_seconds"].(float64); u < 2.5 {
		t.Fatalf("uptime gauge = %v", u)
	}
	if _, ok := snap["ctfl_process_open_fds"]; !ok {
		t.Fatal("open fds gauge missing")
	}
	var nilRS *RuntimeStats
	nilRS.Collect()
}
