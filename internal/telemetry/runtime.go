package telemetry

// Process runtime metrics: goroutine count, heap, GC activity, uptime,
// and open file descriptors, refreshed on demand (every /metrics scrape
// and debug-bundle capture) rather than by a background
// poller — a scraped gauge that is seconds stale is useless, and a poller
// would burn cycles when nobody is looking.

import (
	"os"
	"runtime"
	"time"
)

// RuntimeStats owns the process-level gauges.
type RuntimeStats struct {
	start time.Time

	goroutines *Gauge
	heapAlloc  *Gauge
	heapSys    *Gauge
	gcPause    *Gauge
	gcCycles   *Gauge
	uptime     *Gauge
	openFDs    *Gauge
}

// NewRuntimeStats registers the process gauge family in reg. start is the
// process (or server) start time uptime is measured from.
func NewRuntimeStats(reg *Registry, start time.Time) *RuntimeStats {
	return &RuntimeStats{
		start:      start,
		goroutines: reg.Gauge("ctfl_process_goroutines", "Live goroutines."),
		heapAlloc:  reg.Gauge("ctfl_process_heap_alloc_bytes", "Bytes of allocated heap objects."),
		heapSys:    reg.Gauge("ctfl_process_heap_sys_bytes", "Bytes of heap obtained from the OS."),
		gcPause:    reg.Gauge("ctfl_process_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time."),
		gcCycles:   reg.Gauge("ctfl_process_gc_cycles_total", "Completed GC cycles."),
		uptime:     reg.Gauge("ctfl_process_uptime_seconds", "Seconds since the server started."),
		openFDs:    reg.Gauge("ctfl_process_open_fds", "Open file descriptors (-1 where /proc is unavailable)."),
	}
}

// Collect refreshes every process gauge. Nil-safe.
func (s *RuntimeStats) Collect() {
	if s == nil {
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.goroutines.Set(float64(runtime.NumGoroutine()))
	s.heapAlloc.Set(float64(m.HeapAlloc))
	s.heapSys.Set(float64(m.HeapSys))
	s.gcPause.Set(float64(m.PauseTotalNs) / 1e9)
	s.gcCycles.Set(float64(m.NumGC))
	s.uptime.Set(time.Since(s.start).Seconds())
	s.openFDs.Set(float64(countOpenFDs()))
}

// countOpenFDs counts /proc/self/fd entries; -1 on platforms without a
// procfs (the gauge stays present so dashboards keep a stable shape).
func countOpenFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}
