package jobs

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// stepClock returns pre-scripted instants in call order, then keeps
// returning the last one. Safe for concurrent use (the engine reads the
// clock from both the submitting and the worker goroutine).
type stepClock struct {
	mu    sync.Mutex
	base  time.Time
	steps []time.Duration
	calls int
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.calls
	if i >= len(c.steps) {
		i = len(c.steps) - 1
	}
	c.calls++
	return c.base.Add(c.steps[i])
}

// TestInjectedClockTimings drives one job through the engine with a fake
// clock: the three timestamp reads (enqueued, started, finished) land on
// scripted instants, so the wait/run histograms and the job view's
// timestamps are exactly predictable.
func TestInjectedClockTimings(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	clock := &stepClock{base: base, steps: []time.Duration{
		0,               // Submit: enqueued
		2 * time.Second, // worker: started (2s queue wait)
		3 * time.Second, // worker: finished (1s run)
	}}
	reg := telemetry.NewRegistry()
	obs := NewObs(reg)
	e := New(Config{Workers: 1, Obs: obs, Now: clock.Now})
	defer e.Close(context.Background())

	j, err := e.Submit("k", func(ctx context.Context) (any, error) { return 42, nil })
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Wait(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}

	if !v.Enqueued.Equal(base) {
		t.Errorf("enqueued = %v, want %v", v.Enqueued, base)
	}
	if !v.Started.Equal(base.Add(2 * time.Second)) {
		t.Errorf("started = %v, want %v", v.Started, base.Add(2*time.Second))
	}
	if !v.Finished.Equal(base.Add(3 * time.Second)) {
		t.Errorf("finished = %v, want %v", v.Finished, base.Add(3*time.Second))
	}

	wait := obs.WaitSeconds.Snapshot()
	if wait.Count != 1 || wait.Sum != 2 {
		t.Errorf("wait histogram count=%d sum=%v, want count=1 sum=2", wait.Count, wait.Sum)
	}
	run := obs.RunSeconds.Snapshot()
	if run.Count != 1 || run.Sum != 1 {
		t.Errorf("run histogram count=%d sum=%v, want count=1 sum=1", run.Count, run.Sum)
	}

	snap := reg.Snapshot()
	for name, want := range map[string]any{
		"ctfl_jobs_submitted_total": int64(1),
		"ctfl_jobs_done_total":      int64(1),
		"ctfl_jobs_failed_total":    int64(0),
		"ctfl_jobs_queue_depth":     0.0,
		"ctfl_jobs_running":         0.0,
	} {
		if snap[name] != want {
			t.Errorf("%s = %v, want %v", name, snap[name], want)
		}
	}
}
