package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func waitDone(t *testing.T, e *Engine, j *Job) View {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := e.Wait(ctx, j)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	return v
}

func TestSubmitRunsAndReportsResult(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close(context.Background())
	j, err := e.Submit("k1", func(ctx context.Context) (any, error) { return 42, nil })
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, e, j)
	if v.Status != StatusDone || v.Result != 42 || v.Err != nil {
		t.Fatalf("view = %+v", v)
	}
	if v.Enqueued.IsZero() || v.Started.IsZero() || v.Finished.IsZero() {
		t.Fatalf("timestamps missing: %+v", v)
	}
	got, ok := e.Get(j.ID())
	if !ok || got != j {
		t.Fatal("Get did not find the job")
	}
}

func TestFailedJobStatus(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close(context.Background())
	boom := errors.New("boom")
	j, _ := e.Submit("", func(ctx context.Context) (any, error) { return nil, boom })
	v := waitDone(t, e, j)
	if v.Status != StatusFailed || !errors.Is(v.Err, boom) {
		t.Fatalf("view = %+v", v)
	}
	if got := e.obs.Failed.Value(); got != 1 {
		t.Fatalf("failed counter = %d, want 1", got)
	}
}

func TestPanickingJobFailsWithoutKillingWorker(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close(context.Background())
	j, _ := e.Submit("", func(ctx context.Context) (any, error) { panic("poisoned") })
	if v := waitDone(t, e, j); v.Status != StatusFailed {
		t.Fatalf("view = %+v", v)
	}
	// The single worker must still be alive to run this.
	j2, _ := e.Submit("", func(ctx context.Context) (any, error) { return "ok", nil })
	if v := waitDone(t, e, j2); v.Result != "ok" {
		t.Fatalf("view = %+v", v)
	}
}

func TestContentCacheRunsOnce(t *testing.T) {
	e := New(Config{Workers: 4})
	defer e.Close(context.Background())
	var runs atomic.Int64
	fn := func(ctx context.Context) (any, error) { runs.Add(1); return "r", nil }
	j1, _ := e.Submit("same-key", fn)
	waitDone(t, e, j1)
	j2, err := e.Submit("same-key", fn)
	if err != nil {
		t.Fatal(err)
	}
	if j2 != j1 {
		t.Fatal("cached submission returned a different job")
	}
	v := waitDone(t, e, j2)
	if !v.CacheHit || v.Result != "r" {
		t.Fatalf("view = %+v", v)
	}
	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times", runs.Load())
	}
	if got := e.obs.CacheHits.Value(); got != 1 {
		t.Fatalf("cache hit counter = %d, want 1", got)
	}
}

func TestInFlightDeduplication(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close(context.Background())
	release := make(chan struct{})
	var runs atomic.Int64
	fn := func(ctx context.Context) (any, error) { runs.Add(1); <-release; return 1, nil }
	j1, _ := e.Submit("k", fn)
	j2, _ := e.Submit("k", fn)
	if j1 != j2 {
		t.Fatal("in-flight submission not deduplicated")
	}
	close(release)
	waitDone(t, e, j1)
	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times", runs.Load())
	}
}

func TestFailedJobsAreNotCached(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close(context.Background())
	j1, _ := e.Submit("k", func(ctx context.Context) (any, error) { return nil, errors.New("x") })
	waitDone(t, e, j1)
	j2, _ := e.Submit("k", func(ctx context.Context) (any, error) { return "recovered", nil })
	if j1 == j2 {
		t.Fatal("failed job served from cache")
	}
	if v := waitDone(t, e, j2); v.Result != "recovered" {
		t.Fatalf("view = %+v", v)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 1})
	defer e.Close(context.Background())
	release := make(chan struct{})
	blocker := func(ctx context.Context) (any, error) { <-release; return nil, nil }
	j1, _ := e.Submit("", blocker) // occupies the worker (after dequeue)
	// Fill the queue; depending on scheduling the worker may have already
	// dequeued j1, so allow one extra successful submit before the wall.
	var err error
	for i := 0; i < 3; i++ {
		if _, err = e.Submit("", blocker); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if e.obs.Rejected.Value() == 0 {
		t.Fatal("rejected counter not bumped")
	}
	close(release)
	waitDone(t, e, j1)
}

func TestJobTimeoutCancelsContext(t *testing.T) {
	e := New(Config{Workers: 1, JobTimeout: 20 * time.Millisecond})
	defer e.Close(context.Background())
	j, _ := e.Submit("", func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	v := waitDone(t, e, j)
	if v.Status != StatusFailed || !errors.Is(v.Err, context.DeadlineExceeded) {
		t.Fatalf("view = %+v", v)
	}
}

func TestCloseDrainsQueuedJobs(t *testing.T) {
	e := New(Config{Workers: 2})
	var done atomic.Int64
	const n = 20
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		j, err := e.Submit(fmt.Sprintf("k%d", i), func(ctx context.Context) (any, error) {
			time.Sleep(time.Millisecond)
			done.Add(1)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if done.Load() != n {
		t.Fatalf("drained %d/%d jobs", done.Load(), n)
	}
	for _, j := range jobs {
		if v := j.Snapshot(); v.Status != StatusDone {
			t.Fatalf("job %s status %s after drain", v.ID, v.Status)
		}
	}
	if _, err := e.Submit("late", func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestCloseDeadlineCancelsRunningJobs(t *testing.T) {
	e := New(Config{Workers: 1})
	j, _ := e.Submit("", func(ctx context.Context) (any, error) {
		<-ctx.Done() // only ends when shutdown cancels us
		return nil, ctx.Err()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := e.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("close err = %v", err)
	}
	if v := j.Snapshot(); v.Status != StatusFailed {
		t.Fatalf("job status %s after forced shutdown", v.Status)
	}
}

func TestRetentionEviction(t *testing.T) {
	e := New(Config{Workers: 1, CacheSize: 2, RetainJobs: 3})
	defer e.Close(context.Background())
	ids := []string{}
	for i := 0; i < 6; i++ {
		j, err := e.Submit(fmt.Sprintf("k%d", i), func(ctx context.Context) (any, error) { return i, nil })
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, e, j)
		ids = append(ids, j.ID())
	}
	if _, ok := e.Get(ids[0]); ok {
		t.Fatal("oldest job survived retention limit")
	}
	if _, ok := e.Get(ids[len(ids)-1]); !ok {
		t.Fatal("newest job evicted")
	}
}

func TestConcurrentSubmitsRace(t *testing.T) {
	e := New(Config{Workers: 8, QueueDepth: 512})
	defer e.Close(context.Background())
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				j, err := e.Submit(fmt.Sprintf("g%d-i%d", g%4, i), func(ctx context.Context) (any, error) {
					return g, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				waitDone(t, e, j)
				_ = j.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if running, queued := e.obs.Running.Value(), e.obs.QueueDepth.Value(); running != 0 || queued != 0 {
		t.Fatalf("gauges nonzero after drain: running %v, queued %v", running, queued)
	}
}
