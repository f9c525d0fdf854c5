package jobs

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/faults"
)

// TestPanickingJobQuarantinedNotRetried: the poison-job contract. One panic
// → failed status with the panic message, exactly one run, the quarantined
// flag set, and the quarantine counted.
func TestPanickingJobQuarantinedNotRetried(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close(context.Background())
	var runs atomic.Int64
	j, _ := e.Submit("", func(ctx context.Context) (any, error) {
		runs.Add(1)
		panic("poisoned payload")
	})
	v := waitDone(t, e, j)
	if v.Status != StatusFailed {
		t.Fatalf("view = %+v", v)
	}
	if !strings.Contains(v.Err.Error(), "jobs: job panicked: poisoned payload") {
		t.Fatalf("err = %v, want panic message", v.Err)
	}
	var pe *PanicError
	if !errors.As(v.Err, &pe) || pe.Value != "poisoned payload" {
		t.Fatalf("err is not a *PanicError carrying the value: %v", v.Err)
	}
	if runs.Load() != 1 {
		t.Fatalf("poison job ran %d times, want 1 (never retried)", runs.Load())
	}
	if !v.Quarantined {
		t.Fatalf("view = %+v, want quarantined", v)
	}
	if got := e.obs.Quarantined.Value(); got != 1 {
		t.Fatalf("quarantined counter = %d, want 1", got)
	}
}

// TestInjectedFaultFailsJob: an error injected at the jobs.run site is an
// ordinary failure — the job fails without its function running and is not
// quarantined — while an injected panic lands in quarantine like a real one.
func TestInjectedFaultFailsJob(t *testing.T) {
	in := faults.New(31, map[string]faults.Site{
		FaultRun: {ErrProb: 1, MaxFaults: 1},
	})
	e := New(Config{Workers: 1, Faults: in})
	defer e.Close(context.Background())
	var runs atomic.Int64
	fn := func(ctx context.Context) (any, error) {
		runs.Add(1)
		return "ok", nil
	}
	j, _ := e.Submit("k", fn)
	v := waitDone(t, e, j)
	if v.Status != StatusFailed || !errors.Is(v.Err, faults.ErrInjected) || v.Quarantined {
		t.Fatalf("view = %+v, want an unquarantined injected failure", v)
	}
	if runs.Load() != 0 {
		t.Fatalf("fn ran %d times behind an injected failure, want 0", runs.Load())
	}
	// Failed jobs are never cached, so resubmitting the same key reruns it;
	// the fault budget is spent and the job now succeeds.
	j2, _ := e.Submit("k", fn)
	if v := waitDone(t, e, j2); v.Status != StatusDone || v.Result != "ok" || runs.Load() != 1 {
		t.Fatalf("resubmission view = %+v (fn runs %d), want done after one run", v, runs.Load())
	}

	inPanic := faults.New(7, map[string]faults.Site{
		FaultRun: {PanicProb: 1, MaxFaults: 1},
	})
	e2 := New(Config{Workers: 1, Faults: inPanic})
	defer e2.Close(context.Background())
	j3, _ := e2.Submit("", func(ctx context.Context) (any, error) { return "unreached", nil })
	v3 := waitDone(t, e2, j3)
	if !v3.Quarantined {
		t.Fatalf("injected panic view = %+v, want quarantined", v3)
	}
	if !strings.Contains(v3.Err.Error(), "injected panic at jobs.run") {
		t.Fatalf("err = %v", v3.Err)
	}
}
