package store

import (
	"errors"
	"testing"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// openFaulty opens a store at dir with the given injector wired in and a
// live telemetry registry so tests can assert recovery counters.
func openFaulty(t *testing.T, dir string, in *faults.Injector) (*Store, []Event, *Obs) {
	t.Helper()
	obs := NewObs(telemetry.NewRegistry())
	s, evs, err := Open(dir, Options{Logf: t.Logf, Obs: obs, Faults: in})
	if err != nil {
		t.Fatal(err)
	}
	return s, evs, obs
}

// TestInjectedAppendFailureLeavesWALConsistent pins the all-or-nothing
// contract: an injected append failure writes no bytes, so the caller can
// retry the same batch and replay sees each event exactly once.
func TestInjectedAppendFailureLeavesWALConsistent(t *testing.T) {
	dir := t.TempDir()
	in := faults.New(21, map[string]faults.Site{
		FaultAppend: {ErrProb: 1, MaxFaults: 2},
	})
	s, _, obs := openFaulty(t, dir, in)

	batch := []Event{ev(EventEncoder, "enc"), ev(EventUpload, "frame-a"), ev(EventUpload, "frame-b")}
	var failures int
	for {
		err := s.AppendBatch(batch)
		if err == nil {
			break
		}
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("unexpected error kind: %v", err)
		}
		failures++
		if failures > 10 {
			t.Fatal("append never succeeded despite bounded fault budget")
		}
	}
	if failures != 2 {
		t.Fatalf("observed %d injected failures, want MaxFaults=2", failures)
	}
	if got := obs.WALEvents.Value(); got != float64(len(batch)) {
		t.Fatalf("WAL holds %v events after retries, want %d (no duplicate prefix)", got, len(batch))
	}
	s.Close()

	_, evs := openT(t, dir)
	wantEvents(t, evs, batch)
}

// TestInjectedAppendCorruptionTruncatedOnReplay drives the silent-corruption
// site: the append reports success, but replay must detect the flipped byte,
// truncate at the last good boundary, and count the dropped bytes.
func TestInjectedAppendCorruptionTruncatedOnReplay(t *testing.T) {
	dir := t.TempDir()
	in := faults.New(5, map[string]faults.Site{
		FaultAppendCorrupt: {CorruptProb: 1, MaxFaults: 1},
	})
	s, _, _ := openFaulty(t, dir, in)

	good := []Event{ev(EventEncoder, "enc"), ev(EventUpload, "frame-clean")}
	for _, e := range good {
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	// Exhaust the non-corrupting writes first? No — the budget is 1, and the
	// first append already spent it. Verify the injector actually fired.
	if in.SiteStats(FaultAppendCorrupt).Corruptions != 1 {
		t.Fatalf("corruption did not fire: %+v", in.SiteStats(FaultAppendCorrupt))
	}
	s.Close()

	obs := NewObs(telemetry.NewRegistry())
	s2, evs, err := Open(dir, Options{Logf: t.Logf, Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// The first record was corrupted in flight, so replay truncates at offset
	// zero and the clean second record (written after the corrupt one) is
	// unreachable — exactly the crash-recovery contract.
	if len(evs) != 0 {
		t.Fatalf("replayed %d events past a corrupt first record", len(evs))
	}
	if obs.ReplayTruncatedBytes.Value() == 0 {
		t.Fatal("ReplayTruncatedBytes counter did not record the dropped tail")
	}
	// The store is writable again after truncation.
	if err := s2.Append(ev(EventUpload, "post-recovery")); err != nil {
		t.Fatal(err)
	}
}

// TestInjectedSnapshotCorruptionFallsBack: a snapshot corrupted at write
// time is skipped on boot in favour of the previous version, bumping the
// fallback counter.
func TestInjectedSnapshotCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	v1 := []Event{ev(EventEncoder, "enc-v1")}
	if err := s.Compact(v1); err != nil {
		t.Fatal(err)
	}
	s.Close()

	in := faults.New(13, map[string]faults.Site{
		FaultSnapshotCorrupt: {CorruptProb: 1, MaxFaults: 1},
	})
	s2, _, _ := openFaulty(t, dir, in)
	v2 := []Event{ev(EventEncoder, "enc-v2"), ev(EventUpload, "u")}
	// Compact succeeds from the store's point of view — the corruption is
	// silent, discovered only at replay.
	if err := s2.Compact(v2); err != nil {
		t.Fatal(err)
	}
	if in.SiteStats(FaultSnapshotCorrupt).Corruptions != 1 {
		t.Fatal("snapshot corruption did not fire")
	}
	s2.Close()

	obs := NewObs(telemetry.NewRegistry())
	s3, evs, err := Open(dir, Options{Logf: t.Logf, Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	wantEvents(t, evs, v1)
	if obs.SnapshotFallbacks.Value() == 0 {
		t.Fatal("SnapshotFallbacks counter did not record the skip")
	}
}

// TestInjectedRenameFailureKeepsWAL: when the atomic snapshot publish fails,
// Compact errors out, the WAL still holds every event, and a retry succeeds.
func TestInjectedRenameFailureKeepsWAL(t *testing.T) {
	dir := t.TempDir()
	in := faults.New(17, map[string]faults.Site{
		FaultRename: {ErrProb: 1, MaxFaults: 1},
	})
	s, _, obs := openFaulty(t, dir, in)

	live := []Event{ev(EventEncoder, "enc"), ev(EventUpload, "frame")}
	for _, e := range live {
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	state := []Event{ev(EventEncoder, "enc"), ev(EventUpload, "merged")}
	err := s.Compact(state)
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Compact err = %v, want injected rename failure", err)
	}
	// The failed compaction must not have reset the WAL.
	if events, compactions := obs.WALEvents.Value(), obs.Compactions.Value(); events != float64(len(live)) || compactions != 0 {
		t.Fatalf("after failed compact: %v WAL events, %d compactions", events, compactions)
	}
	// Budget spent: the retry publishes cleanly.
	if err := s.Compact(state); err != nil {
		t.Fatal(err)
	}
	if events, compactions := obs.WALEvents.Value(), obs.Compactions.Value(); events != 0 || compactions != 1 {
		t.Fatalf("after retried compact: %v WAL events, %d compactions", events, compactions)
	}
	s.Close()

	_, evs := openT(t, dir)
	wantEvents(t, evs, state)
}

// TestInjectedCompactFailureLeavesStoreUsable: a failure at the compaction
// entry site leaves both WAL and snapshot chain untouched.
func TestInjectedCompactFailureLeavesStoreUsable(t *testing.T) {
	dir := t.TempDir()
	in := faults.New(29, map[string]faults.Site{
		FaultCompact: {ErrProb: 1, MaxFaults: 1},
	})
	s, _, _ := openFaulty(t, dir, in)
	if err := s.Append(ev(EventUpload, "frame")); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact([]Event{ev(EventUpload, "frame")}); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Compact err = %v, want injected", err)
	}
	if err := s.Compact([]Event{ev(EventUpload, "frame")}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	_, evs := openT(t, dir)
	wantEvents(t, evs, []Event{ev(EventUpload, "frame")})
}
