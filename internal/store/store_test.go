package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// openT opens a store at dir with a live telemetry registry, so tests can
// assert its gauges through s.opts.Obs.
func openT(t *testing.T, dir string) (*Store, []Event) {
	t.Helper()
	s, evs, err := Open(dir, Options{Logf: t.Logf, Obs: NewObs(telemetry.NewRegistry())})
	if err != nil {
		t.Fatal(err)
	}
	return s, evs
}

func ev(typ byte, payload string) Event { return Event{Type: typ, Payload: []byte(payload)} }

func wantEvents(t *testing.T, got, want []Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("event %d = {%d %q}, want {%d %q}",
				i, got[i].Type, got[i].Payload, want[i].Type, want[i].Payload)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, evs := openT(t, dir)
	if len(evs) != 0 {
		t.Fatalf("fresh store replayed %d events", len(evs))
	}
	want := []Event{
		ev(EventEncoder, `{"w":4}`),
		ev(EventModel, "model-bytes\x00\x01"),
		ev(EventUpload, "frame-1"),
		ev(EventUpload, ""), // empty payloads are legal
	}
	for _, e := range want {
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if events, size := s.opts.Obs.WALEvents.Value(), s.opts.Obs.WALBytes.Value(); events != float64(len(want)) || size == 0 {
		t.Fatalf("WAL gauges: %v events, %v bytes", events, size)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, evs2 := openT(t, dir)
	defer s2.Close()
	wantEvents(t, evs2, want)
}

func TestWALCorruptionTruncatesAtLastGoodRecord(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	good := []Event{ev(EventEncoder, "enc"), ev(EventUpload, "frame-a"), ev(EventUpload, "frame-b")}
	for _, e := range good {
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Flip one bit inside the last record's payload: replay must keep the
	// first two records and truncate the file at the last good boundary.
	walPath := filepath.Join(dir, walName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-6] ^= 0xFF
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, evs := openT(t, dir)
	wantEvents(t, evs, good[:2])
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= int64(len(raw)) {
		t.Fatalf("corrupt tail not truncated: %d bytes", fi.Size())
	}

	// Appends after recovery land at the truncated boundary and replay.
	if err := s2.Append(ev(EventUpload, "frame-c")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	_, evs3 := openT(t, dir)
	wantEvents(t, evs3, append(append([]Event(nil), good[:2]...), ev(EventUpload, "frame-c")))
}

func TestTornTailRecordIsDropped(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	s.Append(ev(EventEncoder, "enc"))
	s.Append(ev(EventUpload, "a-longer-frame-payload"))
	s.Close()

	// Simulate a crash mid-write: chop the last record in half.
	walPath := filepath.Join(dir, walName)
	raw, _ := os.ReadFile(walPath)
	os.WriteFile(walPath, raw[:len(raw)-10], 0o644)

	_, evs := openT(t, dir)
	wantEvents(t, evs, []Event{ev(EventEncoder, "enc")})

	// A torn length prefix that claims almost 1 GiB: replay must reject
	// it from the file size, not allocate the body it claims.
	dir = t.TempDir()
	s, _ = openT(t, dir)
	s.Append(ev(EventEncoder, "enc"))
	s.Close()
	walPath = filepath.Join(dir, walName)
	good, _ := os.ReadFile(walPath)
	os.WriteFile(walPath, append(append([]byte(nil), good...), tornLength...), 0o644)

	var evs2 []Event
	if grew := allocDuring(func() { _, evs2 = openT(t, dir) }); grew >= 1<<20 {
		t.Fatalf("replaying a torn length allocated %d bytes", grew)
	}
	wantEvents(t, evs2, []Event{ev(EventEncoder, "enc")})
	if fi, err := os.Stat(walPath); err != nil || fi.Size() != int64(len(good)) {
		t.Fatalf("wal not truncated to its %d-byte good prefix: %v, %v", len(good), fi.Size(), err)
	}
}

// tornLength is a record prefix cut short by a crash: a length of
// 0x3fffffff (just under maxRecord) followed by three bytes of body.
var tornLength = []byte{0xff, 0xff, 0xff, 0x3f, 0x01, 0x02, 0x03}

// allocDuring reports how many heap bytes fn allocated.
func allocDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestCompactSnapshotAndReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	for i := 0; i < 5; i++ {
		s.Append(ev(EventUpload, fmt.Sprintf("frame-%d", i)))
	}
	state := []Event{ev(EventEncoder, "enc"), ev(EventUpload, "merged")}
	if err := s.Compact(state); err != nil {
		t.Fatal(err)
	}
	if got := s.WALSize(); got != 0 {
		t.Fatalf("WAL size after compact = %d", got)
	}
	if got := s.opts.Obs.Compactions.Value(); got != 1 {
		t.Fatalf("compactions = %d, want 1", got)
	}
	// Post-compaction events go to the fresh WAL.
	s.Append(ev(EventUpload, "after"))
	s.Close()

	_, evs := openT(t, dir)
	wantEvents(t, evs, append(append([]Event(nil), state...), ev(EventUpload, "after")))
}

func TestCorruptNewestSnapshotFallsBackToPrevious(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	v1 := []Event{ev(EventEncoder, "enc-v1")}
	if err := s.Compact(v1); err != nil {
		t.Fatal(err)
	}
	v2 := []Event{ev(EventEncoder, "enc-v2"), ev(EventUpload, "u")}
	if err := s.Compact(v2); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Corrupt the newest snapshot; boot must fall back to version 1.
	newest := filepath.Join(dir, "snapshot-000002.snap")
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	os.WriteFile(newest, raw, 0o644)

	s2, evs := openT(t, dir)
	wantEvents(t, evs, v1)
	// The next compaction atomically replaces the corrupt version, and a
	// subsequent boot reads the repaired newest snapshot.
	v3 := []Event{ev(EventEncoder, "enc-v3")}
	if err := s2.Compact(v3); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, evs3 := openT(t, dir)
	wantEvents(t, evs3, v3)
	s3.Close()

	// A torn length prefix after the newest snapshot's records makes it
	// unreadable without allocating the body the length claims.
	newest = filepath.Join(dir, "snapshot-000002.snap")
	raw, err = os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(newest, append(raw, tornLength...), 0o644)
	var s4 *Store
	var evs4 []Event
	if grew := allocDuring(func() { s4, evs4 = openT(t, dir) }); grew >= 1<<20 {
		t.Fatalf("reading a torn snapshot allocated %d bytes", grew)
	}
	defer s4.Close()
	wantEvents(t, evs4, v1)
}

func TestOldSnapshotsPruned(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Compact([]Event{ev(EventEncoder, fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := s.snapshotSeqs()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != keepSnapshots {
		t.Fatalf("kept %d snapshots, want %d", len(seqs), keepSnapshots)
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := s.Append(ev(EventUpload, fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s.Close()
	_, evs := openT(t, dir)
	if len(evs) != writers*per {
		t.Fatalf("replayed %d events, want %d", len(evs), writers*per)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	s, _ := openT(t, t.TempDir())
	s.Close()
	if err := s.Append(ev(EventUpload, "x")); err == nil {
		t.Fatal("append after close should fail")
	}
	if err := s.Compact(nil); err == nil {
		t.Fatal("compact after close should fail")
	}
}
