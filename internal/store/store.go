// Package store persists the federation server's lifecycle state so a
// restarted ctflsrv reproduces its pre-restart scoring behaviour exactly.
//
// The design is a classic snapshot + write-ahead-log pair:
//
//   - wal.log            append-only log of lifecycle events. Each record is
//     length-prefixed, typed, and CRC32-checked:
//
//     length  uint32 LE   (type byte + payload)
//     type    uint8
//     payload length-1 bytes
//     crc32   uint32 LE   (IEEE, over length+type+payload)
//
//   - snapshot-NNNNNN.snap  versioned full-state snapshots: a magic header
//     followed by the same record format, written to a temp file and
//     published with an atomic rename. Compaction writes a snapshot of the
//     current state and resets the WAL; old snapshots are kept one version
//     deep so a torn write of the newest never loses state.
//
// Replay on boot loads the newest readable snapshot and then the WAL.
// Corruption is tolerated, not fatal: a snapshot that fails its checks is
// skipped in favour of the previous version, and a WAL that ends in a torn
// or corrupt record is truncated at the last good boundary (the standard
// crash-recovery contract — everything before the tear is preserved).
//
// The store is event-agnostic: payloads are opaque bytes. The server layers
// meaning on top (encoder JSON, model bytes, protocol upload frames).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
)

// Event types. The store does not interpret payloads; these constants are
// defined here so every consumer agrees on the numbering.
const (
	// EventEncoder carries the federation encoder as JSON.
	EventEncoder byte = 1
	// EventModel carries the global model in nn binary form.
	EventModel byte = 2
	// EventUpload carries one canonical protocol upload frame.
	EventUpload byte = 3
	// EventRoundEval carries the streaming-valuation evaluation set as CSV,
	// exactly as registered (see internal/rounds).
	EventRoundEval byte = 5
	// EventRound carries one round-stream outcome record (rounds.Outcome
	// payload): the durable unit that lets a restarted server resume
	// streaming contribution scores bit-identically with zero recomputation.
	EventRound byte = 6
	// EventNop carries nothing: it is the degraded-mode health probe — a
	// minimal append whose only purpose is to prove the WAL is writable
	// again. Replay treats it as a no-op.
	EventNop byte = 4
)

// Fault-injection site names (see internal/faults). Each names the exact
// operation the injector may break; an Options.Faults of nil leaves every
// site inert at zero cost.
const (
	// FaultAppend fails a WAL append before any byte is written, so a
	// reported failure never leaves a partial record behind.
	FaultAppend = "store.append"
	// FaultAppendCorrupt flips a byte in the encoded record(s) before the
	// write — simulated silent disk corruption; the append still reports
	// success and recovery happens at replay time (truncation).
	FaultAppendCorrupt = "store.append.corrupt"
	// FaultCompact fails Compact before the snapshot temp file is created.
	FaultCompact = "store.compact"
	// FaultSnapshotCorrupt flips a byte in the encoded snapshot before it
	// is written — replay must fall back to the previous version.
	FaultSnapshotCorrupt = "store.snapshot.corrupt"
	// FaultRename fails the atomic snapshot publish (the rename).
	FaultRename = "store.rename"
)

// Event is one durable lifecycle record.
type Event struct {
	Type    byte
	Payload []byte
}

var snapMagic = []byte("CTFLSNAP\x01")

const (
	walName = "wal.log"
	// maxRecord bounds a single record (defensive against corrupt lengths).
	maxRecord = 1 << 30
	// keepSnapshots is how many snapshot versions survive compaction.
	keepSnapshots = 2
)

// Options tunes a Store.
type Options struct {
	// Sync fsyncs the WAL after every append. Durable but slower; on by
	// default in Open.
	Sync bool
	// Logf receives recovery diagnostics (corruption truncation, snapshot
	// fallback). Defaults to log.Printf.
	Logf func(format string, args ...any)
	// Obs receives store telemetry. Nil disables it (zero overhead beyond
	// one pointer check per instrument).
	Obs *Obs
	// Faults injects failures at the Fault* sites above for resilience
	// testing. Nil (the production default) disables injection entirely.
	Faults *faults.Injector
	// Retain keeps every state-bearing event (replayed and appended, Nops
	// excluded) in memory as the store's logical event log, exposed through
	// Sequence and EventsFrom. Replication leaders enable it to ship WAL
	// segments from any cursor position; it is unbounded, sized by the
	// compaction policy of the layer above.
	Retain bool
}

// Store is a durable event log rooted at one data directory. All methods
// are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	wal       *os.File
	walSize   int64
	walEvents int64
	snapSeq   uint64
	closed    bool
	// retained is the logical event log (Options.Retain); see EventsFrom.
	retained []Event
}

// Open opens (creating if needed) the store at dir and replays its durable
// state: the newest readable snapshot's events followed by the WAL's. The
// returned events are in original append order; applying them to a fresh
// state machine reproduces the pre-restart state.
func Open(dir string, opts Options) (*Store, []Event, error) {
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	if opts.Obs == nil {
		opts.Obs = &Obs{} // inert: every instrument is a nil-safe no-op
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts}

	events, err := s.loadSnapshot()
	if err != nil {
		return nil, nil, err
	}

	walPath := filepath.Join(dir, walName)
	walEvents, goodLen, err := replayFile(walPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, err
	}
	if fi, statErr := os.Stat(walPath); statErr == nil && fi.Size() > goodLen {
		s.opts.Logf("store: wal corrupt after %d bytes (%d events recovered); truncating %d trailing bytes",
			goodLen, len(walEvents), fi.Size()-goodLen)
		s.opts.Obs.ReplayTruncatedBytes.Add(fi.Size() - goodLen)
		if err := os.Truncate(walPath, goodLen); err != nil {
			return nil, nil, fmt.Errorf("store: truncating corrupt wal: %w", err)
		}
	}
	events = append(events, walEvents...)
	s.opts.Obs.ReplayEvents.Add(int64(len(events)))
	if opts.Retain {
		s.retain(events)
	}

	s.wal, err = os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	s.walSize = goodLen
	s.walEvents = int64(len(walEvents))
	s.opts.Obs.WALBytes.Set(float64(s.walSize))
	s.opts.Obs.WALEvents.Set(float64(s.walEvents))
	return s, events, nil
}

// loadSnapshot reads the newest readable snapshot, falling back to older
// versions when the newest fails its header or record checks.
func (s *Store) loadSnapshot() ([]Event, error) {
	seqs, err := s.snapshotSeqs()
	if err != nil {
		return nil, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		path := s.snapshotPath(seqs[i])
		events, err := readSnapshot(path)
		if err != nil {
			s.opts.Logf("store: snapshot %s unreadable (%v); trying previous", filepath.Base(path), err)
			s.opts.Obs.SnapshotFallbacks.Inc()
			continue
		}
		s.snapSeq = seqs[i]
		return events, nil
	}
	return nil, nil
}

func (s *Store) snapshotPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("snapshot-%06d.snap", seq))
}

// snapshotSeqs lists snapshot versions present on disk, ascending.
func (s *Store) snapshotSeqs() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "snapshot-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name, "snapshot-%06d.snap", &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// readSnapshot reads a full snapshot file strictly: unlike the WAL, a
// snapshot was published atomically, so any corruption means the whole file
// is suspect and the caller falls back to the previous version.
func readSnapshot(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	header := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(f, header); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if string(header) != string(snapMagic) {
		return nil, fmt.Errorf("bad magic %q", header)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	off := int64(len(snapMagic))
	var events []Event
	for {
		ev, err := readRecord(f, fi.Size()-off)
		if errors.Is(err, io.EOF) {
			return events, nil
		}
		if err != nil {
			return nil, err
		}
		events = append(events, ev)
		off += recordLen(ev)
	}
}

// replayFile reads records from path until EOF or the first bad record,
// returning the recovered events and the byte offset of the last good
// record boundary.
func replayFile(path string) ([]Event, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	var off int64
	var events []Event
	for {
		ev, err := readRecord(f, fi.Size()-off)
		if err != nil {
			// EOF at a record boundary is a clean end; anything else (torn
			// write, flipped bits) ends replay at the last good offset.
			return events, off, nil
		}
		events = append(events, ev)
		off += recordLen(ev)
	}
}

func recordLen(ev Event) int64 { return 4 + 1 + int64(len(ev.Payload)) + 4 }

// appendRecord encodes one record into buf (reused across calls).
func appendRecord(buf []byte, ev Event) []byte {
	n := 1 + len(ev.Payload)
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(n))
	start := len(buf)
	buf = append(buf, lenb[:]...)
	buf = append(buf, ev.Type)
	buf = append(buf, ev.Payload...)
	sum := crc32.ChecksumIEEE(buf[start:])
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], sum)
	return append(buf, crcb[:]...)
}

// readRecord reads the next record from r, which holds left more bytes. A
// length that overruns them is a torn or corrupt record, rejected before
// its body is allocated.
func readRecord(r io.Reader, left int64) (Event, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return Event{}, err
	}
	n := binary.LittleEndian.Uint32(lenb[:])
	if n < 1 || n > maxRecord {
		return Event{}, fmt.Errorf("store: record length %d out of range", n)
	}
	if 4+int64(n)+4 > left {
		return Event{}, fmt.Errorf("store: record length %d overruns the %d bytes left in the file", n, left)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Event{}, err
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r, crcb[:]); err != nil {
		return Event{}, err
	}
	sum := crc32.NewIEEE()
	sum.Write(lenb[:])
	sum.Write(body)
	if binary.LittleEndian.Uint32(crcb[:]) != sum.Sum32() {
		return Event{}, errors.New("store: record checksum mismatch")
	}
	return Event{Type: body[0], Payload: body[1:]}, nil
}

// Append durably logs one event. The write hits the WAL (and, with
// Options.Sync, the disk) before Append returns, so callers may expose the
// event's effects only after a successful return — write-ahead semantics.
func (s *Store) Append(ev Event) error {
	return s.AppendBatch([]Event{ev})
}

// AppendBatch durably logs a group of events with all-or-nothing reporting:
// the records are encoded into one buffer and written with a single write
// call, and any reported failure happens before a byte reaches the WAL.
// Callers can therefore retry a failed batch without risking duplicate
// application of a prefix — the property the server's upload handler (and
// every retrying client above it) depends on.
func (s *Store) AppendBatch(evs []Event) error {
	if len(evs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	if err := s.opts.Faults.Err(FaultAppend); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	var t0 time.Time
	if s.opts.Obs.AppendSeconds != nil {
		t0 = time.Now()
	}
	var rec []byte
	for _, ev := range evs {
		rec = appendRecord(rec, ev)
	}
	rec = s.opts.Faults.Corrupt(FaultAppendCorrupt, rec)
	if _, err := s.wal.Write(rec); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	if s.opts.Sync {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("store: wal sync: %w", err)
		}
	}
	s.walSize += int64(len(rec))
	s.walEvents += int64(len(evs))
	if s.opts.Retain {
		s.retain(evs)
	}
	if s.opts.Obs.AppendSeconds != nil {
		s.opts.Obs.AppendSeconds.ObserveSince(t0)
		s.opts.Obs.AppendBytes.Observe(float64(len(rec)))
		s.opts.Obs.WALBytes.Set(float64(s.walSize))
		s.opts.Obs.WALEvents.Set(float64(s.walEvents))
	}
	return nil
}

// WALSize reports the current WAL length in bytes, for compaction policy.
func (s *Store) WALSize() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walSize
}

// Compact atomically publishes a new snapshot holding events — the caller's
// minimal re-creation of current state — and resets the WAL. Old snapshots
// beyond keepSnapshots versions are removed only after the new one is
// durably in place.
func (s *Store) Compact(events []Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	if err := s.opts.Faults.Err(FaultCompact); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	var t0 time.Time
	if s.opts.Obs.CompactSeconds != nil {
		t0 = time.Now()
	}
	seq := s.snapSeq + 1
	tmp, err := os.CreateTemp(s.dir, "snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename

	buf := append([]byte(nil), snapMagic...)
	for _, ev := range events {
		buf = appendRecord(buf, ev)
	}
	buf = s.opts.Faults.Corrupt(FaultSnapshotCorrupt, buf)
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("store: snapshot write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.opts.Faults.Err(FaultRename); err != nil {
		return fmt.Errorf("store: snapshot publish: %w", err)
	}
	if err := os.Rename(tmpName, s.snapshotPath(seq)); err != nil {
		return fmt.Errorf("store: snapshot publish: %w", err)
	}

	// The snapshot now covers everything; restart the WAL from empty.
	if err := s.wal.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	wal, err := os.OpenFile(filepath.Join(s.dir, walName), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: wal reset: %w", err)
	}
	s.wal, s.walSize, s.walEvents = wal, 0, 0
	s.snapSeq = seq

	if seqs, err := s.snapshotSeqs(); err == nil && len(seqs) > keepSnapshots {
		for _, old := range seqs[:len(seqs)-keepSnapshots] {
			os.Remove(s.snapshotPath(old))
		}
	}
	if s.opts.Obs.CompactSeconds != nil {
		s.opts.Obs.CompactSeconds.ObserveSince(t0)
		s.opts.Obs.Compactions.Inc()
		s.opts.Obs.WALBytes.Set(0)
		s.opts.Obs.WALEvents.Set(0)
	}
	return nil
}

// Close releases the WAL file handle. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.wal.Close()
}
