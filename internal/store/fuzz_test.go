package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// refReplay decodes the longest valid record prefix of wal straight from
// the record format: a u32 LE length in [1, maxRecord], the type byte and
// payload it counts, then a crc32-IEEE LE over the length and that body.
// It returns the decoded events and the prefix length in bytes.
func refReplay(wal []byte) (evs []Event, good int) {
	for {
		rest := wal[good:]
		if len(rest) < 4 {
			return evs, good
		}
		n := binary.LittleEndian.Uint32(rest)
		if n < 1 || n > maxRecord || uint64(len(rest)) < 4+uint64(n)+4 {
			return evs, good
		}
		rec := rest[:4+n]
		if binary.LittleEndian.Uint32(rest[4+n:]) != crc32.ChecksumIEEE(rec) {
			return evs, good
		}
		evs = append(evs, Event{Type: rec[4], Payload: rec[5:]})
		good += len(rec) + 4
	}
}

// FuzzReplay opens a store whose WAL holds arbitrary bytes. Open must not
// panic; it must replay exactly the longest valid record prefix, truncate
// the WAL to it, and replay the same events again on the next Open.
func FuzzReplay(f *testing.F) {
	var valid []byte
	for _, e := range []Event{ev(EventEncoder, "enc"), ev(EventUpload, "frame-a"), ev(EventRound, "")} {
		valid = appendRecord(valid, e)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xff
	f.Add([]byte{})
	f.Add(valid)
	f.Add(append(appendRecord(nil, ev(EventEncoder, "enc")), tornLength...))
	f.Add(flipped)

	quiet := Options{Logf: func(string, ...any) {}}
	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		walPath := filepath.Join(dir, walName)
		if err := os.WriteFile(walPath, wal, 0o644); err != nil {
			t.Fatal(err)
		}
		want, good := refReplay(wal)
		for pass := 0; pass < 2; pass++ {
			s, evs, err := Open(dir, quiet)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			wantEvents(t, evs, want)
			fi, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != int64(good) {
				t.Fatalf("open %d left a %d-byte wal, want the %d-byte valid prefix", pass+1, fi.Size(), good)
			}
		}
	})
}
