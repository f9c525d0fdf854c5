package protocol

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"repro/internal/stats"
)

// checkAllocBound fails t when decode grows TotalAlloc by more than
// perByte·len(input) + 1 MiB: a decoder may allocate in proportion to the
// bytes it received, never to a length its input declares.
func checkAllocBound(t *testing.T, input []byte, perByte uint64, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if grew, limit := after.TotalAlloc-before.TotalAlloc, perByte*uint64(len(input))+1<<20; grew > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes, limit %d", len(input), grew, limit)
	}
}

// refUpload is one activation-upload frame as refDecodeUpload reads it.
type refUpload struct {
	participant, width, frameLen int
	labels                       []int
	bits                         [][]int // set bit indices, per record
}

// refDecodeUpload is a reference decoder of the first v1 activation-upload
// frame in b, written from the layout in protocol.go's package comment and
// sharing no code with the production decoders. Bits past the rule width
// in a record's last byte are ignored.
func refDecodeUpload(b []byte) (*refUpload, error) {
	if len(b) < 14 || string(b[:4]) != "CTFL" || b[4] != 1 || b[5] != 1 {
		return nil, errors.New("bad header")
	}
	n := uint64(binary.LittleEndian.Uint32(b[6:10]))
	if uint64(len(b)) < 10+n+4 {
		return nil, errors.New("truncated")
	}
	if crc32.ChecksumIEEE(b[:10+n]) != binary.LittleEndian.Uint32(b[10+n:]) {
		return nil, errors.New("checksum")
	}
	body := b[10 : 10+n]
	if len(body) < 12 {
		return nil, errors.New("short body")
	}
	u := &refUpload{
		participant: int(binary.LittleEndian.Uint32(body[0:])),
		width:       int(binary.LittleEndian.Uint32(body[4:])),
		frameLen:    int(14 + n),
	}
	count := uint64(binary.LittleEndian.Uint32(body[8:]))
	recLen := 1 + (uint64(u.width)+7)/8
	if u.participant >= MaxRoundParticipants || count > 1<<24 || uint64(len(body))-12 != count*recLen {
		return nil, errors.New("bad body")
	}
	for rec := body[12:]; len(rec) > 0; rec = rec[recLen:] {
		if rec[0] > 1 {
			return nil, errors.New("bad label")
		}
		var bits []int
		for i := 0; i < u.width; i++ {
			if rec[1+i/8]>>(i%8)&1 == 1 {
				bits = append(bits, i)
			}
		}
		u.labels = append(u.labels, int(rec[0]))
		u.bits = append(u.bits, bits)
	}
	return u, nil
}

// checkUploadDecoders fails t unless ValidateUploadFrame and
// AppendTrainingRecords agree with refDecodeUpload on data: the same
// accept/reject (AppendTrainingRecords also rejects bytes after the frame),
// and the same header, labels and bits for every record.
func checkUploadDecoders(t *testing.T, data []byte) {
	t.Helper()
	want, rerr := refDecodeUpload(data)
	info, verr := ValidateUploadFrame(data)
	recs, _, aerr := AppendTrainingRecords(nil, data)
	if (verr == nil) != (rerr == nil) {
		t.Fatalf("ValidateUploadFrame err %v, reference err %v on %d-byte input", verr, rerr, len(data))
	}
	if whole := rerr == nil && want.frameLen == len(data); (aerr == nil) != whole {
		t.Fatalf("AppendTrainingRecords err %v, reference accepts the whole input: %v", aerr, whole)
	}
	if rerr != nil {
		return
	}
	if info.Participant != want.participant || info.RuleWidth != want.width ||
		info.Records != len(want.labels) || info.FrameLen != want.frameLen {
		t.Fatalf("ValidateUploadFrame %+v, reference %d/%d/%d records/%d bytes",
			info, want.participant, want.width, len(want.labels), want.frameLen)
	}
	if aerr != nil {
		return
	}
	if len(recs) != len(want.labels) {
		t.Fatalf("%d records, reference %d", len(recs), len(want.labels))
	}
	for i, r := range recs {
		got := r.Activations.Indices()
		if r.Owner != want.participant || r.Label != want.labels[i] || r.Activations.Width() != want.width ||
			len(got) != len(want.bits[i]) {
			t.Fatalf("record %d: owner %d label %d bits %v, reference %d %d %v",
				i, r.Owner, r.Label, got, want.participant, want.labels[i], want.bits[i])
		}
		for j := range got {
			if got[j] != want.bits[i][j] {
				t.Fatalf("record %d bits %v, reference %v", i, got, want.bits[i])
			}
		}
	}
}

// FuzzUploadFrame: the production decoders of the v1 upload frames the WAL
// stores must agree with the reference decoder on any input, and allocate
// only in proportion to the bytes received.
func FuzzUploadFrame(f *testing.F) {
	valid, err := randomUpload(stats.NewRNG(15), 1, 16, 3).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("CTFL"))
	f.Add(valid[:len(valid)/2])
	huge := append([]byte(nil), valid...)
	huge[8] = 0xFF // inflate body length
	f.Add(huge)
	// A 12- and a 17-byte input whose headers declare a body of about 4 GB:
	// a decoder that allocated the declared length before reading allocated
	// 4.12 GB and 3.86 GB on them.
	f.Add([]byte{'C', 'T', 'F', 'L', 1, 1, 0x00, 0x00, 0x8e, 0xf5, 0x0c, 0x00})
	f.Add([]byte{'C', 'T', 'F', 'L', 1, 1, 0x00, 0x00, 0x20, 0xe6, 0x0c, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		// A width-0 record is one byte and decodes to a 32-byte Set and a
		// 24-byte TrainingUpload, which append's growth can copy a few times.
		checkAllocBound(t, data, 256, func() {
			_, _ = ValidateUploadFrame(data)
			_, _, _ = AppendTrainingRecords(nil, data)
		})
		checkUploadDecoders(t, data)
	})
}
