package protocol

import (
	"bytes"
	"testing"
)

func sampleWALRecords() []WALRecord {
	return []WALRecord{
		{Type: 1, Payload: []byte(`{"predicates":3}`)},
		{Type: 3, Payload: bytes.Repeat([]byte{0xAB}, 64)},
		{Type: 6, Payload: []byte{}},
		{Type: 5, Payload: []byte("round eval")},
	}
}

func TestWALSegmentRoundTrip(t *testing.T) {
	recs := sampleWALRecords()
	buf, err := AppendWALSegment(nil, 42, false, recs)
	if err != nil {
		t.Fatalf("AppendWALSegment: %v", err)
	}
	fr, rest, err := ParseFrame(buf)
	if err != nil {
		t.Fatalf("ParseFrame: %v", err)
	}
	if len(rest) != 0 || fr.Version != Version2 || fr.Type != TypeWALSegment {
		t.Fatalf("frame envelope wrong: rest=%d version=%d type=%d", len(rest), fr.Version, fr.Type)
	}
	seg, err := ParseWALSegment(fr)
	if err != nil {
		t.Fatalf("ParseWALSegment: %v", err)
	}
	if seg.StartSeq != 42 || seg.Reset || seg.Count != len(recs) {
		t.Fatalf("segment header = %+v", seg)
	}
	got := seg.AppendRecords(nil)
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Type != recs[i].Type || !bytes.Equal(got[i].Payload, recs[i].Payload) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
	}
}

func TestWALSegmentResetFlag(t *testing.T) {
	buf, err := AppendWALSegment(nil, 0, true, sampleWALRecords())
	if err != nil {
		t.Fatalf("AppendWALSegment(reset): %v", err)
	}
	fr, _, err := ParseFrame(buf)
	if err != nil {
		t.Fatalf("ParseFrame: %v", err)
	}
	seg, err := ParseWALSegment(fr)
	if err != nil {
		t.Fatalf("ParseWALSegment: %v", err)
	}
	if !seg.Reset || seg.StartSeq != 0 {
		t.Fatalf("reset segment = %+v", seg)
	}
	if _, err := AppendWALSegment(nil, 7, true, nil); err == nil {
		t.Fatal("reset segment with nonzero startSeq encoded")
	}
}

func TestWALSegmentRejects(t *testing.T) {
	if _, err := AppendWALSegment(nil, 0, false, []WALRecord{{Type: 0}}); err == nil {
		t.Fatal("zero record type encoded")
	}

	// Unknown flag bits.
	good, err := AppendWALSegment(nil, 3, false, sampleWALRecords())
	if err != nil {
		t.Fatal(err)
	}
	fr, _, err := ParseFrame(good)
	if err != nil {
		t.Fatal(err)
	}
	badFlags := append([]byte(nil), fr.Body...)
	badFlags[0] |= 0x80
	if _, err := ParseWALSegment(Frame{Version: Version2, Type: TypeWALSegment, Body: badFlags}); err == nil {
		t.Fatal("unknown flag bits accepted")
	}

	// Wrong frame type.
	if _, err := ParseWALSegment(Frame{Version: Version2, Type: TypeTraceResult, Body: fr.Body}); err == nil {
		t.Fatal("wrong message type accepted")
	}

	// Truncated record region.
	trunc := append([]byte(nil), fr.Body...)
	trunc = trunc[:len(trunc)-1]
	if _, err := ParseWALSegment(Frame{Version: Version2, Type: TypeWALSegment, Body: trunc}); err == nil {
		t.Fatal("truncated body accepted")
	}

	// Trailing bytes.
	trail := append(append([]byte(nil), fr.Body...), 0xFF)
	if _, err := ParseWALSegment(Frame{Version: Version2, Type: TypeWALSegment, Body: trail}); err == nil {
		t.Fatal("trailing bytes accepted")
	}

	// Hostile payload length pointing past the body.
	hostile := append([]byte(nil), fr.Body...)
	hostile[walSegmentHeaderLen+1] = 0xFF
	hostile[walSegmentHeaderLen+2] = 0xFF
	if _, err := ParseWALSegment(Frame{Version: Version2, Type: TypeWALSegment, Body: hostile}); err == nil {
		t.Fatal("hostile payload length accepted")
	}
}

func TestWALSegmentEmpty(t *testing.T) {
	buf, err := AppendWALSegment(nil, 9, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	fr, _, err := ParseFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := ParseWALSegment(fr)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Count != 0 || seg.StartSeq != 9 || len(seg.AppendRecords(nil)) != 0 {
		t.Fatalf("empty segment = %+v", seg)
	}
}

// FuzzWALSegment pins the codec round trip: any frame the parser accepts
// re-encodes to bit-identical body bytes (canonical encoding), and the
// re-decoded records match.
func FuzzWALSegment(f *testing.F) {
	seed, err := AppendWALSegment(nil, 17, false, sampleWALRecords())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	reset, err := AppendWALSegment(nil, 0, true, sampleWALRecords()[:1])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(reset)
	empty, err := AppendWALSegment(nil, 0, false, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			fr   Frame
			seg  WALSegment
			recs []WALRecord
			err  error
		)
		// A record of at least 5 bytes decodes to a 32-byte WALRecord that
		// aliases its payload, copied a few times as append grows recs.
		checkAllocBound(t, data, 32, func() {
			if fr, _, err = ParseFrame(data); err != nil {
				return
			}
			if seg, err = ParseWALSegment(fr); err == nil {
				recs = seg.AppendRecords(nil)
			}
		})
		if err != nil {
			return
		}
		re, err := AppendWALSegment(nil, seg.StartSeq, seg.Reset, recs)
		if err != nil {
			t.Fatalf("re-encode of accepted segment failed: %v", err)
		}
		fr2, rest, err := ParseFrame(re)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded frame invalid: %v (rest %d)", err, len(rest))
		}
		if !bytes.Equal(fr2.Body, fr.Body) {
			t.Fatalf("non-canonical encoding: %x vs %x", fr2.Body, fr.Body)
		}
		seg2, err := ParseWALSegment(fr2)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		recs2 := seg2.AppendRecords(nil)
		if len(recs2) != len(recs) || seg2.StartSeq != seg.StartSeq || seg2.Reset != seg.Reset {
			t.Fatalf("round-trip header mismatch: %+v vs %+v", seg2, seg)
		}
		for i := range recs {
			if recs2[i].Type != recs[i].Type || !bytes.Equal(recs2[i].Payload, recs[i].Payload) {
				t.Fatalf("round-trip record %d mismatch", i)
			}
		}
	})
}
