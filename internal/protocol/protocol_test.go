package protocol

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/rules"
	"repro/internal/stats"
)

func sampleUpload() *Upload {
	return &Upload{
		Participant: 3,
		RuleWidth:   70,
		Records: []Record{
			{Label: 1, Activations: setOf(70, 0, 5, 63, 64, 69)},
			{Label: 0, Activations: bitset.New(70)},
			{Label: 1, Activations: setOf(70, 7)},
		},
	}
}

// setOf returns a width-bit set holding exactly the listed bits.
func setOf(width int, bits ...int) *bitset.Set {
	s := bitset.New(width)
	for _, b := range bits {
		s.Set(b)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	u := sampleUpload()
	frame, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := AppendTrainingRecords(nil, frame)
	if err != nil {
		t.Fatal(err)
	}
	if info.Participant != u.Participant || info.RuleWidth != u.RuleWidth || len(got) != len(u.Records) {
		t.Fatalf("header mismatch: %+v", info)
	}
	for i := range u.Records {
		if got[i].Owner != u.Participant || got[i].Label != u.Records[i].Label {
			t.Fatalf("record %d owner/label mismatch", i)
		}
		if got[i].Activations.String() != u.Records[i].Activations.String() {
			t.Fatalf("record %d activations mismatch: %s vs %s",
				i, got[i].Activations, u.Records[i].Activations)
		}
	}
}

func TestMultipleFramesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	u1, u2 := sampleUpload(), sampleUpload()
	u2.Participant = 5
	if err := u1.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := u2.Write(&buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	a, err := ValidateUploadFrame(stream)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ValidateUploadFrame(stream[a.FrameLen:])
	if err != nil {
		t.Fatal(err)
	}
	if a.Participant != 3 || b.Participant != 5 || a.FrameLen+b.FrameLen != len(stream) {
		t.Fatalf("frames out of order: %+v, %+v", a, b)
	}
}

func TestWriteValidation(t *testing.T) {
	bad := sampleUpload()
	bad.Records[0].Label = 2
	if err := bad.Write(&bytes.Buffer{}); err == nil {
		t.Fatal("invalid label should fail encode")
	}
	bad2 := sampleUpload()
	bad2.Records[0].Activations = bitset.New(5) // width mismatch
	if err := bad2.Write(&bytes.Buffer{}); err == nil {
		t.Fatal("width mismatch should fail encode")
	}
	bad3 := sampleUpload()
	bad3.Participant = -1
	if err := bad3.Write(&bytes.Buffer{}); err == nil {
		t.Fatal("negative participant should fail encode")
	}
}

func TestCorruptionDetected(t *testing.T) {
	u := sampleUpload()
	raw, err := u.Encode()
	if err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte: checksum must catch it.
	tampered := append([]byte(nil), raw...)
	tampered[15] ^= 0xFF
	if _, err := ValidateUploadFrame(tampered); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("tampered frame err = %v, want checksum error", err)
	}

	// Bad magic.
	badMagic := append([]byte(nil), raw...)
	badMagic[0] = 'X'
	if _, err := ValidateUploadFrame(badMagic); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic err = %v", err)
	}

	// Bad version, under a valid checksum.
	badVer := append([]byte(nil), raw[:len(raw)-frameCRCLen]...)
	badVer[4] = 9
	badVer = binary.LittleEndian.AppendUint32(badVer, crc32.ChecksumIEEE(badVer))
	if _, err := ValidateUploadFrame(badVer); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version err = %v", err)
	}

	// Truncated frame.
	if _, err := ValidateUploadFrame(raw[:8]); err == nil {
		t.Fatal("truncated header should error")
	}
	if _, err := ValidateUploadFrame(raw[:len(raw)-2]); err == nil {
		t.Fatal("truncated checksum should error")
	}
}

// TestEndToEndServerFromWire exercises the full privacy pipeline: clients
// compute activation vectors locally, serialize them, the server decodes
// the frames and builds a tracer — and the scores match the in-process path
// bit for bit.
func TestEndToEndServerFromWire(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	tab := dataset.TicTacToe()
	r := stats.NewRNG(4)
	train, test := tab.Split(r, 0.25)
	parts := fl.PartitionSkewLabel(train, 3, 0.8, r)
	enc, err := dataset.NewEncoder(tab.Schema, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	trainer := fl.NewTrainer(enc, fl.TrainConfig{
		Rounds: 1, LocalEpochs: 6, Parallel: true,
		Model: nn.Config{Hidden: []int{32}, Grafting: true, Seed: 2},
	})
	model, err := trainer.Train(parts)
	if err != nil {
		t.Fatal(err)
	}
	rs := rules.Extract(model, enc)

	// Client side: every participant serializes its activation vectors.
	var wire bytes.Buffer
	for pi, p := range parts {
		acts, _ := rs.ActivationsTable(p.Data)
		up := &Upload{Participant: pi, RuleWidth: rs.Width()}
		for i, a := range acts {
			up.Records = append(up.Records, Record{
				Label:       p.Data.Instances[i].Label,
				Activations: a,
			})
		}
		if err := up.Write(&wire); err != nil {
			t.Fatal(err)
		}
	}

	// Server side: decode frames, build the tracer from uploads only.
	var recs []core.TrainingUpload
	for stream := wire.Bytes(); len(stream) > 0; {
		info, err := ValidateUploadFrame(stream)
		if err != nil {
			t.Fatal(err)
		}
		if recs, _, err = AppendTrainingRecords(recs, stream[:info.FrameLen]); err != nil {
			t.Fatal(err)
		}
		stream = stream[info.FrameLen:]
	}
	cfg := core.Config{TauW: 0.9}
	fromWire := core.NewTracerFromUploads(rs, len(parts), recs, cfg).Trace(test)
	direct := core.NewTracer(rs, parts, cfg).Trace(test)

	a, b := fromWire.MicroScores(), direct.MicroScores()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("wire scores diverge: %v vs %v", a, b)
		}
	}
}
