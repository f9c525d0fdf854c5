package protocol

import (
	"bytes"
	"testing"

	"repro/internal/bitset"
)

// FuzzReadUpload feeds arbitrary byte streams to the frame decoder: it must
// either return a structurally valid upload or an error — never panic, and
// never allocate unboundedly from hostile length fields.
func FuzzReadUpload(f *testing.F) {
	// Seed with a valid frame and a few mutations.
	var valid bytes.Buffer
	u := &Upload{
		Participant: 1,
		RuleWidth:   16,
		Records: []Record{
			{Label: 1, Activations: bitset.FromIndices(16, 0, 3, 15)},
			{Label: 0, Activations: bitset.New(16)},
		},
	}
	if err := u.Write(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte("CTFL"))
	truncated := valid.Bytes()[:len(valid.Bytes())/2]
	f.Add(truncated)
	huge := append([]byte(nil), valid.Bytes()...)
	huge[8] = 0xFF // inflate body length
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadUpload(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Any successfully decoded upload must be internally consistent.
		if got.RuleWidth < 0 || got.Participant < 0 || got.Participant >= MaxRoundParticipants {
			t.Fatalf("decoded invalid upload: %+v", got)
		}
		for i, rec := range got.Records {
			if rec.Label != 0 && rec.Label != 1 {
				t.Fatalf("record %d invalid label %d", i, rec.Label)
			}
			if rec.Activations.Width() != got.RuleWidth {
				t.Fatalf("record %d width mismatch", i)
			}
		}
		// Round-trip: re-encoding must produce a decodable frame with the
		// same content.
		var buf bytes.Buffer
		if err := got.Write(&buf); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadUpload(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Participant != got.Participant || len(again.Records) != len(got.Records) {
			t.Fatal("round trip changed content")
		}
	})
}
