// Package protocol defines the wire format participants use to upload rule
// activation vectors to the federation server, making CTFL's privacy
// boundary concrete: the only training-data-derived bytes that ever leave a
// client are (label, activation bitset) pairs, optionally perturbed with
// local differential privacy before encoding.
//
// Frame layout (all integers little-endian):
//
//	magic   [4]byte  "CTFL"
//	version uint8    (currently 1)
//	msgType uint8    (1 = activation upload)
//	payload length-prefixed body (uint32)
//	crc32   uint32   (IEEE, over magic..payload)
//
// Activation-upload body:
//
//	participant uint32   (< MaxRoundParticipants)
//	ruleWidth   uint32
//	count       uint32
//	per record: label uint8, packed activation bits (ceil(width/8) bytes)
package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/bitset"
)

var magic = [4]byte{'C', 'T', 'F', 'L'}

// Version of the wire format produced by this package.
const Version = 1

// Message types.
const (
	msgActivationUpload = 1
)

// maxRecords bounds a single upload frame (a defensive limit against
// corrupted or hostile length fields).
const maxRecords = 1 << 24

// Record is one training instance's upload payload.
type Record struct {
	Label       int
	Activations *bitset.Set
}

// Upload is one participant's activation-vector batch.
type Upload struct {
	Participant int
	RuleWidth   int
	Records     []Record
}

// Write encodes the upload as one framed message.
func (u *Upload) Write(w io.Writer) error {
	if u.Participant < 0 || u.Participant >= MaxRoundParticipants {
		return fmt.Errorf("protocol: participant id %d outside [0,%d)", u.Participant, MaxRoundParticipants)
	}
	var body bytes.Buffer
	put32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		body.Write(b[:])
	}
	put32(uint32(u.Participant))
	put32(uint32(u.RuleWidth))
	put32(uint32(len(u.Records)))
	packed := make([]byte, (u.RuleWidth+7)/8)
	for i, rec := range u.Records {
		if rec.Label != 0 && rec.Label != 1 {
			return fmt.Errorf("protocol: record %d has invalid label %d", i, rec.Label)
		}
		if rec.Activations.Width() != u.RuleWidth {
			return fmt.Errorf("protocol: record %d width %d, upload width %d",
				i, rec.Activations.Width(), u.RuleWidth)
		}
		body.WriteByte(byte(rec.Label))
		for b := range packed {
			packed[b] = 0
		}
		for _, bit := range rec.Activations.Indices() {
			packed[bit/8] |= 1 << (bit % 8)
		}
		body.Write(packed)
	}

	var frame bytes.Buffer
	frame.Write(magic[:])
	frame.WriteByte(Version)
	frame.WriteByte(msgActivationUpload)
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(body.Len()))
	frame.Write(lenb[:])
	frame.Write(body.Bytes())
	sum := crc32.ChecksumIEEE(frame.Bytes())
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], sum)
	frame.Write(crcb[:])

	_, err := w.Write(frame.Bytes())
	return err
}

// Encode returns the upload as one framed message, the same bytes Write
// would emit. The server ingests and persists client frames verbatim (see
// ValidateUploadFrame); Encode is the producer-side counterpart for clients
// and tests that build frames from decoded records.
func (u *Upload) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := u.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
