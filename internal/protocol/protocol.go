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
	"repro/internal/core"
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

// DecodeUpload decodes a single framed activation upload from b, rejecting
// trailing garbage. It is the []byte counterpart of ReadUpload, used when
// frames are stored at rest (e.g. in a WAL) rather than streamed.
func DecodeUpload(b []byte) (*Upload, error) {
	r := bytes.NewReader(b)
	u, err := ReadUpload(r)
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("protocol: %d trailing bytes after frame", r.Len())
	}
	return u, nil
}

// ReadUpload decodes one framed activation upload from r.
func ReadUpload(r io.Reader) (*Upload, error) {
	header := make([]byte, 10) // magic + version + type + body length
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("protocol: reading header: %w", err)
	}
	if !bytes.Equal(header[:4], magic[:]) {
		return nil, fmt.Errorf("protocol: bad magic %q", header[:4])
	}
	if header[4] != Version {
		return nil, fmt.Errorf("protocol: unsupported version %d", header[4])
	}
	if header[5] != msgActivationUpload {
		return nil, fmt.Errorf("protocol: unexpected message type %d", header[5])
	}
	bodyLen := binary.LittleEndian.Uint32(header[6:10])
	if bodyLen < 12 {
		return nil, fmt.Errorf("protocol: body too short (%d bytes)", bodyLen)
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("protocol: reading body: %w", err)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r, crcb[:]); err != nil {
		return nil, fmt.Errorf("protocol: reading checksum: %w", err)
	}
	sum := crc32.NewIEEE()
	sum.Write(header)
	sum.Write(body)
	if got := binary.LittleEndian.Uint32(crcb[:]); got != sum.Sum32() {
		return nil, fmt.Errorf("protocol: checksum mismatch")
	}

	u := &Upload{
		Participant: int(binary.LittleEndian.Uint32(body[0:4])),
		RuleWidth:   int(binary.LittleEndian.Uint32(body[4:8])),
	}
	if u.Participant >= MaxRoundParticipants {
		return nil, fmt.Errorf("protocol: participant id %d outside [0,%d)", u.Participant, MaxRoundParticipants)
	}
	count := binary.LittleEndian.Uint32(body[8:12])
	if count > maxRecords {
		return nil, fmt.Errorf("protocol: record count %d exceeds limit", count)
	}
	if u.RuleWidth < 0 {
		return nil, fmt.Errorf("protocol: negative rule width")
	}
	recBytes := 1 + (u.RuleWidth+7)/8
	want := 12 + int(count)*recBytes
	if int(bodyLen) != want {
		return nil, fmt.Errorf("protocol: body length %d, want %d for %d records", bodyLen, want, count)
	}
	at := 12
	for rec := uint32(0); rec < count; rec++ {
		label := int(body[at])
		if label != 0 && label != 1 {
			return nil, fmt.Errorf("protocol: record %d has invalid label %d", rec, label)
		}
		at++
		s := bitset.New(u.RuleWidth)
		for bit := 0; bit < u.RuleWidth; bit++ {
			if body[at+bit/8]&(1<<(bit%8)) != 0 {
				s.Set(bit)
			}
		}
		at += (u.RuleWidth + 7) / 8
		u.Records = append(u.Records, Record{Label: label, Activations: s})
	}
	return u, nil
}

// ToTrainingUploads converts decoded protocol uploads into the tracer's
// input form. Every upload must agree on ruleWidth; participant ids must be
// dense in [0, numParts).
func ToTrainingUploads(uploads []*Upload, ruleWidth, numParts int) ([]core.TrainingUpload, error) {
	var out []core.TrainingUpload
	for _, u := range uploads {
		if u.RuleWidth != ruleWidth {
			return nil, fmt.Errorf("protocol: upload width %d, server expects %d", u.RuleWidth, ruleWidth)
		}
		if u.Participant >= numParts {
			return nil, fmt.Errorf("protocol: participant %d out of range [0,%d)", u.Participant, numParts)
		}
		for _, rec := range u.Records {
			out = append(out, core.TrainingUpload{
				Owner:       u.Participant,
				Label:       rec.Label,
				Activations: rec.Activations,
			})
		}
	}
	return out, nil
}
