package protocol

// Wire protocol v2: the low-latency frame family the serving path speaks.
//
// Every message — v1 and v2 — shares the canonical CTFL envelope (magic,
// version, type, length-prefixed body, trailing CRC32). Version 1 carries
// only activation uploads and stays accepted forever: the server's WAL
// stores accepted v1 frames byte-for-byte, so decode compatibility is a
// durability requirement, not a courtesy. Version 2 adds the serving-path
// messages:
//
//	type 2  predict request   width uint32, count uint32,
//	                          count×width float32 feature values (row-major)
//	type 3  predict response  count uint32, count float64 scores
//	type 4  trace result      accuracy float64, coverageGap float64,
//	                          4 × (count uint32 + count float64) vectors
//	                          (micro, macro, lossRatio, uselessRatio),
//	                          count uint32 + count uint32 suspects
//	type 5  round update      per-round participant model updates for the
//	                          streaming valuation engine (see v2rounds.go)
//	type 6  scores snapshot   streaming contribution scores (see v2rounds.go)
//	type 8  WAL segment       leader-to-follower replication (see v2cluster.go)
//
// Negotiation is carried by HTTP, not by the frames: a request's
// Content-Type selects the decoder (application/x-ctfl = binary frame,
// application/json = the legacy JSON shape) and its Accept header selects
// the response encoding. Unknown versions or message types are decode
// errors, which the server answers with 400.
//
// The v2 parsers are zero-copy: ParseFrame verifies the CRC and returns a
// Frame whose Body aliases the input buffer, and the typed views read
// straight out of that alias. Encoders are append-style so callers can
// reuse one buffer across messages.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/bitset"
	"repro/internal/core"
)

// Version2 tags the serving-path frame family (predict, trace result).
const Version2 = 2

// ContentTypeFrame is the HTTP media type of CTFL binary frames.
const ContentTypeFrame = "application/x-ctfl"

// Exported v2 message types (the v1 activation upload keeps its private
// constant; it is only ever produced by Upload.Write).
const (
	TypeActivationUpload = msgActivationUpload
	TypePredictRequest   = 2
	TypePredictResponse  = 3
	TypeTraceResult      = 4
)

const (
	frameHeaderLen = 10 // magic + version + type + body length
	frameCRCLen    = 4
	// maxVecLen bounds any length-prefixed vector in a v2 body (defensive
	// against hostile length fields; parsers also verify the remaining
	// bytes before allocating).
	maxVecLen = 1 << 24
)

// Frame is one parsed CTFL frame. Body aliases the buffer handed to
// ParseFrame — it is valid only as long as that buffer is.
type Frame struct {
	Version uint8
	Type    uint8
	Body    []byte
}

// ParseFrame verifies the first frame in b — magic, length bounds, CRC —
// without copying, returning the frame and the bytes that follow it.
func ParseFrame(b []byte) (Frame, []byte, error) {
	if len(b) < frameHeaderLen+frameCRCLen {
		return Frame{}, nil, fmt.Errorf("protocol: truncated frame (%d bytes)", len(b))
	}
	if !bytes.Equal(b[:4], magic[:]) {
		return Frame{}, nil, fmt.Errorf("protocol: bad magic %q", b[:4])
	}
	bodyLen := int64(binary.LittleEndian.Uint32(b[6:frameHeaderLen]))
	total := frameHeaderLen + bodyLen + frameCRCLen
	if total > int64(len(b)) {
		return Frame{}, nil, fmt.Errorf("protocol: frame needs %d bytes, have %d", total, len(b))
	}
	sum := crc32.ChecksumIEEE(b[:frameHeaderLen+bodyLen])
	if binary.LittleEndian.Uint32(b[frameHeaderLen+bodyLen:total]) != sum {
		return Frame{}, nil, fmt.Errorf("protocol: checksum mismatch")
	}
	return Frame{
		Version: b[4],
		Type:    b[5],
		Body:    b[frameHeaderLen : frameHeaderLen+bodyLen : frameHeaderLen+bodyLen],
	}, b[total:], nil
}

// appendFramed builds a frame in place: header with a length placeholder,
// the body via fill, then the patched length and trailing CRC. It never
// materializes the body separately, so encoding into a reused buffer is
// allocation-free once the buffer has grown.
func appendFramed(dst []byte, version, msgType uint8, fill func([]byte) []byte) []byte {
	start := len(dst)
	dst = append(dst, magic[:]...)
	dst = append(dst, version, msgType, 0, 0, 0, 0)
	bodyStart := len(dst)
	dst = fill(dst)
	binary.LittleEndian.PutUint32(dst[start+6:], uint32(len(dst)-bodyStart))
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc32.ChecksumIEEE(dst[start:]))
	return append(dst, crcb[:]...)
}

func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func appendF64(dst []byte, v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return append(dst, b[:]...)
}

// AppendPredictRequest frames len(rows)/width feature rows (row-major
// float32 values) as a v2 predict request appended to dst.
func AppendPredictRequest(dst []byte, width int, rows []float32) ([]byte, error) {
	if width <= 0 {
		return nil, fmt.Errorf("protocol: predict width %d", width)
	}
	if len(rows)%width != 0 {
		return nil, fmt.Errorf("protocol: %d feature values do not divide into width-%d rows", len(rows), width)
	}
	return appendFramed(dst, Version2, TypePredictRequest, func(d []byte) []byte {
		d = appendU32(d, uint32(width))
		d = appendU32(d, uint32(len(rows)/width))
		for _, v := range rows {
			d = appendU32(d, math.Float32bits(v))
		}
		return d
	}), nil
}

// PredictRequest is a zero-copy view of a predict-request body: the feature
// bytes alias the parsed frame.
type PredictRequest struct {
	Width int
	Count int
	raw   []byte // Count*Width float32 values, little-endian
}

// ParsePredictRequest validates a predict-request frame and returns its
// view. No feature data is copied.
func ParsePredictRequest(f Frame) (PredictRequest, error) {
	if f.Version != Version2 || f.Type != TypePredictRequest {
		return PredictRequest{}, fmt.Errorf("protocol: not a predict request (version %d type %d)", f.Version, f.Type)
	}
	if len(f.Body) < 8 {
		return PredictRequest{}, fmt.Errorf("protocol: predict request body too short (%d bytes)", len(f.Body))
	}
	width := int64(binary.LittleEndian.Uint32(f.Body[0:4]))
	count := int64(binary.LittleEndian.Uint32(f.Body[4:8]))
	if width <= 0 || width > maxVecLen {
		return PredictRequest{}, fmt.Errorf("protocol: predict width %d out of range", width)
	}
	if count > maxRecords {
		return PredictRequest{}, fmt.Errorf("protocol: predict row count %d exceeds limit", count)
	}
	if want := 8 + 4*width*count; int64(len(f.Body)) != want {
		return PredictRequest{}, fmt.Errorf("protocol: predict body %d bytes, want %d for %d×%d rows",
			len(f.Body), want, count, width)
	}
	return PredictRequest{Width: int(width), Count: int(count), raw: f.Body[8:]}, nil
}

// AppendRows appends all Count×Width feature values to dst in row-major
// order and returns it.
func (p PredictRequest) AppendRows(dst []float32) []float32 {
	for off := 0; off+4 <= len(p.raw); off += 4 {
		dst = append(dst, math.Float32frombits(binary.LittleEndian.Uint32(p.raw[off:])))
	}
	return dst
}

// AppendPredictResponse frames the scores as a v2 predict response
// appended to dst.
func AppendPredictResponse(dst []byte, scores []float64) []byte {
	return appendFramed(dst, Version2, TypePredictResponse, func(d []byte) []byte {
		d = appendU32(d, uint32(len(scores)))
		for _, s := range scores {
			d = appendF64(d, s)
		}
		return d
	})
}

// ParsePredictResponse decodes a predict-response frame's scores, appending
// them to dst (pass nil for a fresh slice).
func ParsePredictResponse(f Frame, dst []float64) ([]float64, error) {
	if f.Version != Version2 || f.Type != TypePredictResponse {
		return nil, fmt.Errorf("protocol: not a predict response (version %d type %d)", f.Version, f.Type)
	}
	if len(f.Body) < 4 {
		return nil, fmt.Errorf("protocol: predict response body too short (%d bytes)", len(f.Body))
	}
	count := int64(binary.LittleEndian.Uint32(f.Body[0:4]))
	if count > maxVecLen {
		return nil, fmt.Errorf("protocol: predict response count %d exceeds limit", count)
	}
	if want := 4 + 8*count; int64(len(f.Body)) != want {
		return nil, fmt.Errorf("protocol: predict response body %d bytes, want %d", len(f.Body), want)
	}
	for off := int64(4); off < int64(len(f.Body)); off += 8 {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(f.Body[off:])))
	}
	return dst, nil
}

// TraceResult is a completed trace's scores: the canonical result shape
// shared by the JSON API (these field tags are the v1 wire form) and the
// binary v2 trace-result frame.
type TraceResult struct {
	Accuracy     float64   `json:"accuracy"`
	CoverageGap  float64   `json:"coverage_gap"`
	Micro        []float64 `json:"micro"`
	Macro        []float64 `json:"macro"`
	LossRatio    []float64 `json:"loss_ratio"`
	UselessRatio []float64 `json:"useless_ratio"`
	Suspects     []int     `json:"suspects"`
}

// AppendTraceResult frames tr as a v2 trace-result message appended to dst.
func AppendTraceResult(dst []byte, tr *TraceResult) []byte {
	vec := func(d []byte, v []float64) []byte {
		d = appendU32(d, uint32(len(v)))
		for _, x := range v {
			d = appendF64(d, x)
		}
		return d
	}
	return appendFramed(dst, Version2, TypeTraceResult, func(d []byte) []byte {
		d = appendF64(d, tr.Accuracy)
		d = appendF64(d, tr.CoverageGap)
		d = vec(d, tr.Micro)
		d = vec(d, tr.Macro)
		d = vec(d, tr.LossRatio)
		d = vec(d, tr.UselessRatio)
		d = appendU32(d, uint32(len(tr.Suspects)))
		for _, s := range tr.Suspects {
			d = appendU32(d, uint32(s))
		}
		return d
	})
}

// ParseTraceResult decodes a trace-result frame into a fresh TraceResult.
func ParseTraceResult(f Frame) (*TraceResult, error) {
	tr := new(TraceResult)
	if err := ParseTraceResultInto(f, tr); err != nil {
		return nil, err
	}
	return tr, nil
}

// ParseTraceResultInto decodes a trace-result frame into tr, reusing its
// slice capacity: the steady-state decode path allocates nothing once tr's
// vectors have grown to the federation's participant count.
func ParseTraceResultInto(f Frame, tr *TraceResult) error {
	if f.Version != Version2 || f.Type != TypeTraceResult {
		return fmt.Errorf("protocol: not a trace result (version %d type %d)", f.Version, f.Type)
	}
	body := f.Body
	if len(body) < 16 {
		return fmt.Errorf("protocol: trace result body too short (%d bytes)", len(body))
	}
	at := int64(16)
	vec := func(dst []float64) ([]float64, error) {
		if at+4 > int64(len(body)) {
			return nil, fmt.Errorf("protocol: truncated trace result vector")
		}
		n := int64(binary.LittleEndian.Uint32(body[at:]))
		at += 4
		if n > maxVecLen || at+8*n > int64(len(body)) {
			return nil, fmt.Errorf("protocol: trace result vector length %d exceeds body", n)
		}
		dst = dst[:0]
		for i := int64(0); i < n; i++ {
			dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(body[at:])))
			at += 8
		}
		return dst, nil
	}
	var err error
	acc := math.Float64frombits(binary.LittleEndian.Uint64(body[0:8]))
	gap := math.Float64frombits(binary.LittleEndian.Uint64(body[8:16]))
	if tr.Micro, err = vec(tr.Micro); err != nil {
		return err
	}
	if tr.Macro, err = vec(tr.Macro); err != nil {
		return err
	}
	if tr.LossRatio, err = vec(tr.LossRatio); err != nil {
		return err
	}
	if tr.UselessRatio, err = vec(tr.UselessRatio); err != nil {
		return err
	}
	if at+4 > int64(len(body)) {
		return fmt.Errorf("protocol: truncated trace result suspects")
	}
	n := int64(binary.LittleEndian.Uint32(body[at:]))
	at += 4
	if n > maxVecLen || at+4*n > int64(len(body)) {
		return fmt.Errorf("protocol: trace result suspect count %d exceeds body", n)
	}
	tr.Suspects = tr.Suspects[:0]
	for i := int64(0); i < n; i++ {
		tr.Suspects = append(tr.Suspects, int(binary.LittleEndian.Uint32(body[at:])))
		at += 4
	}
	if at != int64(len(body)) {
		return fmt.Errorf("protocol: %d trailing bytes in trace result body", int64(len(body))-at)
	}
	tr.Accuracy, tr.CoverageGap = acc, gap
	return nil
}

// UploadFrameInfo describes one activation-upload frame validated in place.
type UploadFrameInfo struct {
	Participant int
	RuleWidth   int
	Records     int
	// FrameLen is the frame's total byte length (header, body, CRC) —
	// callers slice a batch body into frames with it.
	FrameLen int
}

// ValidateUploadFrame CRC-checks and structurally validates the first
// activation-upload frame in b without materializing any record: no bitsets,
// no Upload, zero heap allocations (pinned by TestValidateUploadFrameZeroAlloc).
// Raw frame bytes it accepts are persisted as they arrived and replayed
// through AppendTrainingRecords or ExtendIndex, with no decode→re-encode
// round trip.
func ValidateUploadFrame(b []byte) (UploadFrameInfo, error) {
	f, rest, err := ParseFrame(b)
	if err != nil {
		return UploadFrameInfo{}, err
	}
	if f.Version != Version {
		return UploadFrameInfo{}, fmt.Errorf("protocol: unsupported version %d", f.Version)
	}
	if f.Type != msgActivationUpload {
		return UploadFrameInfo{}, fmt.Errorf("protocol: unexpected message type %d", f.Type)
	}
	body := f.Body
	if len(body) < 12 {
		return UploadFrameInfo{}, fmt.Errorf("protocol: body too short (%d bytes)", len(body))
	}
	info := UploadFrameInfo{
		Participant: int(binary.LittleEndian.Uint32(body[0:4])),
		RuleWidth:   int(binary.LittleEndian.Uint32(body[4:8])),
		Records:     int(binary.LittleEndian.Uint32(body[8:12])),
		FrameLen:    len(b) - len(rest),
	}
	if info.Participant >= MaxRoundParticipants {
		return UploadFrameInfo{}, fmt.Errorf("protocol: participant id %d outside [0,%d)",
			info.Participant, MaxRoundParticipants)
	}
	if info.Records > maxRecords {
		return UploadFrameInfo{}, fmt.Errorf("protocol: record count %d exceeds limit", info.Records)
	}
	recBytes := int64(1 + (info.RuleWidth+7)/8)
	if want := 12 + int64(info.Records)*recBytes; int64(len(body)) != want {
		return UploadFrameInfo{}, fmt.Errorf("protocol: body length %d, want %d for %d records",
			len(body), want, info.Records)
	}
	at := int64(12)
	for rec := 0; rec < info.Records; rec++ {
		if l := body[at]; l > 1 {
			return UploadFrameInfo{}, fmt.Errorf("protocol: record %d has invalid label %d", rec, l)
		}
		at += recBytes
	}
	return info, nil
}

// uploadRecords re-validates one whole upload frame (it usually arrives from
// the WAL), rejecting trailing bytes, and returns its info
// and record bytes: info.Records records of one label byte plus the packed
// activation bits each.
func uploadRecords(frame []byte) (UploadFrameInfo, []byte, error) {
	info, err := ValidateUploadFrame(frame)
	if err != nil {
		return UploadFrameInfo{}, nil, err
	}
	if info.FrameLen != len(frame) {
		return UploadFrameInfo{}, nil, fmt.Errorf("protocol: %d trailing bytes after frame", len(frame)-info.FrameLen)
	}
	bodyLen := int64(binary.LittleEndian.Uint32(frame[6:frameHeaderLen]))
	return info, frame[frameHeaderLen+12 : frameHeaderLen+bodyLen], nil
}

// AppendTrainingRecords decodes one upload frame's records into
// core.TrainingUpload values appended to dst. All of a frame's activation
// bitsets share a single backing slab, so the decode costs a constant
// number of allocations per frame regardless of record count.
func AppendTrainingRecords(dst []core.TrainingUpload, frame []byte) ([]core.TrainingUpload, UploadFrameInfo, error) {
	info, recs, err := uploadRecords(frame)
	if err != nil {
		return dst, UploadFrameInfo{}, err
	}
	slab := bitset.MakeSlab(info.Records, info.RuleWidth)
	recBytes := 1 + (info.RuleWidth+7)/8
	for i := range slab {
		rec := recs[i*recBytes : (i+1)*recBytes]
		slab[i].SetPackedBytes(rec[1:])
		dst = append(dst, core.TrainingUpload{Owner: info.Participant, Label: int(rec[0]), Activations: &slab[i]})
	}
	return dst, info, nil
}

// ExtendIndex decodes one upload frame's records straight into idx — the
// in-memory half of the server's zero-copy ingest. Every record is unpacked
// into one reusable set that Append only reads, so no decoded bitset
// outlives the call. The frame's rule width must match the index's; on any
// error idx is unchanged.
func ExtendIndex(idx *core.Index, frame []byte) error {
	info, recs, err := uploadRecords(frame)
	if err != nil {
		return err
	}
	if w := idx.Rules().Width(); info.RuleWidth != w {
		return fmt.Errorf("protocol: upload rule width %d, index has %d", info.RuleWidth, w)
	}
	acts := bitset.New(info.RuleWidth)
	recBytes := 1 + (info.RuleWidth+7)/8
	for at := 0; at < len(recs); at += recBytes {
		acts.SetPackedBytes(recs[at+1 : at+recBytes])
		idx.Append(core.TrainingUpload{Owner: info.Participant, Label: int(recs[at]), Activations: acts})
	}
	return nil
}
