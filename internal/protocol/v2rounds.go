package protocol

// Round-stream frames: the v2 messages behind the streaming per-round
// valuation subsystem (internal/rounds).
//
//	type 5  round update     round uint32, count uint32, paramCount uint32,
//	                         count × (id uint32, weight float64,
//	                                  paramCount × float64 params);
//	                         ids strictly increasing, weights finite and > 0
//	type 6  scores snapshot  rounds uint32, skipped uint32, count uint32,
//	                         count × float64 cumulative scores
//
// A round-update frame carries one aggregation round's participant model
// updates (flat parameter vectors plus FedAvg weights). Like activation
// uploads, the server validates these frames in place and persists outcome
// records derived from them — ValidateRoundUpdateFrame is the zero-alloc
// gate, RoundUpdate the zero-copy view. Parameter values are passed through
// bit-exactly (NaN and ±Inf included): the engine's determinism contract is
// over float64 bit patterns, not semantic values.

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Round-stream v2 message types.
const (
	TypeRoundUpdate    = 5
	TypeScoresSnapshot = 6
)

// MaxRoundParticipants bounds participant ids in round-update and
// activation-upload frames. It matches valuation.MaxParticipants: the engine
// addresses coalitions with a uint64 mask, so an id of 64+ could not join
// any coalition, and the tracer sizes its per-group owner histograms by the
// highest uploaded id.
const MaxRoundParticipants = 64

// roundHeaderLen is the fixed prefix of a round-update body.
const roundHeaderLen = 12

// RoundParticipant is one client's contribution to a round-update frame:
// its id, FedAvg weight (typically the client's data size), and flat model
// parameters after local training.
type RoundParticipant struct {
	ID     int
	Weight float64
	Params []float64
}

// AppendRoundUpdate frames one round's participant updates as a v2
// round-update message appended to dst. Participants must arrive in
// strictly increasing id order with equal-length parameter vectors and
// positive finite weights — the same constraints ValidateRoundUpdateFrame
// enforces, so an encoded frame always validates.
func AppendRoundUpdate(dst []byte, round int, parts []RoundParticipant) ([]byte, error) {
	if round < 0 || int64(round) > math.MaxUint32 {
		return nil, fmt.Errorf("protocol: round %d out of range", round)
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("protocol: round update with no participants")
	}
	paramCount := len(parts[0].Params)
	if paramCount == 0 || paramCount > maxVecLen {
		return nil, fmt.Errorf("protocol: parameter count %d out of range", paramCount)
	}
	prev := -1
	for _, p := range parts {
		if p.ID <= prev || p.ID >= MaxRoundParticipants {
			return nil, fmt.Errorf("protocol: participant id %d not strictly increasing in [0,%d)",
				p.ID, MaxRoundParticipants)
		}
		prev = p.ID
		if len(p.Params) != paramCount {
			return nil, fmt.Errorf("protocol: participant %d has %d params, first has %d",
				p.ID, len(p.Params), paramCount)
		}
		if !(p.Weight > 0) || math.IsInf(p.Weight, 0) {
			return nil, fmt.Errorf("protocol: participant %d weight %v not finite and positive", p.ID, p.Weight)
		}
	}
	return appendFramed(dst, Version2, TypeRoundUpdate, func(d []byte) []byte {
		d = appendU32(d, uint32(round))
		d = appendU32(d, uint32(len(parts)))
		d = appendU32(d, uint32(paramCount))
		for _, p := range parts {
			d = appendU32(d, uint32(p.ID))
			d = appendF64(d, p.Weight)
			for _, v := range p.Params {
				d = appendF64(d, v)
			}
		}
		return d
	}), nil
}

// RoundUpdateInfo describes one round-update frame validated in place.
type RoundUpdateInfo struct {
	Round      int
	Count      int
	ParamCount int
	// FrameLen is the frame's total byte length (header, body, CRC).
	FrameLen int
}

// ValidateRoundUpdateFrame CRC-checks and structurally validates the first
// round-update frame in b without materializing anything: ids strictly
// increasing and < MaxRoundParticipants, weights finite and positive, body
// length exactly consistent with the counts. Zero heap allocations (pinned
// by TestValidateRoundUpdateFrameZeroAlloc). Parameter values are not
// inspected — NaN is legal payload.
func ValidateRoundUpdateFrame(b []byte) (RoundUpdateInfo, error) {
	f, rest, err := ParseFrame(b)
	if err != nil {
		return RoundUpdateInfo{}, err
	}
	if f.Version != Version2 {
		return RoundUpdateInfo{}, fmt.Errorf("protocol: unsupported version %d", f.Version)
	}
	if f.Type != TypeRoundUpdate {
		return RoundUpdateInfo{}, fmt.Errorf("protocol: unexpected message type %d", f.Type)
	}
	info, err := validateRoundBody(f.Body)
	if err != nil {
		return RoundUpdateInfo{}, err
	}
	info.FrameLen = len(b) - len(rest)
	return info, nil
}

// validateRoundBody is the structural walk shared by the frame validator
// and the zero-copy view parser.
func validateRoundBody(body []byte) (RoundUpdateInfo, error) {
	if len(body) < roundHeaderLen {
		return RoundUpdateInfo{}, fmt.Errorf("protocol: round update body too short (%d bytes)", len(body))
	}
	info := RoundUpdateInfo{
		Round:      int(binary.LittleEndian.Uint32(body[0:4])),
		Count:      int(binary.LittleEndian.Uint32(body[4:8])),
		ParamCount: int(binary.LittleEndian.Uint32(body[8:12])),
	}
	if info.Count < 1 || info.Count > MaxRoundParticipants {
		return RoundUpdateInfo{}, fmt.Errorf("protocol: participant count %d outside [1,%d]",
			info.Count, MaxRoundParticipants)
	}
	if info.ParamCount < 1 || info.ParamCount > maxVecLen {
		return RoundUpdateInfo{}, fmt.Errorf("protocol: parameter count %d outside [1,%d]",
			info.ParamCount, maxVecLen)
	}
	stride := int64(4 + 8 + 8*info.ParamCount)
	if want := roundHeaderLen + int64(info.Count)*stride; int64(len(body)) != want {
		return RoundUpdateInfo{}, fmt.Errorf("protocol: body length %d, want %d for %d participants × %d params",
			len(body), want, info.Count, info.ParamCount)
	}
	prev := int64(-1)
	at := int64(roundHeaderLen)
	for i := 0; i < info.Count; i++ {
		id := int64(binary.LittleEndian.Uint32(body[at:]))
		if id <= prev || id >= MaxRoundParticipants {
			return RoundUpdateInfo{}, fmt.Errorf("protocol: participant id %d at index %d not strictly increasing in [0,%d)",
				id, i, MaxRoundParticipants)
		}
		prev = id
		w := math.Float64frombits(binary.LittleEndian.Uint64(body[at+4:]))
		if !(w > 0) || math.IsInf(w, 0) {
			return RoundUpdateInfo{}, fmt.Errorf("protocol: participant %d weight %v not finite and positive", id, w)
		}
		at += stride
	}
	return info, nil
}

// RoundUpdate is a zero-copy view of a validated round-update body: the
// participant records alias the parsed frame.
type RoundUpdate struct {
	Round      int
	Count      int
	ParamCount int
	raw        []byte // Count × (4 + 8 + 8·ParamCount) bytes
}

// ParseRoundUpdate validates a round-update frame and returns its view.
// No parameter data is copied.
func ParseRoundUpdate(f Frame) (RoundUpdate, error) {
	if f.Version != Version2 || f.Type != TypeRoundUpdate {
		return RoundUpdate{}, fmt.Errorf("protocol: not a round update (version %d type %d)", f.Version, f.Type)
	}
	info, err := validateRoundBody(f.Body)
	if err != nil {
		return RoundUpdate{}, err
	}
	return RoundUpdate{
		Round:      info.Round,
		Count:      info.Count,
		ParamCount: info.ParamCount,
		raw:        f.Body[roundHeaderLen:],
	}, nil
}

// stride is one participant record's byte length.
func (u RoundUpdate) stride() int { return 4 + 8 + 8*u.ParamCount }

// ID returns participant i's id (frame order, strictly increasing).
func (u RoundUpdate) ID(i int) int {
	return int(binary.LittleEndian.Uint32(u.raw[i*u.stride():]))
}

// Weight returns participant i's FedAvg weight.
func (u RoundUpdate) Weight(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(u.raw[i*u.stride()+4:]))
}

// ParamRow is one participant's flat parameter vector: ParamCount
// little-endian float64 values aliasing the frame.
type ParamRow []byte

// Row returns participant i's parameters as a zero-copy view.
func (u RoundUpdate) Row(i int) ParamRow {
	at := i*u.stride() + 12
	return ParamRow(u.raw[at : at+8*u.ParamCount])
}

// At returns parameter j, bit-exactly as sent.
func (r ParamRow) At(j int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(r[8*j:]))
}

// ScoresSnapshot is the streaming valuation state at one instant: rounds
// ingested (high-water round + 1), rounds skipped by between-round
// truncation, and the cumulative per-participant contribution scores
// (indexed by participant id).
type ScoresSnapshot struct {
	Rounds  int       `json:"rounds"`
	Skipped int       `json:"skipped_rounds"`
	Scores  []float64 `json:"scores"`
}

// AppendScoresSnapshot frames s as a v2 scores-snapshot message appended
// to dst.
func AppendScoresSnapshot(dst []byte, s *ScoresSnapshot) []byte {
	return appendFramed(dst, Version2, TypeScoresSnapshot, func(d []byte) []byte {
		d = appendU32(d, uint32(s.Rounds))
		d = appendU32(d, uint32(s.Skipped))
		d = appendU32(d, uint32(len(s.Scores)))
		for _, v := range s.Scores {
			d = appendF64(d, v)
		}
		return d
	})
}

// ParseScoresSnapshotInto decodes a scores-snapshot frame into s, reusing
// its Scores capacity. Score values round-trip bit-exactly (NaN included).
func ParseScoresSnapshotInto(f Frame, s *ScoresSnapshot) error {
	if f.Version != Version2 || f.Type != TypeScoresSnapshot {
		return fmt.Errorf("protocol: not a scores snapshot (version %d type %d)", f.Version, f.Type)
	}
	body := f.Body
	if len(body) < 12 {
		return fmt.Errorf("protocol: scores snapshot body too short (%d bytes)", len(body))
	}
	count := int64(binary.LittleEndian.Uint32(body[8:12]))
	if count > maxVecLen {
		return fmt.Errorf("protocol: scores count %d exceeds limit", count)
	}
	if want := 12 + 8*count; int64(len(body)) != want {
		return fmt.Errorf("protocol: scores snapshot body %d bytes, want %d for %d scores",
			len(body), want, count)
	}
	s.Rounds = int(binary.LittleEndian.Uint32(body[0:4]))
	s.Skipped = int(binary.LittleEndian.Uint32(body[4:8]))
	s.Scores = s.Scores[:0]
	for off := int64(12); off < int64(len(body)); off += 8 {
		s.Scores = append(s.Scores, math.Float64frombits(binary.LittleEndian.Uint64(body[off:])))
	}
	return nil
}

// ParseScoresSnapshot decodes a scores-snapshot frame into a fresh value.
func ParseScoresSnapshot(f Frame) (*ScoresSnapshot, error) {
	s := new(ScoresSnapshot)
	if err := ParseScoresSnapshotInto(f, s); err != nil {
		return nil, err
	}
	return s, nil
}
