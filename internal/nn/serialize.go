package nn

// Model serialization: the federation persists the trained global model
// between the training and tracing phases (and across server restarts),
// so the deployed rule-based model needs a stable binary form. The format
// is self-describing enough to rebuild the model without the original
// Config literal.
//
// Layout (little-endian):
//
//	magic    "CTNN"
//	version  uint8 (1)
//	inDim    uint32
//	layers   uint32, then per layer: hidden uint32
//	flags    uint8 (bit0 grafting, bit1 freezeBias, bit2 keepBest)
//	lr, l1, l2  float64
//	epochs, batch uint32
//	seed     int64
//	params   uint32 count, then float64 each
//	crc32    uint32 over everything above

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

var nnMagic = [4]byte{'C', 'T', 'N', 'N'}

const serializeVersion = 1

// WriteTo serializes the model. It implements io.WriterTo.
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	buf.Write(nnMagic[:])
	buf.WriteByte(serializeVersion)
	put32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	putF := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		buf.Write(b[:])
	}
	put32(uint32(m.inDim))
	put32(uint32(len(m.cfg.Hidden)))
	for _, h := range m.cfg.Hidden {
		put32(uint32(h))
	}
	var flags uint8
	if m.cfg.Grafting {
		flags |= 1
	}
	if m.cfg.FreezeBias {
		flags |= 2
	}
	if m.cfg.KeepBest {
		flags |= 4
	}
	buf.WriteByte(flags)
	putF(m.cfg.LearningRate)
	putF(m.cfg.L1Logic)
	putF(m.cfg.L2Head)
	put32(uint32(m.cfg.Epochs))
	put32(uint32(m.cfg.BatchSize))
	var seedb [8]byte
	binary.LittleEndian.PutUint64(seedb[:], uint64(m.cfg.Seed))
	buf.Write(seedb[:])

	params := m.Params()
	put32(uint32(len(params)))
	for _, p := range params {
		putF(p)
	}
	sum := crc32.ChecksumIEEE(buf.Bytes())
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], sum)
	buf.Write(crcb[:])

	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// ReadModel deserializes a model written by WriteTo.
func ReadModel(r io.Reader) (*Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("nn: reading model: %w", err)
	}
	if len(data) < 14 {
		return nil, fmt.Errorf("nn: model data too short (%d bytes)", len(data))
	}
	body, crcb := data[:len(data)-4], data[len(data)-4:]
	if binary.LittleEndian.Uint32(crcb) != crc32.ChecksumIEEE(body) {
		return nil, fmt.Errorf("nn: model checksum mismatch")
	}
	if !bytes.Equal(body[:4], nnMagic[:]) {
		return nil, fmt.Errorf("nn: bad magic %q", body[:4])
	}
	if body[4] != serializeVersion {
		return nil, fmt.Errorf("nn: unsupported model version %d", body[4])
	}
	at := 5
	get32 := func() (uint32, error) {
		if at+4 > len(body) {
			return 0, fmt.Errorf("nn: truncated model data")
		}
		v := binary.LittleEndian.Uint32(body[at:])
		at += 4
		return v, nil
	}
	getF := func() (float64, error) {
		if at+8 > len(body) {
			return 0, fmt.Errorf("nn: truncated model data")
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(body[at:]))
		at += 8
		return v, nil
	}
	inDim, err := get32()
	if err != nil {
		return nil, err
	}
	nLayers, err := get32()
	if err != nil {
		return nil, err
	}
	if nLayers > 64 {
		return nil, fmt.Errorf("nn: implausible layer count %d", nLayers)
	}
	cfg := Config{}
	for i := uint32(0); i < nLayers; i++ {
		h, err := get32()
		if err != nil {
			return nil, err
		}
		cfg.Hidden = append(cfg.Hidden, int(h))
	}
	if at >= len(body) {
		return nil, fmt.Errorf("nn: truncated model data")
	}
	flags := body[at]
	at++
	cfg.Grafting = flags&1 != 0
	cfg.FreezeBias = flags&2 != 0
	cfg.KeepBest = flags&4 != 0
	if cfg.LearningRate, err = getF(); err != nil {
		return nil, err
	}
	if cfg.L1Logic, err = getF(); err != nil {
		return nil, err
	}
	if cfg.L2Head, err = getF(); err != nil {
		return nil, err
	}
	epochs, err := get32()
	if err != nil {
		return nil, err
	}
	batch, err := get32()
	if err != nil {
		return nil, err
	}
	cfg.Epochs, cfg.BatchSize = int(epochs), int(batch)
	if at+8 > len(body) {
		return nil, fmt.Errorf("nn: truncated model data")
	}
	cfg.Seed = int64(binary.LittleEndian.Uint64(body[at:]))
	at += 8

	nParams, err := get32()
	if err != nil {
		return nil, err
	}
	// Check the shape against the data before New allocates it: New sizes
	// the parameters and both Adam moments from the header alone.
	if want, ok := paramCount(uint64(inDim), cfg.withDefaults().Hidden); !ok || want != uint64(nParams) {
		return nil, fmt.Errorf("nn: model shape does not match its %d declared params", nParams)
	}
	if len(body)-at != 8*int(nParams) {
		return nil, fmt.Errorf("nn: model declares %d params, data holds %d bytes of them", nParams, len(body)-at)
	}
	m, err := New(int(inDim), cfg)
	if err != nil {
		return nil, fmt.Errorf("nn: rebuilding model: %w", err)
	}
	params := make([]float64, nParams)
	for i := range params {
		if params[i], err = getF(); err != nil {
			return nil, err
		}
	}
	if err := m.SetParams(params); err != nil {
		return nil, err
	}
	return m, nil
}

// paramCount returns the flat parameter count New lays out for input width
// inDim and the given hidden layers, and false once it would exceed
// math.MaxUint32, the most a model file can declare.
func paramCount(inDim uint64, hidden []int) (uint64, bool) {
	const limit = math.MaxUint32
	total, in := uint64(0), inDim
	for _, h := range hidden {
		hu := uint64(h)
		if hu > limit || in > limit || hu*in > limit {
			return 0, false
		}
		total += hu*in + hu // the layer's weights and its head weights
		if total > limit {
			return 0, false
		}
		in = inDim + hu // skip connection: the next layer also sees x
	}
	return total + 1, true // plus the head bias
}
