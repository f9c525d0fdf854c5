package nn

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"
)

func TestModelRoundTrip(t *testing.T) {
	// An untrained two-layer model with every config field set, and a
	// trained single-layer model: both must round-trip bit-exactly.
	m, err := New(7, Config{
		Hidden: []int{8, 6}, Grafting: true, KeepBest: true, FreezeBias: true,
		LearningRate: 0.03, L1Logic: 1e-4, L2Head: 1e-3,
		Epochs: 25, BatchSize: 32, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := New(4, Config{Hidden: []int{8}, Grafting: true, Seed: 5, Epochs: 10, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	m2.TrainEpochs(xorXS, xorYS, m2.cfg.Epochs)

	for _, model := range []*Model{m, m2} {
		var buf bytes.Buffer
		if _, err := model.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadModel(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.InDim() != model.InDim() || back.RuleDim() != model.RuleDim() {
			t.Fatalf("shape changed: %d/%d vs %d/%d",
				back.InDim(), back.RuleDim(), model.InDim(), model.RuleDim())
		}
		a, b := model.Params(), back.Params()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("param %d changed: %v vs %v", i, a[i], b[i])
			}
		}
		if back.cfg.LearningRate != model.cfg.LearningRate || back.cfg.Grafting != model.cfg.Grafting {
			t.Fatalf("config changed: %+v vs %+v", back.cfg, model.cfg)
		}
		// Behavioural equivalence on suitably-sized inputs.
		x := make([]float64, model.InDim())
		for i := range x {
			x[i] = float64(i % 2)
		}
		if model.Binarize().Score(x) != back.Binarize().Score(x) {
			t.Fatal("scores diverge after round trip")
		}
	}
}

func TestReadModelCorruption(t *testing.T) {
	m, err := New(4, Config{Hidden: []int{4}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flipped payload byte → checksum error.
	bad := append([]byte(nil), raw...)
	bad[20] ^= 0xFF
	if _, err := ReadModel(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("tampered model err = %v", err)
	}
	// Truncation.
	if _, err := ReadModel(bytes.NewReader(raw[:10])); err == nil {
		t.Fatal("truncated model should error")
	}
	if _, err := ReadModel(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty model should error")
	}
	// Bad magic.
	bad2 := append([]byte(nil), raw...)
	bad2[0] = 'X'
	// Fix the checksum so the magic check is reached.
	if _, err := ReadModel(bytes.NewReader(bad2)); err == nil {
		t.Fatal("bad magic should error")
	}

	// A checksummed header claiming a 4096x4096 layer over zero params must
	// be rejected before anything of that size is allocated.
	forged := append([]byte(nil), nnMagic[:]...)
	forged = append(forged, serializeVersion)
	forged = binary.LittleEndian.AppendUint32(forged, 4096) // inDim
	forged = binary.LittleEndian.AppendUint32(forged, 1)    // layers
	forged = binary.LittleEndian.AppendUint32(forged, 4096) // hidden
	forged = append(forged, 0)                              // flags
	forged = append(forged, make([]byte, 3*8+2*4+8)...)     // lr, l1, l2, epochs, batch, seed
	forged = binary.LittleEndian.AppendUint32(forged, 0)    // params
	forged = binary.LittleEndian.AppendUint32(forged, crc32.ChecksumIEEE(forged))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = ReadModel(bytes.NewReader(forged))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged model shape should error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("rejecting a forged header allocated %d bytes", grew)
	}
}
