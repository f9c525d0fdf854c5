package nn

// Golden bit-identity tests for the training kernel. The hashes below were
// produced by the pre-overhaul (clarity-first) implementation; the flat
// parameter kernel must reproduce every Params() vector and loss value
// bit-for-bit. Workers is pinned to 1 so chunking does not depend on
// GOMAXPROCS and the hashes are machine-independent.

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
)

// goldenData generates a deterministic planted-rule dataset (same scheme as
// benchData but smaller).
func goldenData(n, dim int, seed int64) ([][]float64, []int) {
	r := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]int, n)
	for i := range xs {
		x := make([]float64, dim)
		for j := range x {
			if r.Float64() < 0.4 {
				x[j] = 1
			}
		}
		xs[i] = x
		if (x[0] == 1 && x[1] == 1) || (x[2] == 1 && x[3] == 0) {
			ys[i] = 1
		}
	}
	return xs, ys
}

// hashFloats folds the exact bit patterns of vs into a crc32.
func hashFloats(h uint32, vs ...float64) uint32 {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h = crc32.Update(h, crc32.IEEETable, b[:])
	}
	return h
}

func TestGoldenTraining(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want uint32
	}{
		{"plain", Config{Hidden: []int{16}, Epochs: 5, Seed: 1, Workers: 1}, 0x030a03b0},
		{"grafted", Config{Hidden: []int{16}, Epochs: 5, Grafting: true, Seed: 2, Workers: 1}, 0x23051560},
		{"regularized", Config{Hidden: []int{16}, Epochs: 5, Grafting: true, Seed: 3, Workers: 1, L1Logic: 2e-4, L2Head: 1e-3}, 0xa527beca},
		{"frozen-keepbest", Config{Hidden: []int{16}, Epochs: 5, Grafting: true, Seed: 4, Workers: 1, FreezeBias: true, KeepBest: true}, 0x9d41fba5},
		{"two-layer", Config{Hidden: []int{12, 8}, Epochs: 4, Grafting: true, Seed: 5, Workers: 1, L1Logic: 1e-4}, 0xaccaa6e5},
	}
	xs, ys := goldenData(160, 24, 11)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(24, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			loss := m.TrainEpochs(xs, ys, m.cfg.Epochs)
			h := hashFloats(0, loss)
			h = hashFloats(h, m.Params()...)
			if h != tc.want {
				t.Errorf("golden hash %#08x, want %#08x (loss=%v)", h, tc.want, loss)
			}
		})
	}
}

func TestGoldenForward(t *testing.T) {
	xs, _ := goldenData(64, 24, 12)
	m, err := New(24, Config{Hidden: []int{12, 8}, Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := m.Binarize()
	acts, scores := b.ActivationBits(packBits(xs), len(xs))
	h := uint32(0)
	for i, x := range xs {
		if want, _ := refForward(m, x, true); math.Float64bits(want) != math.Float64bits(scores[i]) {
			t.Fatalf("row %d: column score %v, reference %v", i, scores[i], want)
		}
		h = hashFloats(h, scores[i])
		for j := 0; j < m.RuleDim(); j++ {
			h = hashFloats(h, bitFloat(acts[i].Test(j)))
		}
	}
	const want = 0x1de83e00
	if h != want {
		t.Errorf("golden forward hash %#08x, want %#08x", h, want)
	}
}
