package rounds

// Golden bit-identity pins for the streaming engine. The constants were
// recorded from the engine that rebuilt every coalition model by averaging
// all of its members' parameters and compiling the result; any faster
// reconstruction must reproduce every outcome bit for bit.

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"sync"
	"testing"
)

var (
	deepOnce sync.Once
	deepVal  *streamFixture
	deepErr  error
)

// deepFixture is streamFixture with two logical layers, so the second
// layer's skip-connection inputs (the predicates themselves) are among the
// weights the participants disagree on.
func deepFixture(t *testing.T) *streamFixture {
	t.Helper()
	deepOnce.Do(func() { deepVal, deepErr = buildStreamFixture([]int{16, 8}) })
	if deepErr != nil {
		t.Fatal(deepErr)
	}
	return deepVal
}

// outcomeHash folds an outcome's durable fields into a crc32: round, skip
// flag, full utility bits, then each id and delta bit pattern.
func outcomeHash(h uint32, o *Outcome) uint32 {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(o.Round))
	if o.Skipped {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(o.VFull))
	for i, id := range o.IDs {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(o.Deltas[i]))
	}
	return crc32.Update(h, crc32.IEEETable, b)
}

// TestGoldenStreamOutcomes pins every outcome of the fedsim round stream and
// the final scores, and checks each round's reconstructed grand-coalition
// utility against the test accuracy fedsim measured on its own aggregate —
// a reference computed outside the engine.
func TestGoldenStreamOutcomes(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cases := []struct {
		name string
		fix  func(*testing.T) *streamFixture
		cfg  Config
		want uint32
	}{
		{"no-skip", fixture, Config{Seed: 9, Epsilon: -1, Workers: 1}, 0x71b8e6dc},
		{"truncated", fixture, Config{Seed: 9, Permutations: 24, InnerEpsilon: -1}, 0x7c69ecd5},
		{"deep/no-skip", deepFixture, Config{Seed: 9, Epsilon: -1, Workers: 1}, 0xda1eb027},
		{"deep/truncated", deepFixture, Config{Seed: 9, Permutations: 24, InnerEpsilon: -1}, 0x6cc00937},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fix := tc.fix(t)
			cfg := tc.cfg
			cfg.Model, cfg.EvalX, cfg.EvalY = fix.sim.Model, fix.evalX, fix.evalY
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var h uint32
			for round, ups := range fix.sim.Updates {
				if len(ups) == 0 {
					continue
				}
				out := pushRound(t, e, round, toParts(ups))
				if want := fix.sim.Rounds[round].TestAcc; math.Float64bits(out.VFull) != math.Float64bits(want) {
					t.Errorf("round %d: VFull %v, fedsim test accuracy %v", round, out.VFull, want)
				}
				h = outcomeHash(h, out)
			}
			snap := e.Snapshot()
			var b []byte
			b = binary.LittleEndian.AppendUint32(b, uint32(snap.Rounds))
			b = binary.LittleEndian.AppendUint32(b, uint32(snap.Skipped))
			for _, s := range snap.Scores {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s))
			}
			h = crc32.Update(h, crc32.IEEETable, b)
			if h != tc.want {
				t.Errorf("outcome hash %#08x, want %#08x", h, tc.want)
			}
		})
	}
}
