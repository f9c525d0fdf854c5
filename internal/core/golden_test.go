package core

// Golden bit-identity tests for the tracing kernel. The hashes below were
// produced by the pre-overhaul linear-scan tracer (WeightedIntersect over
// every same-label training upload); the inverted-index kernel must
// reproduce Counts, TrainMatched, matched sets, and micro/macro scores
// bit-for-bit. The model is trained with Workers=1 so the fixture is
// machine-independent.

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/rules"
	"repro/internal/stats"
)

// goldenFixture trains a small deterministic federation on synthetic adult
// rows and returns the extracted rules, participants, and a test split.
func goldenFixture(t testing.TB) (*rules.Set, []*fl.Participant, *dataset.Table) {
	t.Helper()
	r := stats.NewRNG(21)
	tab := dataset.Adult(r, 600)
	idx := r.Perm(tab.Len())
	train, test := tab.Subset(idx[:480]), tab.Subset(idx[480:])
	enc, err := dataset.NewEncoder(tab.Schema, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := enc.EncodeTable(train)
	m, err := nn.New(enc.Width(), nn.Config{
		Hidden: []int{32}, Epochs: 6, Grafting: true, Seed: 4, Workers: 1,
		L1Logic: 2e-4, L2Head: 1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.TrainEpochs(xs, ys, m.Config().Epochs)
	rs := rules.Extract(m, enc)
	parts := fl.PartitionSkewLabel(train, 4, 0.8, r)
	return rs, parts, test
}

func hashInts(h uint32, vs ...int) uint32 {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		h = crc32.Update(h, crc32.IEEETable, b[:])
	}
	return h
}

func hashF64s(h uint32, vs ...float64) uint32 {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h = crc32.Update(h, crc32.IEEETable, b[:])
	}
	return h
}

func traceHash(res *Result) uint32 {
	h := hashInts(0, res.NumParticipants, res.TestSize)
	h = hashInts(h, res.Pred...)
	h = hashInts(h, res.Truth...)
	for _, row := range res.Counts {
		h = hashInts(h, row...)
	}
	h = hashInts(h, res.TrainMatched()...)
	h = hashF64s(h, res.MicroScores()...)
	h = hashF64s(h, res.MacroScores()...)
	return h
}

func TestGoldenTrace(t *testing.T) {
	rs, parts, test := goldenFixture(t)
	for _, tc := range []struct {
		name string
		cfg  Config
		want uint32
	}{
		{"tau-0.9", Config{TauW: 0.9}, 0x95fa6fba},
		{"tau-1.0-delta-3", Config{TauW: 1.0, Delta: 3}, 0x294eb4ea},
		{"tau-0.85", Config{TauW: 0.85}, 0x544cfcae},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tracer := NewTracer(rs, parts, tc.cfg)
			res := tracer.Trace(test)
			if h := traceHash(res); h != tc.want {
				t.Errorf("golden trace hash %#08x, want %#08x", h, tc.want)
			}
		})
	}
}

// TestGoldenTraceActivations locks the single-pattern Eq. 4 primitive:
// per-pattern counts for every test activation pattern on its class side.
func TestGoldenTraceActivations(t *testing.T) {
	rs, parts, test := goldenFixture(t)
	tracer := NewTracer(rs, parts, Config{TauW: 0.9})
	acts, pred := rs.ActivationsTable(test)
	h := uint32(0)
	for i, a := range acts {
		side := a.Clone().And(rs.ClassMask(pred[i]))
		h = hashInts(h, tracer.traceOne(side, side.WeightedCount(rs.Weights()), pred[i]).counts...)
	}
	const want = 0xd78c58a2
	if h != want {
		t.Errorf("golden traceOne hash %#08x, want %#08x", h, want)
	}
}

// profileHash folds the interpretability output of a result into one
// value: every participant's full beneficial and harmful rule lists (rule
// index and credit, in ranked order) and useless-data ratio, then the
// data-collection guidance.
func profileHash(h uint32, res *Result) uint32 {
	hashRules := func(h uint32, rfs []RuleFrequency) uint32 {
		h = hashInts(h, len(rfs))
		for _, rf := range rfs {
			h = hashInts(h, rf.RuleIndex)
			h = hashF64s(h, rf.Credit)
		}
		return h
	}
	for _, p := range res.Profiles(0) {
		h = hashInts(h, p.Participant)
		h = hashRules(h, p.Beneficial)
		h = hashRules(h, p.Harmful)
		h = hashF64s(h, p.UselessRatio)
	}
	return hashRules(h, res.CollectionGuidance(0))
}

// TestGoldenProfiles locks the interpretability accumulators, which
// traceHash does not reach: the profiles and guidance of a full trace and
// of the MergeResults of its two halves.
func TestGoldenProfiles(t *testing.T) {
	rs, parts, test := goldenFixture(t)
	half := test.Len() / 2
	first := &dataset.Table{Schema: test.Schema, Instances: test.Instances[:half]}
	second := &dataset.Table{Schema: test.Schema, Instances: test.Instances[half:]}
	for _, tc := range []struct {
		name string
		cfg  Config
		want uint32
	}{
		{"tau-0.85", Config{TauW: 0.85}, 0xdca2a93c},
		{"tau-0.9", Config{TauW: 0.9}, 0xefed4bf9},
		{"tau-1.0", Config{TauW: 1.0}, 0x1c986d56},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tracer := NewTracer(rs, parts, tc.cfg)
			merged, err := MergeResults(tracer.Trace(first), tracer.Trace(second))
			if err != nil {
				t.Fatal(err)
			}
			h := profileHash(0, tracer.Trace(test))
			h = profileHash(h, merged)
			if h != tc.want {
				t.Errorf("golden profile hash %#08x, want %#08x", h, tc.want)
			}
		})
	}
}
