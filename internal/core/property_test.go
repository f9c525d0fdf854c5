package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/rules"
	"repro/internal/stats"
)

// randomFixture builds a random single-layer rule model over binary
// features, a random federation of uploads, and a random test table — the
// raw material for invariant checks that must hold for EVERY model and
// data configuration, not just the hand-built Figure-2 scenario.
type randomFixture struct {
	rs    *rules.Set
	enc   *dataset.Encoder
	tab   *dataset.Table // test table
	parts int
	ups   []TrainingUpload
}

func newRandomFixture(r *rand.Rand) *randomFixture {
	nf := 2 + r.Intn(3) // features
	schema := &dataset.Schema{Name: "rand"}
	for f := 0; f < nf; f++ {
		schema.Features = append(schema.Features, dataset.Feature{
			Name: string(rune('a' + f)), Kind: dataset.Discrete, Categories: []string{"0", "1"},
		})
	}
	enc, err := dataset.NewEncoder(schema, 1, r)
	if err != nil {
		panic(err)
	}
	hidden := 4 + 2*r.Intn(3)
	m, err := nn.New(enc.Width(), nn.Config{Hidden: []int{hidden}, Seed: r.Int63()})
	if err != nil {
		panic(err)
	}
	// Random binarized structure: each node selects 1-3 predicates; random
	// head weights.
	p := m.Params()
	for i := range p {
		p[i] = 0
	}
	in := enc.Width()
	for n := 0; n < hidden; n++ {
		k := 1 + r.Intn(3)
		for j := 0; j < k; j++ {
			p[n*in+r.Intn(in)] = 1
		}
	}
	head := hidden * in
	for n := 0; n < hidden; n++ {
		p[head+n] = r.NormFloat64()
	}
	p[head+hidden] = r.NormFloat64() * 0.1
	if err := m.SetParams(p); err != nil {
		panic(err)
	}
	rs := rules.Extract(m, enc)

	fx := &randomFixture{rs: rs, enc: enc, parts: 2 + r.Intn(4)}
	// Random test table.
	nTest := 5 + r.Intn(20)
	fx.tab = &dataset.Table{Schema: schema}
	randInstance := func() dataset.Instance {
		vals := make([]float64, nf)
		for f := range vals {
			vals[f] = float64(r.Intn(2))
		}
		return dataset.Instance{Values: vals, Label: r.Intn(2)}
	}
	for i := 0; i < nTest; i++ {
		fx.tab.Instances = append(fx.tab.Instances, randInstance())
	}
	// Random training uploads.
	nTrain := 10 + r.Intn(40)
	for i := 0; i < nTrain; i++ {
		inst := randInstance()
		x := enc.Encode(inst, nil)
		fx.ups = append(fx.ups, TrainingUpload{
			Owner:       r.Intn(fx.parts),
			Label:       inst.Label,
			Activations: rs.Activations(x),
		})
	}
	return fx
}

func TestPropertyGroupRationalityRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fx := newRandomFixture(r)
		tau := 0.5 + 0.5*r.Float64()
		tr := NewTracerFromUploads(fx.rs, fx.parts, fx.ups, Config{TauW: tau})
		res := tr.Trace(fx.tab)
		sum := stats.Sum(res.MicroScores())
		return math.Abs(sum-(res.Accuracy()-res.CoverageGap())) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMacroBoundedAndNonNegativeRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fx := newRandomFixture(r)
		tr := NewTracerFromUploads(fx.rs, fx.parts, fx.ups, Config{TauW: 0.8, Delta: 1 + r.Intn(3)})
		res := tr.Trace(fx.tab)
		for _, variant := range [][]float64{
			res.MicroScores(), res.MacroScores(), res.MicroLossScores(), res.macroScores(res.tracer.cfg.Delta, false),
		} {
			for _, s := range variant {
				if s < 0 || s > 1+1e-9 {
					return false
				}
			}
		}
		// Gains plus losses never exceed 1 (each test instance contributes
		// to exactly one side).
		total := stats.Sum(res.MicroScores()) + stats.Sum(res.MicroLossScores())
		return total <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySymmetryRandom(t *testing.T) {
	// Duplicate every upload of participant 0 into a fresh participant: the
	// two must receive identical scores.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fx := newRandomFixture(r)
		twin := fx.parts
		ups := append([]TrainingUpload{}, fx.ups...)
		for _, u := range fx.ups {
			if u.Owner == 0 {
				ups = append(ups, TrainingUpload{Owner: twin, Label: u.Label, Activations: u.Activations.Clone()})
			}
		}
		tr := NewTracerFromUploads(fx.rs, fx.parts+1, ups, Config{TauW: 0.8})
		res := tr.Trace(fx.tab)
		micro := res.MicroScores()
		return math.Abs(micro[0]-micro[twin]) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyZeroElementRandom(t *testing.T) {
	// A participant whose uploads have empty activation vectors can never
	// be related to anything (tau > 0), so it scores exactly zero.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fx := newRandomFixture(r)
		ghost := fx.parts
		ups := append([]TrainingUpload{}, fx.ups...)
		for i := 0; i < 3; i++ {
			ups = append(ups, TrainingUpload{
				Owner:       ghost,
				Label:       r.Intn(2),
				Activations: bitset.New(fx.rs.Width()),
			})
		}
		tr := NewTracerFromUploads(fx.rs, fx.parts+1, ups, Config{TauW: 0.6})
		res := tr.Trace(fx.tab)
		return res.MicroScores()[ghost] == 0 && res.MacroScores()[ghost] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTauMonotonicityRandom(t *testing.T) {
	// Raising tau can only shrink the related sets (Eq. 4 is a threshold
	// test), so per-instance counts are pointwise non-increasing in tau.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fx := newRandomFixture(r)
		lo := NewTracerFromUploads(fx.rs, fx.parts, fx.ups, Config{TauW: 0.6}).Trace(fx.tab)
		hi := NewTracerFromUploads(fx.rs, fx.parts, fx.ups, Config{TauW: 0.95}).Trace(fx.tab)
		for te := 0; te < lo.TestSize; te++ {
			for i := 0; i < fx.parts; i++ {
				if hi.Counts[te][i] > lo.Counts[te][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
