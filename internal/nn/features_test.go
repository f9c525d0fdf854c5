package nn

import (
	"math"
	"testing"
)

// xorTask is unlearnable without rules but learnable with conj nodes:
// y = (a AND b) OR (NOT a AND NOT b), with explicit negation predicates.
var xorXS = [][]float64{
	{1, 0, 1, 0}, // a, !a, b, !b
	{1, 0, 0, 1},
	{0, 1, 1, 0},
	{0, 1, 0, 1},
}
var xorYS = []int{1, 0, 0, 1}

func TestFreezeBiasKeepsBiasZero(t *testing.T) {
	m, err := New(4, Config{Hidden: []int{8}, Epochs: 60, BatchSize: 4, Grafting: true, FreezeBias: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m.TrainEpochs(xorXS, xorYS, m.cfg.Epochs)
	if m.HeadBias() != 0 {
		t.Fatalf("bias = %v after training with FreezeBias", m.HeadBias())
	}
	if acc := m.Accuracy(xorXS, xorYS); acc < 1 {
		t.Fatalf("XNOR accuracy = %v with frozen bias", acc)
	}
}

func TestKeepBestNeverWorseThanFinalEpoch(t *testing.T) {
	// Train twice from the same seed, with and without KeepBest; the
	// KeepBest run's final training accuracy must be >= the plain run's.
	build := func(keep bool) *Model {
		m, err := New(4, Config{Hidden: []int{8}, Epochs: 30, BatchSize: 4, Grafting: true, KeepBest: keep, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		m.TrainEpochs(xorXS, xorYS, m.cfg.Epochs)
		return m
	}
	plain := build(false).Accuracy(xorXS, xorYS)
	kept := build(true).Accuracy(xorXS, xorYS)
	if kept < plain-1e-12 {
		t.Fatalf("KeepBest accuracy %v < plain %v", kept, plain)
	}
}

func TestL1LogicPrunesOperands(t *testing.T) {
	// Heavy L1 must shrink the number of selected operands relative to none.
	count := func(l1 float64) int {
		m, err := New(4, Config{Hidden: []int{16}, Epochs: 60, BatchSize: 4, Grafting: true, L1Logic: l1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		m.TrainEpochs(xorXS, xorYS, m.cfg.Epochs)
		n := 0
		for _, spec := range m.Binarize().RuleSpecs() {
			n += len(spec.Selected)
		}
		return n
	}
	dense := count(0)
	sparse := count(0.01)
	if sparse >= dense {
		t.Fatalf("L1 did not prune: %d operands vs %d without", sparse, dense)
	}
}

func TestL2HeadBoundsWeights(t *testing.T) {
	norm := func(l2 float64) float64 {
		m, err := New(4, Config{Hidden: []int{8}, Epochs: 80, BatchSize: 4, Grafting: true, L2Head: l2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		m.TrainEpochs(xorXS, xorYS, m.cfg.Epochs)
		s := 0.0
		for _, w := range m.HeadWeights() {
			s += w * w
		}
		return math.Sqrt(s)
	}
	free := norm(0)
	decayed := norm(0.05)
	if decayed >= free {
		t.Fatalf("L2 did not bound head weights: %v vs %v", decayed, free)
	}
}

func TestLogicalWeightsStayInUnitInterval(t *testing.T) {
	m, err := New(4, Config{Hidden: []int{8}, Epochs: 20, BatchSize: 4, Grafting: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	m.TrainEpochs(xorXS, xorYS, m.cfg.Epochs)
	p := m.Params()
	logicEnd := m.numParams() - m.RuleDim() - 1
	for i := 0; i < logicEnd; i++ {
		if p[i] < 0 || p[i] > 1 {
			t.Fatalf("logical weight %d = %v outside [0,1]", i, p[i])
		}
	}
}

func TestPredictNegativeBranch(t *testing.T) {
	m, err := New(2, Config{Hidden: []int{4}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Force a strongly negative score so the deployed model predicts 0.
	p := m.Params()
	for i := range p {
		p[i] = 0
	}
	p[len(p)-1] = -5 // bias
	if err := m.SetParams(p); err != nil {
		t.Fatal(err)
	}
	if got := m.PredictBatch([][]float64{{1, 0}}); got[0] != 0 {
		t.Fatalf("PredictBatch = %v, want [0]", got)
	}
}

func TestPredictBatchSmallAndEmpty(t *testing.T) {
	m, err := New(2, Config{Hidden: []int{4}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	xs := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	got := m.PredictBatch(xs)
	if len(got) != 3 {
		t.Fatalf("PredictBatch = %v", got)
	}
	for i, x := range xs {
		if s, _ := refForward(m, x, true); got[i] != label(s) {
			t.Fatalf("row %d labeled %d, score %v", i, got[i], s)
		}
	}
	if got := m.PredictBatch(nil); len(got) != 0 {
		t.Fatalf("empty PredictBatch = %v", got)
	}
}

func TestActivationBitsMatchForwardOnXOR(t *testing.T) {
	m, err := New(4, Config{Hidden: []int{8}, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	b := m.Binarize()
	acts, scores := b.ActivationBits(packBits(xorXS), len(xorXS))
	for i, x := range xorXS {
		want, rules := refForward(m, x, true)
		if scores[i] != want {
			t.Fatalf("row %d column score %v vs reference %v", i, scores[i], want)
		}
		for j, r := range rules {
			if bitFloat(acts[i].Test(j)) != r {
				t.Fatalf("row %d activation %d mismatch", i, j)
			}
		}
	}
}

func TestXNORLearnableWithConjunctions(t *testing.T) {
	m, err := New(4, Config{Hidden: []int{8}, Epochs: 120, BatchSize: 4, Grafting: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.TrainEpochs(xorXS, xorYS, m.cfg.Epochs)
	if acc := m.Accuracy(xorXS, xorYS); acc < 1 {
		t.Fatalf("XNOR accuracy = %v, want 1 (needs two conj rules)", acc)
	}
}
