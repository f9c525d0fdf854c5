package rules

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/stats"
)

// fixture builds a tiny schema/encoder/model with hand-set weights:
// predicates: color=red(0), color=blue(1), color=<unknown>(2), plus a
// 2-threshold continuous feature (indices 3..6).
func fixture(t *testing.T) (*dataset.Encoder, *nn.Model) {
	t.Helper()
	s := &dataset.Schema{
		Name: "toy",
		Features: []dataset.Feature{
			{Name: "color", Kind: dataset.Discrete, Categories: []string{"red", "blue"}},
			{Name: "temp", Kind: dataset.Continuous, Min: 0, Max: 100},
		},
	}
	enc, err := dataset.NewEncoder(s, 2, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn.New(enc.Width(), nn.Config{Hidden: []int{4}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Zero everything, then wire:
	//   node 0 (conj): color=red ∧ color=blue  (never fires together but fine)
	//   node 1 (conj): color=red                (head +2.0 → positive rule)
	//   node 2 (disj): color=blue               (head -1.5 → negative rule)
	//   node 3 (disj): nothing selected         (degenerate, excluded)
	p := m.Params()
	for i := range p {
		p[i] = 0
	}
	in := enc.Width()
	p[0*in+0] = 1 // node0: red
	p[0*in+1] = 1 // node0: blue
	p[1*in+0] = 1 // node1: red
	p[2*in+1] = 1 // node2: blue
	head := 4 * in
	p[head+0] = 0.5  // node0 positive, small
	p[head+1] = 2.0  // node1 positive
	p[head+2] = -1.5 // node2 negative
	p[head+3] = 3.0  // degenerate node gets weight but no operands
	p[head+4] = 0    // bias
	if err := m.SetParams(p); err != nil {
		t.Fatal(err)
	}
	return enc, m
}

func TestExtractLiveRules(t *testing.T) {
	enc, m := fixture(t)
	rs := Extract(m, enc)
	if len(rs.Rules) != 3 {
		t.Fatalf("live rules = %d, want 3 (degenerate excluded): %v", len(rs.Rules), rs.Rules)
	}
	pos, neg := rs.ByClass()
	if len(pos) != 2 || len(neg) != 1 {
		t.Fatalf("pos=%d neg=%d, want 2/1", len(pos), len(neg))
	}
	r1, ok := rs.RuleByIndex(1)
	if !ok || !r1.Positive || r1.Weight != 2.0 || r1.Expr != "color = red" {
		t.Fatalf("rule 1 wrong: %+v ok=%v", r1, ok)
	}
	r2, ok := rs.RuleByIndex(2)
	if !ok || r2.Positive || r2.Expr != "color = blue" {
		t.Fatalf("rule 2 wrong: %+v", r2)
	}
	if _, ok := rs.RuleByIndex(3); ok {
		t.Fatal("degenerate rule should not be live")
	}
	if r0, _ := rs.RuleByIndex(0); r0.Expr != "color = red ∧ color = blue" {
		t.Fatalf("conj expr = %q", r0.Expr)
	}
}

func TestMasksAndWeights(t *testing.T) {
	enc, m := fixture(t)
	rs := Extract(m, enc)
	if !rs.ClassMask(1).Test(0) || !rs.ClassMask(1).Test(1) {
		t.Fatal("positive mask should include rules 0 and 1")
	}
	if !rs.ClassMask(0).Test(2) {
		t.Fatal("negative mask should include rule 2")
	}
	if rs.ClassMask(1).Test(3) || rs.ClassMask(0).Test(3) {
		t.Fatal("degenerate rule leaked into a mask")
	}
	w := rs.Weights()
	if w[1] != 2.0 || w[2] != 1.5 || w[3] != 0 {
		t.Fatalf("weights = %v", w)
	}
}

func TestActivations(t *testing.T) {
	enc, m := fixture(t)
	rs := Extract(m, enc)
	// red instance: rule1 (red) fires; rule2 (blue) does not; rule0 needs both.
	x := enc.Encode(dataset.Instance{Values: []float64{0, 50}}, nil)
	act := rs.Activations(x)
	if act.Test(0) {
		t.Fatal("conj red∧blue cannot fire")
	}
	if !act.Test(1) {
		t.Fatal("rule red should fire for red instance")
	}
	if act.Test(2) {
		t.Fatal("rule blue should not fire for red instance")
	}
}

func TestActivationsTable(t *testing.T) {
	enc, m := fixture(t)
	rs := Extract(m, enc)
	tab := &dataset.Table{Schema: enc.Schema(), Instances: []dataset.Instance{
		{Values: []float64{0, 10}, Label: 1}, // red
		{Values: []float64{1, 10}, Label: 0}, // blue
	}}
	acts, pred := rs.ActivationsTable(tab)
	if len(acts) != 2 || len(pred) != 2 {
		t.Fatalf("sizes: %d %d", len(acts), len(pred))
	}
	// red: score = 2.0 (rule1) → predict 1. blue: score = -1.5 → predict 0.
	if pred[0] != 1 || pred[1] != 0 {
		t.Fatalf("pred = %v, want [1 0]", pred)
	}
	if !acts[0].Test(1) || !acts[1].Test(2) {
		t.Fatal("activation sets wrong")
	}
}

func TestStringRendering(t *testing.T) {
	enc, m := fixture(t)
	rs := Extract(m, enc)
	out := rs.String()
	if !strings.Contains(out, "color = red") || !strings.Contains(out, "3 live rules") {
		t.Fatalf("String output unexpected:\n%s", out)
	}
}

func TestExtractPanicsOnMismatch(t *testing.T) {
	enc, _ := fixture(t)
	other, err := nn.New(enc.Width()+1, nn.Config{Hidden: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on encoder/model width mismatch")
		}
	}()
	Extract(other, enc)
}

func TestTwoLayerSkipExpressions(t *testing.T) {
	s := &dataset.Schema{
		Name: "toy2",
		Features: []dataset.Feature{
			{Name: "a", Kind: dataset.Discrete, Categories: []string{"t"}},
			{Name: "b", Kind: dataset.Discrete, Categories: []string{"t"}},
		},
	}
	enc, err := dataset.NewEncoder(s, 1, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	// predicates: a=t(0), a=<unknown>(1), b=t(2), b=<unknown>(3); width 4.
	m, err := nn.New(enc.Width(), nn.Config{Hidden: []int{2, 2}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := m.Params()
	for i := range p {
		p[i] = 0
	}
	in := enc.Width()
	// layer0 node0 (conj): a=t ∧ b=t
	p[0*in+0] = 1
	p[0*in+2] = 1
	// layer1 inputs: 4 predicates + 2 layer0 nodes = 6 wide. Layer1 starts at 2*in.
	l1 := 2 * in
	// layer1 node1 (disj, since numConj=1): operand = layer0 node0 (input idx 4)
	p[l1+1*6+4] = 1
	head := l1 + 2*6
	p[head+0] = 1 // layer0 node0 live
	p[head+3] = 1 // layer1 node1 live
	if err := m.SetParams(p); err != nil {
		t.Fatal(err)
	}
	rs := Extract(m, enc)
	var found bool
	for _, r := range rs.Rules {
		if strings.Contains(r.Expr, "(a = t ∧ b = t)") {
			found = true
		}
	}
	if !found {
		t.Fatalf("compound rule expression not expanded: %v", rs.Rules)
	}
}

// selectedFixture wires four layer-0 rules over a two-feature schema with
// predicates a=t(0), a=f(1), a=?(2), b=t(3), b=f(4), b=?(5):
//
//	node0 conj {p0}        (positive, w 1.0)
//	node1 conj {p0, p3}    (positive, w 0.8)
//	node2 disj {p0}        (negative, w 0.5)
//	node3 disj {p0, p3}    (negative, w 0.5)
func selectedFixture(t *testing.T) *Set {
	t.Helper()
	s := &dataset.Schema{
		Name: "an",
		Features: []dataset.Feature{
			{Name: "a", Kind: dataset.Discrete, Categories: []string{"t", "f"}},
			{Name: "b", Kind: dataset.Discrete, Categories: []string{"t", "f"}},
		},
	}
	enc, err := dataset.NewEncoder(s, 1, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn.New(enc.Width(), nn.Config{Hidden: []int{4}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := m.Params()
	for i := range p {
		p[i] = 0
	}
	in := enc.Width()
	p[0*in+0] = 1
	p[1*in+0] = 1
	p[1*in+3] = 1
	p[2*in+0] = 1
	p[3*in+0] = 1
	p[3*in+3] = 1
	head := 4 * in
	p[head+0] = 1
	p[head+1] = 0.8
	p[head+2] = -0.5
	p[head+3] = -0.5
	if err := m.SetParams(p); err != nil {
		t.Fatal(err)
	}
	return Extract(m, enc)
}

func TestRuleSelectedExposed(t *testing.T) {
	rs := selectedFixture(t)
	r1, ok := rs.RuleByIndex(1)
	if !ok || len(r1.Selected) != 2 || r1.Selected[0] != 0 || r1.Selected[1] != 3 {
		t.Fatalf("rule 1 selected = %+v", r1)
	}
	if r1.Layer != 0 {
		t.Fatalf("layer = %d", r1.Layer)
	}
}
