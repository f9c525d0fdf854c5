// Package rules turns a trained, binarized logical neural network into the
// explicit rule-based model of CTFL Definition III.2: a set of positive and
// negative classification rules with importance weights, plus fast
// rule-activation vectors (bitsets) for the tracer and human-readable rule
// expressions for the interpreter.
package rules

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/nn"
)

// Rule is one extracted classification rule.
type Rule struct {
	// Index is the rule's position in the model's rule-activation vector.
	Index int
	// Conj reports whether the top-level operation is a conjunction.
	Conj bool
	// Positive reports whether the rule supports the positive class (its
	// head weight is positive, paper r+ vs r-).
	Positive bool
	// Weight is the rule's importance |head weight| (paper w+ / w-).
	Weight float64
	// Expr is the human-readable logical expression.
	Expr string
	// Arity counts the rule's direct operands after binarization.
	Arity int
	// Layer and Node locate the rule's logical node; Selected lists its
	// direct operand indices within that layer's input vector (predicate
	// indices for layer 0; skip-connection operands reference earlier-layer
	// nodes at index >= encoder width).
	Layer    int
	Node     int
	Selected []int
}

// Set is the extracted rule-based model: every live rule of the network,
// class masks and weight vectors, and the machinery to compute activation
// vectors for data instances.
type Set struct {
	// bin is the model's compiled binarized evaluator, taken once at
	// extraction time: the rules below are read from its selection, and
	// every score and activation of the set comes from it.
	bin *nn.Binarized
	enc *dataset.Encoder
	// Rules lists the live (non-degenerate, non-zero-weight) rules.
	Rules []Rule
	// width is the model's full rule vector size; activation sets use it.
	width int
	// posMask/negMask mark rule-vector indices that are live positive /
	// negative rules.
	posMask, negMask *bitset.Set
	// weights[i] = |head weight| of rule-vector index i (0 for dead rules).
	weights []float64
}

// minWeight is the importance below which a rule is considered dead: it
// cannot meaningfully influence the vote and would only add noise to tracing.
const minWeight = 1e-6

// Extract builds the rule set of a trained model. The encoder must be the
// one whose predicates the model was trained on.
func Extract(m *nn.Model, enc *dataset.Encoder) *Set {
	if m.InDim() != enc.Width() {
		panic(fmt.Sprintf("rules: model input %d != encoder width %d", m.InDim(), enc.Width()))
	}
	bin := m.Binarize()
	specs := bin.RuleSpecs()
	head := m.HeadWeights()
	s := &Set{
		bin:     bin,
		enc:     enc,
		width:   m.RuleDim(),
		posMask: bitset.New(m.RuleDim()),
		negMask: bitset.New(m.RuleDim()),
		weights: make([]float64, m.RuleDim()),
	}

	// exprCache[{layer,node}] holds the expression of each node so deeper
	// layers can expand skip-connection operands; specs are emitted layer by
	// layer, so shallower entries are always present when referenced.
	exprCache := map[[2]int]string{}
	for i, sp := range specs {
		key := [2]int{sp.Layer, sp.Node}
		op := " ∧ "
		if !sp.Conj {
			op = " ∨ "
		}
		var parts []string
		for _, sel := range sp.Selected {
			if sel < enc.Width() {
				parts = append(parts, enc.PredicateName(sel))
				continue
			}
			// Skip-connection operand: node (sel - inDim) of the previous layer.
			prev := [2]int{sp.Layer - 1, sel - enc.Width()}
			sub, ok := exprCache[prev]
			if !ok {
				sub = "?"
			}
			parts = append(parts, "("+sub+")")
		}
		var expr string
		switch {
		case len(parts) == 0 && sp.Conj:
			expr = "TRUE"
		case len(parts) == 0:
			expr = "FALSE"
		default:
			expr = strings.Join(parts, op)
		}
		exprCache[key] = expr

		w := head[i]
		if len(sp.Selected) == 0 || math.Abs(w) < minWeight {
			continue // degenerate or dead rule
		}
		r := Rule{
			Index:    i,
			Conj:     sp.Conj,
			Positive: w > 0,
			Weight:   math.Abs(w),
			Expr:     expr,
			Arity:    len(sp.Selected),
			Layer:    sp.Layer,
			Node:     sp.Node,
			Selected: append([]int(nil), sp.Selected...),
		}
		s.Rules = append(s.Rules, r)
		s.weights[i] = r.Weight
		if r.Positive {
			s.posMask.Set(i)
		} else {
			s.negMask.Set(i)
		}
	}
	return s
}

// Width returns the size of the full rule-activation vector.
func (s *Set) Width() int { return s.width }

// Binarized returns the compiled evaluator the set was extracted from: the
// deployed model's scorer. Callers must not modify it.
func (s *Set) Binarized() *nn.Binarized { return s.bin }

// Weights returns |head weight| per rule-vector index (0 for dead rules).
// Callers must not modify the returned slice.
func (s *Set) Weights() []float64 { return s.weights }

// ClassMask returns the mask of live rules supporting the given label
// (1 → positive rules r+, 0 → negative rules r-). Callers must not modify
// the returned set.
func (s *Set) ClassMask(label int) *bitset.Set {
	if label == 1 {
		return s.posMask
	}
	return s.negMask
}

// Encode converts a raw instance into the encoder's predicate vector,
// ready for Activations.
func (s *Set) Encode(in dataset.Instance) []float64 {
	return s.enc.Encode(in, nil)
}

// Activations returns the binarized rule-activation bitset for the encoded
// {0,1} predicate vector x (full vector; use ClassMask to restrict to one
// class side): a predicate holds where x is nonzero.
func (s *Set) Activations(x []float64) *bitset.Set {
	words := make([]uint64, len(x))
	for p, v := range x {
		if v != 0 {
			words[p] = 1
		}
	}
	acts, _ := s.bin.ActivationBits(words, 1)
	return &acts[0]
}

// ActivationsColumns computes, in one pass over a batch of encoded rows,
// every row's activation bitset (carved from one slab) and the deployed
// model's predicted label (used by the tracer to classify TP/TN/FP/FN
// cases).
func (s *Set) ActivationsColumns(c *dataset.Columns) (acts []bitset.Set, pred []int) {
	if c.Width != s.bin.InDim() {
		panic(fmt.Sprintf("rules: %d predicate columns, model input %d", c.Width, s.bin.InDim()))
	}
	acts, scores := s.bin.ActivationBits(c.Words, c.Len())
	pred = make([]int, len(scores))
	for i, sc := range scores {
		if sc >= 0 {
			pred[i] = 1
		}
	}
	return acts, pred
}

// ActivationsTable is ActivationsColumns over the encoded instances of t;
// the returned bitsets share one slab.
func (s *Set) ActivationsTable(t *dataset.Table) (acts []*bitset.Set, pred []int) {
	slab, pred := s.ActivationsColumns(s.enc.EncodeColumns(t))
	acts = make([]*bitset.Set, len(slab))
	for i := range slab {
		acts[i] = &slab[i]
	}
	return acts, pred
}

// EncodeColumns encodes the instances of t as the predicate columns
// ActivationsColumns reads.
func (s *Set) EncodeColumns(t *dataset.Table) *dataset.Columns {
	return s.enc.EncodeColumns(t)
}

// ByClass splits the live rules by the class they support.
func (s *Set) ByClass() (pos, neg []Rule) {
	for _, r := range s.Rules {
		if r.Positive {
			pos = append(pos, r)
		} else {
			neg = append(neg, r)
		}
	}
	return pos, neg
}

// RuleByIndex returns the live rule at rule-vector index i, if any.
func (s *Set) RuleByIndex(i int) (Rule, bool) {
	for _, r := range s.Rules {
		if r.Index == i {
			return r, true
		}
	}
	return Rule{}, false
}

// String renders a compact summary of the rule set.
func (s *Set) String() string {
	pos, neg := s.ByClass()
	var b strings.Builder
	fmt.Fprintf(&b, "rule set: %d live rules (%d positive, %d negative) of %d nodes\n",
		len(s.Rules), len(pos), len(neg), s.width)
	for _, r := range s.Rules {
		side := "+"
		if !r.Positive {
			side = "-"
		}
		fmt.Fprintf(&b, "  [%s w=%.3f] %s\n", side, r.Weight, r.Expr)
	}
	return b.String()
}
