// Package nn implements the practical rule-based model of CTFL Section V: a
// logical neural network whose hidden nodes compute soft conjunctions and
// disjunctions over encoded predicates (Eq. 7), topped by a linear voting
// head, and trained with gradient grafting so that the deployed model has
// hard {0,1} logical weights and therefore produces non-fuzzy, traceable
// rules.
//
// Architecture (paper Fig. 3):
//
//	encoded predicates (from dataset.Encoder; the binarization layer with
//	random bounds lives there)
//	  -> logical layer 1 (half conjunction, half disjunction nodes)
//	  -> ... optional further logical layers with skip connections ...
//	  -> linear head over the concatenation of all logical layers' outputs
//
// The classification rule is the paper's Eq. 3: nodes whose head weight is
// positive act as positive rules r+, negative head weights as negative rules
// r-, and the model predicts the positive class iff the weighted vote
// crosses the bias threshold.
//
// Parameter storage is one contiguous flat vector (see Model.flat): each
// logical layer's weights occupy a row-major block, followed by the head
// weights and the head bias. Training updates the flat vector in place, so
// Params/SetParams are single copies and the Adam step streams sequentially
// through memory.
package nn

import (
	"fmt"
	"math/rand"
	"sync"
)

// Config controls model shape and training.
type Config struct {
	// Hidden lists the node count of each logical layer. Each layer is split
	// half conjunction / half disjunction nodes. Default: one layer of 64.
	Hidden []int
	// LearningRate for Adam. Default 0.05.
	LearningRate float64
	// Epochs of local training. Default 60.
	Epochs int
	// BatchSize for mini-batch SGD. Default 64.
	BatchSize int
	// Grafting selects gradient-grafted training of the binarized model
	// (the paper's method). When false, training optimizes the continuous
	// model and binarizes post hoc — the ablation baseline.
	Grafting bool
	// L1Logic applies an L1 penalty to the logical weights, pruning rule
	// operands so the extracted rules stay crisp and small. Default 0.
	L1Logic float64
	// L2Head applies weight decay to the linear head, keeping rule
	// importance weights bounded. Default 0.
	L2Head float64
	// FreezeBias pins the head bias at zero, making the deployed model
	// exactly the paper's Eq. 3 vote 1[w+·r+ >= w−·r−]. Without a bias the
	// model cannot fall back on a majority-class default, so every
	// prediction is carried by activated rules and stays traceable.
	FreezeBias bool
	// KeepBest restores, at the end of each TrainEpochs call, the parameter
	// snapshot with the highest binarized training accuracy seen after any
	// epoch. Grafted training of hard-threshold models is non-monotone; the
	// deployed model is the binarized one, so selecting its best snapshot is
	// the natural stopping rule.
	KeepBest bool
	// Seed for weight initialization and batch shuffling.
	Seed int64
	// Workers bounds the goroutines used for batch-parallel gradient
	// computation; 0 means GOMAXPROCS.
	Workers int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64}
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.05
	}
	if c.Epochs == 0 {
		c.Epochs = 60
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	return c
}

// layerKind tags each logical node.
const (
	nodeConj = iota
	nodeDisj
)

// logicalLayer describes one layer's shape and where its weight block lives
// in the model's flat parameter vector. w[n*inDim+i] is the involvement
// degree of input i in node n, constrained to [0,1].
type logicalLayer struct {
	inDim   int
	numConj int
	numDisj int
	// off is the flat-vector offset of this layer's weight block; w is the
	// block itself, aliasing Model.flat[off : off+size()*inDim].
	off int
	w   []float64
}

func (l *logicalLayer) size() int { return l.numConj + l.numDisj }

// row returns node n's weight row (a view into the flat vector).
func (l *logicalLayer) row(n int) []float64 {
	return l.w[n*l.inDim : (n+1)*l.inDim]
}

// nodeKind reports whether node n is a conjunction or disjunction node.
func (l *logicalLayer) nodeKind(n int) int {
	if n < l.numConj {
		return nodeConj
	}
	return nodeDisj
}

// Model is a logical neural network for binary classification.
type Model struct {
	cfg    Config
	inDim  int
	layers []*logicalLayer
	// ruleDim is the total number of logical nodes across layers = the
	// number of candidate rules.
	ruleDim int
	// flat holds every trainable parameter contiguously: the layers' weight
	// blocks in order (row-major per node), then the head weights over rule
	// activations, then the head bias. layers[k].w and headW alias into it.
	flat []float64
	// headOff is the flat offset of the head weights; the bias sits at
	// flat[len(flat)-1].
	headOff int
	// headW aliases flat[headOff : headOff+ruleDim]. The head stays
	// continuous (the paper binarizes every layer except the one feeding the
	// linear classifier).
	headW []float64

	opt *adamState

	// graft is grafted training's discrete evaluator, recompiled at the start
	// of every batch (weights are fixed within one) with its storage reused;
	// graftScores holds its scores of the batch's rows, which graftScratch
	// packs.
	graft        Binarized
	graftScores  []float64
	graftScratch scratch
	// snaps pools the evaluators that Accuracy, CountCorrect and PredictBatch
	// compile per call.
	snaps sync.Pool // *Binarized

	// gradPool recycles backprop scratch across calls, so steady-state batch
	// work allocates nothing. Buffers depend only on the (immutable) model
	// shape, so pooled entries never go stale.
	gradPool sync.Pool
}

// New creates a model for inputs of width inDim using cfg.
func New(inDim int, cfg Config) (*Model, error) {
	if inDim <= 0 {
		return nil, fmt.Errorf("nn: inDim must be positive, got %d", inDim)
	}
	cfg = cfg.withDefaults()
	for i, h := range cfg.Hidden {
		if h < 2 {
			return nil, fmt.Errorf("nn: hidden layer %d has %d nodes, need >= 2", i, h)
		}
	}
	m := &Model{cfg: cfg, inDim: inDim}

	// Shape pass: compute layer offsets and the total parameter count, then
	// carve the flat vector into per-layer views.
	total := 0
	prev := inDim
	for _, h := range cfg.Hidden {
		l := &logicalLayer{inDim: prev, numConj: h / 2, numDisj: h - h/2, off: total}
		m.layers = append(m.layers, l)
		total += h * prev
		m.ruleDim += h
		// Skip connection: the next layer sees the original predicates too.
		prev = inDim + h
	}
	m.headOff = total
	total += m.ruleDim + 1 // head weights + bias
	m.flat = make([]float64, total)
	for _, l := range m.layers {
		l.w = m.flat[l.off : l.off+l.size()*l.inDim]
	}
	m.headW = m.flat[m.headOff : m.headOff+m.ruleDim]

	r := rand.New(rand.NewSource(cfg.Seed))
	for _, l := range m.layers {
		for n := 0; n < l.size(); n++ {
			w := l.row(n)
			for i := range w {
				// Small positive init keeps soft products near their neutral
				// element so early gradients do not vanish; a few weights are
				// seeded above the 0.5 binarization threshold so the grafted
				// (discrete) model is non-constant from the start.
				w[i] = r.Float64() * 0.2
				if r.Float64() < 2.0/float64(l.inDim) {
					w[i] = 0.5 + r.Float64()*0.3
				}
			}
		}
	}
	for i := range m.headW {
		m.headW[i] = (r.Float64() - 0.5) * 0.2
	}
	m.opt = newAdam(m.numParams())
	return m, nil
}

// InDim returns the expected input width.
func (m *Model) InDim() int { return m.inDim }

// RuleDim returns the number of candidate rules (logical nodes).
func (m *Model) RuleDim() int { return m.ruleDim }

// HeadWeights returns the linear head weights over rule activations (live
// slice; callers must not modify).
func (m *Model) HeadWeights() []float64 { return m.headW }

// HeadBias returns the linear head bias.
func (m *Model) HeadBias() float64 { return m.flat[len(m.flat)-1] }

// fwdBuffers holds one row's continuous forward activations for training,
// reused across calls. rules holds every logical layer's outputs back to
// back, so layer k's outputs are a sub-slice of it. layerIn[k] is layer k's
// input vector (x concatenated with layer k-1's outputs); layer 0 reads x
// directly. backprop reads both.
type fwdBuffers struct {
	layerIn [][]float64
	rules   []float64
}

func newBuffers(ruleDim int, layers []*logicalLayer) *fwdBuffers {
	b := &fwdBuffers{rules: make([]float64, ruleDim)}
	for _, l := range layers {
		b.layerIn = append(b.layerIn, make([]float64, l.inDim))
	}
	return b
}

// snapshot returns a pooled evaluator compiled from the current weights;
// return it to m.snaps when done. Each call compiles its own, so goroutines
// sharing the model never share a mutable snapshot.
func (m *Model) snapshot() *Binarized {
	b, ok := m.snaps.Get().(*Binarized)
	if !ok {
		b = new(Binarized)
	}
	b.compile(m)
	return b
}

// scores returns the deployed model's score of every row of xs, computed
// serially on a pooled snapshot. The rows are encoder output, so a row of
// another width or a value other than 0 or 1 is a caller bug: it panics on
// one rather than mis-score it.
func (m *Model) scores(xs [][]float64) []float64 {
	b := m.snapshot()
	sc := scratchPool.Get().(*scratch).size(b)
	scores := make([]float64, len(xs))
	err := scoreRows(b, sc, len(xs), func(i int) []float64 { return xs[i] }, scores)
	scratchPool.Put(sc)
	m.snaps.Put(b)
	if err != nil {
		panic("nn: " + err.Error())
	}
	return scores
}

// PredictBatch labels every row of xs with the deployed model.
func (m *Model) PredictBatch(xs [][]float64) []int {
	out := make([]int, len(xs))
	for i, s := range m.scores(xs) {
		out[i] = label(s)
	}
	return out
}

// Accuracy returns the deployed model's accuracy on (xs, ys).
func (m *Model) Accuracy(xs [][]float64, ys []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	return float64(m.CountCorrect(xs, ys)) / float64(len(xs))
}

// CountCorrect returns how many rows of xs the deployed model labels as
// ys.
func (m *Model) CountCorrect(xs [][]float64, ys []int) int {
	return correct(m.scores(xs), ys)
}
